"""No package module keeps a top-level import it never uses, nor a public
name that nothing reaches.

No linter is a test dependency, so the suite runs these two lint rules:

- a name bound by a module-level import must be read somewhere in the module
  or listed in its `__all__`, unless its line carries `# noqa: F401`;
- a name listed in a module's `__all__` must be read, as a name or an
  attribute, somewhere in the package, or be named by a string in the
  benchmark's tracer (`perfbench/tracing.py`), which wraps it from outside.

A third rule keeps the layers apart: the scheme layer (`samplers.py`) owns
its exact laws and never names the dependence testers (`negdep`).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "negdep_qmc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACING = ROOT / "perfbench" / "tracing.py"


def exported(tree) -> list:
    """The names a module's literal `__all__` lists."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


def unused_imports(source: str) -> list:
    """(line, name) of each top-level import binding that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    return [(line, name) for line, name in bound if name not in read]


def dead_public_names(sources: dict, tracing: str) -> list:
    """(module, name) of each `__all__` entry of the {module: source} map that
    no module reads and no string constant of `tracing` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = {n.value for n in ast.walk(ast.parse(tracing))
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                reached.add(n.id if isinstance(n, ast.Name) else n.attr)
    return [(module, name) for module, tree in trees.items() for name in exported(tree)
            if name not in reached]


def test_the_check_flags_an_unused_import():
    source = "import math\nfrom typing import Optional, Union\n\nx: Optional[int] = None\n"
    assert unused_imports(source) == [(1, "math"), (2, "Union")]
    assert unused_imports("import math  # noqa: F401\n") == []
    multiline = "from os import (\n    path,  # noqa: F401\n    sep,\n)\n"
    assert unused_imports(multiline) == [(3, "sep")]
    assert unused_imports('from .a import b\n__all__ = ["b"]\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_a_dead_public_name():
    sources = {
        "a.py": '__all__ = ["f", "g", "h"]\n\ndef f():\n    return g()\n\ndef g(): ...\n\n'
                'def h(): ...\n',
        "b.py": "from . import a\n\nx = a.h\n",
    }
    assert dead_public_names(sources, "") == [("a.py", "f")]
    sources["b.py"] = "from .a import h\n"  # importing a name is not reading it
    assert dead_public_names(sources, "") == [("a.py", "f"), ("a.py", "h")]
    assert dead_public_names(sources, 'WRAPPED = ("f", "h")\n') == []


def test_every_public_name_is_reached():
    sources = {path.name: path.read_text() for path in MODULES}
    assert dead_public_names(sources, TRACING.read_text()) == []


def test_samplers_never_names_negdep():
    source = (PACKAGE / "samplers.py").read_text()
    assert "negdep" not in source
