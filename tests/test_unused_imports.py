"""No package module keeps a top-level import it never uses.

No linter is a test dependency, so this is the one lint rule the suite runs:
a name bound by a module-level import must be read somewhere in the module
or listed in its `__all__`, unless its line carries `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "negdep_qmc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


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
