"""The examples in README.md run as printed.

The block under "## Python API" is run in a child interpreter, and the shell
block under "Examples:" in a shell, so a renamed function, a changed
signature or a config key the CLI stops accepting breaks this test rather
than the reader.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import negdep_qmc

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_block() -> str:
    section = README.read_text().split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_python_api_block_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(negdep_qmc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _api_block()],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


def _examples_block() -> str:
    section = README.read_text().split("Examples:", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_cli_examples_run(tmp_path):
    # `negdep-qmc` on PATH runs this interpreter's copy of the package
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "negdep-qmc"
    script.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m negdep_qmc.cli "$@"\n')
    script.chmod(0o755)
    src = os.path.dirname(os.path.dirname(negdep_qmc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path,
           "PATH": os.pathsep.join((str(bin_dir), os.environ.get("PATH", "")))}
    proc = subprocess.run(
        ["sh", "-e", "-c", _examples_block()],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") > 3
