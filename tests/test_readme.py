"""The Python API example in README.md runs as printed.

The block under "## Python API" is run in a child interpreter, so a renamed
function or a changed signature breaks this test rather than the reader.
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
