"""The package runs on numpy and the standard library alone.

scipy is a test dependency only. Each test runs the package in a child
interpreter where `import scipy` fails, and checks there that no scipy module
was loaded; the Wilson quantile is compared against scipy's in this process.
"""

import csv
import json
import math
import os
import subprocess
import sys

from scipy.stats import norm

import negdep_qmc

_BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'
_NO_SCIPY_LOADED = (
    '\nassert sys.modules["scipy"] is None\n'
    'assert not [m for m in sys.modules if m.startswith("scipy.")]\n'
)


def _run_without_scipy(code: str, cwd) -> str:
    src = os.path.dirname(os.path.dirname(negdep_qmc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY + code + _NO_SCIPY_LOADED],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_without_scipy(tmp_path):
    (tmp_path / "n.json").write_text(json.dumps({
        "scheme": {"kind": "lhs"}, "n": 6, "d": 2, "test": "upper",
        "anchors": [[0.5, 0.5]], "t_values": [1, 2], "reps": 2000, "seed": 12,
    }))
    (tmp_path / "r.json").write_text(json.dumps({"criteria": [1, 2, 3, 4], "out_dir": "acc"}))
    _run_without_scipy(
        "from negdep_qmc.cli import main\n"
        'codes = [main(["negdep", "n.json", "--out", "n.csv"]), main(["report", "r.json"])]\n'
        "assert codes == [0, 0], codes\n",
        tmp_path,
    )
    with open(tmp_path / "n.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["empirical", "empirical"]
    report = json.loads((tmp_path / "acc" / "acceptance.json").read_text())
    assert report["all_passed"] and [c["cid"] for c in report["criteria"]] == [1, 2, 3, 4]


def _wilson_reference(successes, trials, confidence):
    # the Wilson score interval with scipy's normal quantile
    z = float(norm.ppf(0.5 * (1.0 + confidence)))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def test_wilson_interval_matches_the_scipy_quantile(tmp_path):
    counts = [(0, 50), (1, 10), (3, 10), (40, 100), (1, 1000), (77, 1000), (500, 1000),
              (50, 50), (1234, 100_000), (7, 200_000)]
    cases = [(s, t, c) for c in (0.9, 0.95, 0.99, 0.999) for s, t in counts]
    out = _run_without_scipy(
        "import json\nfrom negdep_qmc import wilson_interval\n"
        f"print(json.dumps([wilson_interval(*case) for case in {cases!r}]))\n",
        tmp_path,
    )
    for case, got in zip(cases, json.loads(out)):
        # the quantiles differ by at most one ulp; a lower endpoint near 0
        # loses relative digits to cancellation, hence the absolute floor
        for x, ref in zip(got, _wilson_reference(*case)):
            assert math.isclose(x, ref, rel_tol=1e-15, abs_tol=1e-16), (case, x, ref)
