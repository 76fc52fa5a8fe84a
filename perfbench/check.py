"""Correctness checker behind `failed` and `check.failed_frac`.

An operation (one CLI call or one API call in one pass) fails when it exits nonzero or any of its outputs disagrees with
the references:

- exact-dispatch rows, oracle columns, discrepancy values and bound values
  equal the reference to 1e-12 relative;
- cover results bracket the exact value and are exactly delta wide;
- sampled sets keep their structure (net property, one point per stratum);
- every acceptance criterion run passes, the variance study stays within
  Latin hypercube's n/(n-1) variance bound, and no simplex draw beats the
  centroid;
- every empirical estimate contains its reference law in a Wilson score
  interval (with continuity correction) at a Bonferroni-corrected level over
  all estimates of the run, so that a correct program fails the run with
  probability at most FAMILY_ALPHA whatever its random streams;
- every verdict is the one its own lhs, ci_halfwidth and rhs imply.

Byte-identity of outputs across passes is counted, not failed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from statistics import NormalDist

import numpy as np

import reference as ref

FAMILY_ALPHA = 1e-5
REL_TOL = 1e-12


def close(a, b) -> bool:
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=1e-15)


def wilson_cc(successes: int, trials: int, z: float):
    """Wilson score interval with continuity correction (Newcombe 1998)."""
    p = successes / trials
    denom = 2.0 * (trials + z * z)
    lo = 0.0
    hi = 1.0
    if successes > 0:
        root = z * math.sqrt(max(0.0, z * z - 2 - 1 / trials + 4 * p * (trials * (1 - p) + 1)))
        lo = max(0.0, (2 * trials * p + z * z - 1 - root) / denom)
    if successes < trials:
        root = z * math.sqrt(max(0.0, z * z + 2 - 1 / trials + 4 * p * (trials * (1 - p) - 1)))
        hi = min(1.0, (2 * trials * p + z * z + 1 + root) / denom)
    return lo, hi


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load_points(path) -> np.ndarray:
    with open(path) as fh:
        d, n = (int(x) for x in fh.readline().split())
    pts = np.loadtxt(path, skiprows=1, ndmin=2)
    if pts.shape != (n, d):
        raise ValueError(f"expected {n} x {d} points, got {pts.shape}")
    return pts


class Checker:
    def __init__(self, plan):
        self.plan = plan
        self.ops = {op["name"]: op for op in plan["ops"]}
        self.failures = {}  # (pass, op) -> reasons
        self.attempted = 0
        self._estimates = []  # (key, successes, trials, law, what)
        # per pass label: t = 1 empirical rows marked violated (their answer is
        # exactly vol, so any such verdict is a false alarm), and replications
        # drawn by the testers (a pairwise pair shares one set of draws)
        self.violated_at_equality = {}
        self.replications = {}

    def fail(self, key, reason) -> None:
        self.failures.setdefault(key, []).append(reason)

    def expect(self, key, ok, reason) -> None:
        if not ok:
            self.fail(key, reason)

    def estimate(self, key, successes, trials, law, what) -> None:
        self._estimates.append((key, successes, trials, law, what))

    # -- one pass -------------------------------------------------------

    def _checker(self, op):
        if op["kind"] == "simplex_api":
            return self._simplex_op
        if op["kind"] == "cli" and op["argv"][0] == "report":
            return self._acceptance_op
        if op["kind"] == "cli" and op["argv"][0] == "variance":
            return self._variance_op
        if self.plan["workload"] == "dependence-sweep":
            return self._sweep_op
        return self._scan_op

    def check_pass(self, record) -> None:
        pass_dir = record["dir"]
        for op_rec in record["ops"]:
            key = (record["label"], op_rec["name"])
            self.attempted += 1
            if op_rec["rc"] != 0:
                self.fail(key, f"exit code {op_rec['rc']}: {op_rec['error'].strip()[-300:]}")
                continue
            op = self.ops[op_rec["name"]]
            try:
                self._checker(op)(key, op, op_rec, pass_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.fail(key, f"unreadable output: {type(exc).__name__}: {exc}")

    def finish(self) -> int:
        """Evaluate the empirical estimates at the family level; returns the
        number of failed operations."""
        if self._estimates:
            z = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * len(self._estimates)))
            for key, successes, trials, law, what in self._estimates:
                lo, hi = wilson_cc(successes, trials, z)
                self.expect(key, lo <= law <= hi,
                            f"{what}: {successes}/{trials} excludes law {law:.6g} "
                            f"(interval [{lo:.6g}, {hi:.6g}])")
        return len(self.failures)

    # -- dependence-sweep ---------------------------------------------

    def _report_row(self, key, row, r, reps, first_of_pair=True):
        lhs, rhs = float(row["lhs"]), float(row["rhs"])
        ci = float(row["ci_halfwidth"])
        verdict = ("violated" if lhs - ci > rhs else "holds" if lhs + ci <= rhs
                   else "inconclusive")
        self.expect(key, row["verdict"] == verdict,
                    f"verdict {row['verdict']} but lhs/ci/rhs imply {verdict}")
        if r["rhs"] is not None:
            self.expect(key, close(rhs, r["rhs"]), f"rhs {rhs!r} != {r['rhs']!r}")
        if r.get("oracle") is not None:
            self.expect(key, row["oracle"] != "" and close(row["oracle"], r["oracle"]),
                        f"oracle {row['oracle']!r} != {r['oracle']!r}")
        elif "oracle" in row:
            self.expect(key, row["oracle"] == "", "unexpected oracle value")
        if r["kind"] == "exact":
            self.expect(key, row["method"] == "exact" and int(row["replications"]) == 0,
                        "exact-dispatch row not marked exact")
            self.expect(key, close(lhs, r["law"]), f"exact lhs {lhs!r} != {r['law']!r}")
            return
        self.expect(key, row["method"] == "empirical", "expected an empirical row")
        self.expect(key, int(row["replications"]) == reps, "replication count differs")
        if first_of_pair:
            self.replications[key[0]] = self.replications.get(key[0], 0) + reps
        if r["kind"] == "conditional":
            m = re.search(r"\[(\d+) hits\]$", row["event"])
            if m is None:
                self.fail(key, f"no conditioning hits in {row['event']!r}")
                return
            trials = int(m.group(1))
        else:
            trials = reps
        successes = round(lhs * trials)
        self.expect(key, abs(successes - lhs * trials) < 1e-6 * trials,
                    "estimate is not a count over the replications")
        self.estimate(key, successes, trials, r["law"], row["event"])
        if r.get("t") == 1 and row["verdict"] == "violated":
            self.violated_at_equality[key[0]] = self.violated_at_equality.get(key[0], 0) + 1

    def _sweep_op(self, key, op, op_rec, pass_dir):
        name = op["outputs"][0][: -len(".csv")]
        rows = _read_csv(os.path.join(pass_dir, op["outputs"][0]))
        refs = self.plan["refs"][name]
        if len(rows) != len(refs):
            self.fail(key, f"{len(rows)} rows, expected {len(refs)}")
            return
        cfg = op.get("config") or {}
        reps = op["reps"] if op["kind"] == "rsj_api" else cfg["reps"]
        pairwise = cfg.get("test") == "pairwise"
        for i, (row, r) in enumerate(zip(rows, refs)):
            self._report_row(key, row, r, reps, first_of_pair=not pairwise or i % 2 == 0)
        if cfg.get("test") == "ci":
            probes = _read_csv(os.path.join(pass_dir, op["outputs"][1]))
            self.expect(key, len(probes) == len(rows) * (cfg["d"] - 1) * 3,
                        f"{len(probes)} factorization rows")
            for p in probes:
                dev, hw = float(p["deviation"]), float(p["halfwidth"])
                self.expect(key, p["consistent"] == ("true" if abs(dev) <= hw else "false"),
                            "factorization flag disagrees with its deviation and halfwidth")
                self.expect(key, 0.0 <= float(p["joint"]) <= 1.0, "joint probability out of [0,1]")

    # -- discrepancy-scan ---------------------------------------------

    def _scan_op(self, key, op, op_rec, pass_dir):
        out = os.path.join(pass_dir, op["outputs"][0])
        refs = self.plan["refs"]
        group = op["group"]
        if op["name"] == "sample-lhs4096":
            pts = _load_points(out)
            self.expect(key, pts.shape == (4096, 2) and ref.is_one_per_stratum(pts),
                        "sampled Latin hypercube lost its one-point-per-stratum structure")
        elif op["name"] == "sample-net4096":
            pts = _load_points(out)
            self.expect(key, pts.shape == (4096, 2) and ref.is_base2_net(pts, 12),
                        "sampled scrambled net is not a (0,12,2)-net in base 2")
        elif op["name"].startswith("net-check"):
            rows = _read_csv(out)
            self.expect(key, len(rows) == 1 and rows[0]["is_net"] == "true"
                        and rows[0]["n"] == "4096", "net-check did not confirm the net")
        elif group == "bounds":
            rows = _read_csv(out)
            want = refs["bounds"]
            self.expect(key, len(rows) == len(want), f"{len(rows)} bound rows")
            for row, value in zip(rows, want):
                self.expect(key, close(row["bound_value"], value),
                            f"bound {row['bound_value']} != {value!r}")
        else:
            r = refs["files"][op["file"]]
            rows = _read_csv(out)
            if len(rows) != 1:
                self.fail(key, f"{len(rows)} discrepancy rows, expected 1")
                return
            row = rows[0]
            self.expect(key, int(row["n"]) == r["n"] and int(row["d"]) == r["d"], "shape differs")
            if group == "exact":
                self.expect(key, row["quantity"] == "exact" and close(row["value"], r["exact"]),
                            f"exact {row['value']} != {r['exact']!r}")
            elif group == "cover":
                lower, upper = float(row["lower"]), float(row["upper"])
                self.expect(key, close(lower, r["cover_lower"]),
                            f"cover lower {lower!r} != {r['cover_lower']!r}")
                self.expect(key, abs(upper - lower - r["delta"]) <= 1e-12,
                            "cover bracket is not delta wide")
                self.expect(key, lower <= r["exact"] + 1e-12 and r["exact"] <= upper + 1e-12,
                            f"cover [{lower}, {upper}] does not bracket {r['exact']!r}")
            else:
                self.expect(key, close(row["value"], r["weighted"]),
                            f"weighted {row['value']} != {r['weighted']!r}")

    # -- acceptance criteria, variance study, simplex check ------------

    def _acceptance_op(self, key, op, op_rec, pass_dir):
        cid = op["criterion"]
        self.expect(key, f"criterion {cid:02d} PASS" in op_rec["stdout"],
                    f"criterion {cid:02d} did not report PASS")
        with open(os.path.join(pass_dir, op["outputs"][1])) as fh:
            summary = json.load(fh)
        self.expect(key, summary["all_passed"] is True
                    and [c["cid"] for c in summary["criteria"]] == [cid],
                    "acceptance.json does not record the criterion as passed")


    def _variance_op(self, key, op, op_rec, pass_dir):
        cfg = op["config"]
        (row,) = _read_csv(os.path.join(pass_dir, op["outputs"][0]))
        var_s, var_mc = float(row["var_scheme"]), float(row["var_mc"])
        ratio, stderr = float(row["ratio"]), float(row["ratio_stderr"])
        self.expect(key, int(row["replications"]) == cfg["reps"], "replication count differs")
        self.expect(key, var_s > 0 and var_mc > 0 and close(ratio, var_s / var_mc),
                    "ratio is not var_scheme / var_mc")
        # Latin hypercube variance is at most n/(n-1) times Monte Carlo's (Owen 1997)
        bound = cfg["n"] / (cfg["n"] - 1)
        self.expect(key, ratio <= bound + 6 * stderr,
                    f"variance ratio {ratio:.4g} above {bound:.4g} by more than 6 stderr")

    def _simplex_op(self, key, op, op_rec, pass_dir):
        rows = _read_csv(os.path.join(pass_dir, op["outputs"][0]))
        want = self.plan["refs"]["simplex"]
        self.expect(key, len(rows) == len(want), f"{len(rows)} simplex rows")
        for row, centroid in zip(rows, want):
            self.expect(key, close(row["centroid_value"], centroid),
                        f"centroid {row['centroid_value']} != {centroid!r}")
            self.expect(key, row["passes"] == "True"
                        and float(row["max_observed"]) <= centroid * (1 + REL_TOL),
                        f"simplex maximum exceeds the centroid for {row}")


def identical_outputs(plan, reference_pass, other_pass):
    """(identical, differing) counts of output files between two passes."""
    same = differ = 0
    for op in plan["ops"]:
        for name in op["outputs"]:
            try:
                with open(os.path.join(reference_pass["dir"], name), "rb") as a, \
                        open(os.path.join(other_pass["dir"], name), "rb") as b:
                    equal = a.read() == b.read()
            except OSError:
                equal = False
            same += equal
            differ += not equal
    return same, differ
