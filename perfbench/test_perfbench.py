"""Self-tests of the benchmark: its counters agree with the program's outputs
and its checker catches a wrong output.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, import_program  # noqa: E402

nq = import_program(os.path.dirname(HERE))


def _small_sweep(tmp_path, seed=3):
    """The sweep plan with fewer replications, so a pass takes about a second."""
    plan = workloads.generate("dependence-sweep", seed, str(tmp_path / "inputs"))
    for op in plan["ops"]:
        if op["kind"] == "rsj_api":
            op["reps"] = 3_000
        elif op["kind"] == "simplex_api":
            op["trials"] = 2_000
        elif op["argv"][0] == "negdep" and op["config"]["reps"] > 1:
            op["config"]["reps"] = 3_000
    return plan


def _traced_pass(plan, run_dir, label="t0", ops=None):
    plan = dict(plan, ops=ops if ops is not None else plan["ops"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        record = Runner(nq, plan, str(run_dir)).run_pass(label, tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    return plan, record, tracer


def test_replication_counter_matches_csv(tmp_path):
    plan, record, tracer = _traced_pass(_small_sweep(tmp_path), tmp_path)
    checker = check.Checker(plan)
    checker.check_pass(record)
    assert checker.finish() == 0, checker.failures
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["samplers.replications"] == checker.replications["t0"] > 0
    # exact dispatch: the swap pairwise sweep (4 pairs of rows) and the analytic
    # pairs of acceptance criteria 1 to 3 (2 + 1 + 2 + 9 reports)
    assert metrics["negdep.path.exact"] == 8 + 14
    assert metrics["integrate.simplex_max_check.busy_s"] > 0
    assert metrics["integrate.variance_study.busy_s"] > 0
    assert 0.0 < metrics["samplers.rows_read_frac"] < 1.0


def test_tracing_is_removed_and_leaves_outputs_unchanged(tmp_path):
    plan = _small_sweep(tmp_path)
    original = nq.negdep.sample_batch
    _, traced, _ = _traced_pass(plan, tmp_path, "t0")
    assert nq.negdep.sample_batch is original
    untraced = Runner(nq, plan, str(tmp_path)).run_pass("u0")
    assert check.identical_outputs(plan, untraced, traced)[1] == 0


def test_exact_grid_cells_match_the_inputs(tmp_path):
    plan = workloads.generate("discrepancy-scan", 5, str(tmp_path / "inputs"))
    ops = [op for op in plan["ops"] if op.get("group") in ("exact", "weighted")]
    plan, record, tracer = _traced_pass(plan, tmp_path, ops=ops)
    assert all(o["rc"] == 0 for o in record["ops"])
    expected = 0
    for op in ops:
        if op["group"] != "exact":
            continue
        pts = np.loadtxt(op["config"]["points"], skiprows=1, ndmin=2)
        expected += int(np.prod([np.unique(np.append(pts[:, a], 1.0)).size + 1
                                 for a in range(pts.shape[1])]))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["discrepancy.exact.grid_cells"] == expected
    assert metrics["discrepancy.exact.calls"] == 3
    assert metrics["discrepancy.weighted.projections"] == 2**4 - 1


def _rewrite_csv(path, row_index, column, fn):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0].keys())
    rows[row_index][column] = fn(rows[row_index][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("op_name, output, row, column, perturb", [
    # an oracle value off in the tenth digit
    ("negdep-lhs16", "lhs16.csv", 1, "oracle", lambda v: repr(float(v) * (1 + 1e-10))),
    # an exact-dispatch probability off in the tenth digit
    ("negdep-swap", "swap.csv", 0, "lhs", lambda v: repr(float(v) + 1e-10)),
    # an empirical estimate (t = 1, about 300 hits) moved by half its count
    ("negdep-mixed6", "mixed6.csv", 0, "lhs", lambda v: repr(round(float(v) * 3000 * 1.5) / 3000)),
    # a verdict its own numbers do not support
    ("negdep-rsj17", "rsj17.csv", 0, "verdict", lambda v: "violated" if v != "violated" else "holds"),
    # a variance ratio that is not var_scheme / var_mc
    ("variance-lhs64", "variance.csv", 0, "ratio", lambda v: repr(float(v) * 1.5)),
    # a simplex draw above the centroid
    ("api-simplex", "simplex.csv", 3, "max_observed", lambda v: repr(float(v) * 10)),
])
def test_checker_fails_a_perturbed_sweep_output(tmp_path, op_name, output, row, column, perturb):
    plan = _small_sweep(tmp_path)
    record = Runner(nq, plan, str(tmp_path)).run_pass("u0")
    _rewrite_csv(os.path.join(record["dir"], output), row, column, perturb)
    checker = check.Checker(plan)
    checker.check_pass(record)
    checker.finish()
    assert list(checker.failures) == [("u0", op_name)]


def test_checker_fails_a_perturbed_discrepancy(tmp_path):
    plan = workloads.generate("discrepancy-scan", 6, str(tmp_path / "inputs"))
    plan["ops"] = [op for op in plan["ops"] if op.get("file") in ("E32x4", "C64x3")]
    record = Runner(nq, plan, str(tmp_path)).run_pass("u0")
    checker = check.Checker(plan)
    checker.check_pass(record)
    assert checker.finish() == 0, checker.failures
    _rewrite_csv(os.path.join(record["dir"], "E32x4.csv"), 0, "value",
                 lambda v: repr(float(v) * (1 + 1e-9)))
    _rewrite_csv(os.path.join(record["dir"], "C64x3.csv"), 0, "upper",
                 lambda v: repr(float(v) + 1e-6))
    checker = check.Checker(plan)
    checker.check_pass(record)
    assert checker.finish() == 2


def test_checker_fails_an_acceptance_criterion_not_passed(tmp_path):
    plan = workloads.generate("dependence-sweep", 1, str(tmp_path / "inputs"))
    plan["ops"] = [op for op in plan["ops"] if op.get("criterion") in (1, 2)]
    record = Runner(nq, plan, str(tmp_path)).run_pass("u0")
    record["ops"][0]["stdout"] = record["ops"][0]["stdout"].replace("PASS", "FAIL")
    checker = check.Checker(plan)
    checker.check_pass(record)
    assert checker.finish() == 1


def test_wilson_interval_covers_at_the_family_level():
    # at equality the estimate of a probability-p event stays inside its
    # interval; a count 10 standard deviations away does not
    z = 5.0
    lo, hi = check.wilson_cc(500, 10_000, z)
    assert lo < 0.05 < hi
    assert not (check.wilson_cc(500 + 218, 10_000, z)[0] <= 0.05)


def test_references_agree_with_simple_simulation():
    rng = np.random.default_rng(0)
    reps, n = 200_000, 6
    perm = np.argsort(rng.random((reps, 2, n)), axis=2)
    pts = np.swapaxes((perm + rng.random((reps, 2, n))) / n, 1, 2)
    upper = (0.45, 0.7)
    hit = np.all(pts[:, :2, :] < upper, axis=(1, 2)).mean()
    assert abs(hit - reference.lhs_corner_prob(n, upper, 2)) < 4e-3
    pair = np.mean(np.all(pts[:, 0, :] >= 0.3, axis=1) & np.all(pts[:, 1, :] >= 0.5, axis=1))
    law = reference.distinct_strata_pair_prob(n, [(0.3, 1.0)] * 2, [(0.5, 1.0)] * 2)
    assert abs(pair - law) < 4e-3
    # the block law reduces to the closed form at t = 1: K has mean k^2 / n
    assert reference.rsj_corner_block_prob(7, 3, 1) == pytest.approx(9 / 49, rel=1e-12)
