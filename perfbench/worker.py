"""Runs one workload's operations in a single process, pass after pass.

Usage: python3 worker.py <plan.json> <run dir> <seconds> <trace 0|1>

Each pass runs every operation of the plan in order, in-process through
`negdep_qmc.cli.main` (or the public API for the two API operations), writing
its outputs into its own directory. Passes repeat while at least half of the
next one would fit within `seconds` (at least one runs). With trace 1 the time is split: untraced passes
first, then passes with the entry-point spans installed, then the extra
measurements that only the traced run makes. Results go to
<run dir>/worker.json; spans to <run dir>/spans.json, written once at the end.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


# the documented fields of a DependenceReport, in the CLI's column order
REPORT_FIELDS = ("notion", "scheme", "n", "d", "event", "lhs", "rhs", "ci_halfwidth", "verdict",
                 "replications", "gamma", "confidence", "method")


def import_program(root: str):
    """Import negdep_qmc from the checkout's src/, and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import negdep_qmc.cli

    where = os.path.realpath(negdep_qmc.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"negdep_qmc was imported from {where}, not from {src}")
    return negdep_qmc


class Runner:
    def __init__(self, nq, plan, run_dir):
        self.nq = nq
        self.plan = plan
        self.run_dir = run_dir

    def _rsj_api(self, op, pass_dir):
        """API cross-check: the exact small-lattice oracle next to the sampled
        estimate on the matching cell-aligned box."""
        nq = self.nq
        n, k = op["n"], op["k"]
        rows = []
        for j, t in enumerate(op["t_values"]):
            oracle = nq.rsj_small_prob(n, nq.corner_cells(n, (k, k)), t)
            rep = nq.check_upper_nd(nq.RsjLattice(), n, 2, nq.CornerBox0((k / n, k / n)), t,
                                    op["reps"], nq.RngStream(op["seed"]).split(j))
            rows.append([getattr(rep, field) for field in REPORT_FIELDS] + [oracle])
        with open(os.path.join(pass_dir, op["outputs"][0]), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(REPORT_FIELDS) + ["oracle"])
            writer.writerows(rows)
        return 0

    def _simplex_api(self, op, pass_dir):
        """The simplex maximum check on a shortened grid of its configurations."""
        nq = self.nq
        rows, k = [], 0
        for n_vars in op["n_vars"]:
            for t in range(1, n_vars + 1):
                for xi in op["xis"]:
                    res = nq.simplex_max_check(n_vars, t, xi, op["trials"],
                                               nq.RngStream(op["seed"]).split(k))
                    rows.append([n_vars, t, xi, res.passes, res.centroid_value, res.max_observed])
                    k += 1
        with open(os.path.join(pass_dir, op["outputs"][0]), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n_vars", "t", "xi", "passes", "centroid_value", "max_observed"])
            writer.writerows(rows)
        return 0

    def run_op(self, op, pass_dir, argv_extra=()):
        """Run one operation; returns (exit code, captured stdout, error text)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op["kind"] == "rsj_api":
                    rc = self._rsj_api(op, pass_dir)
                elif op["kind"] == "simplex_api":
                    rc = self._simplex_api(op, pass_dir)
                else:
                    cfg = os.path.join(pass_dir, op["config_name"])
                    rc = self.nq.cli.main(workloads.expand_argv(op, pass_dir, cfg)
                                          + list(argv_extra))
        except SystemExit as exc:  # argparse rejecting the command line
            return exc.code, out.getvalue(), err.getvalue()
        except Exception:  # the pass goes on; the failure is recorded and checked
            return -1, out.getvalue(), traceback.format_exc()
        return rc, out.getvalue(), err.getvalue()

    def prepare(self, label):
        pass_dir = os.path.join(self.run_dir, label)
        os.makedirs(pass_dir, exist_ok=True)
        for op in self.plan["ops"]:
            if op.get("config") is not None:
                with open(os.path.join(pass_dir, op["config_name"]), "w") as fh:
                    fh.write(workloads.config_text(op, pass_dir))
        return pass_dir

    def run_pass(self, label, tracer=None):
        pass_dir = self.prepare(label)
        records = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op in self.plan["ops"]:
            s = time.perf_counter()
            if tracer is None:
                rc, stdout, error = self.run_op(op, pass_dir)
            else:
                rc, stdout, error = tracer.span("bench.op." + op["name"], self.run_op, op,
                                                pass_dir)
            records.append({"name": op["name"], "seconds": time.perf_counter() - s,
                            "rc": rc, "stdout": stdout, "error": error})
        wall = time.perf_counter() - t0
        return {"label": label, "traced": tracer is not None, "wall": wall,
                "cpu": time.process_time() - cpu0, "dir": pass_dir, "ops": records}


def _repeat(runner, prefix, seconds, make_tracer=None):
    """At least one pass, then another while at least half of it, judged by
    the last pass, fits within `seconds`."""
    passes, tracers = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["wall"] / 2 <= seconds:
        tracer = make_tracer() if make_tracer else None
        if tracer is not None:
            tracer.install()
        try:
            passes.append(runner.run_pass(f"{prefix}{len(passes)}", tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        tracers.append(tracer)
    return passes, tracers


def _thread_speedup(runner):
    """Wall time of the heaviest sweep config at 1 thread over 2 threads,
    best of two runs each, untraced; 0 when the CLI takes no --threads."""
    op = workloads.heaviest_sweep_op(runner.plan["ops"])
    best = {}
    for rep in range(2):
        for threads in (1, 2):
            pass_dir = runner.prepare(f"threads{threads}-{rep}")
            s = time.perf_counter()
            rc, _, _ = runner.run_op(op, pass_dir, ["--threads", str(threads)])
            if rc != 0:
                return 0.0
            best[threads] = min(best.get(threads, float("inf")), time.perf_counter() - s)
    return best[1] / best[2]


def _default_budget_refusals(runner):
    """Scan inputs the program refuses at its default budget (exit code 3)."""
    refused = 0
    pass_dir = runner.prepare("default-budget")
    for op in runner.plan["ops"]:
        if op["argv"][0] != "discrepancy":
            continue
        cfg = {k: v for k, v in op["config"].items() if k != "budget"}
        probe = dict(op, config=cfg)
        with open(os.path.join(pass_dir, op["config_name"]), "w") as fh:
            fh.write(workloads.config_text(probe, pass_dir))
        rc, _, _ = runner.run_op(probe, pass_dir)
        refused += rc == 3
    return refused


def main(argv) -> int:
    plan_path, run_dir, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    root = os.path.dirname(HERE)
    nq = import_program(root)
    with open(plan_path) as fh:
        plan = json.load(fh)
    runner = Runner(nq, plan, run_dir)
    result = {"workload": plan["workload"], "untraced": [], "traced": []}

    budget = seconds / 2 if trace else seconds
    result["untraced"], _ = _repeat(runner, "u", budget)
    if trace:
        passes, tracers = _repeat(runner, "t", budget, tracing.Tracer)
        result["traced"] = passes
        result["layers"] = [tracing.layer_metrics(t.spans) for t in tracers]
        result["missing_entry_points"] = sorted({m for t in tracers for m in t.missing})
        extras = {"negdep.thread_speedup_2": 0.0, "discrepancy.default_budget_refusals": 0}
        if plan["workload"] == "dependence-sweep":
            extras["negdep.thread_speedup_2"] = _thread_speedup(runner)
        if plan["workload"] == "discrepancy-scan":
            extras["discrepancy.default_budget_refusals"] = _default_budget_refusals(runner)
        result["extras"] = extras
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump([{"pass": p["label"], "spans": t.spans}
                       for p, t in zip(passes, tracers)], fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(run_dir, "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
