"""negdep-qmc benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dependence-sweep, discrepancy-scan, or all (both in turn). A run generates its inputs from the seed, runs the workload
in one worker process with one thread, in whole passes, for about S seconds,
checks every output, times set-up in fresh interpreters, and prints as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones, from a run that is half untraced and
half traced (see README.md). Lines before it, starting with "#", give the
workload's own figures, the failures and the provenance. The exit code is 0
when every output is correct, 1 when one is not, and 2 when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
# set-up varies by about 10% from launch to launch, so take the median of several
SETUP_LAUNCHES = 5
WORKER_TIMEOUT_S = 150
CRITERIA = range(1, 5)  # the exact acceptance criteria the sweep runs


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    """One worker thread everywhere: no BLAS pools, the program's default
    thread count, and no outside package path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("NEGDEP_QMC_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def median(values) -> float:
    return float(statistics.median(values))


def measure_setup(config_paths, env):
    """Median wall time of fresh interpreters that import the CLI and parse
    the workload configs, and the median import time inside them."""
    walls, imports = [], []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), *config_paths],
                              env=env, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return median(walls), median(imports)


def _source_id() -> str:
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def _cpu_info():
    model, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                caches[f"l{level}"] = size
    except OSError:
        pass
    return model, caches


def provenance(seed) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "missing"
    model, caches = _cpu_info()
    return {"commit": _source_id(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version, "nproc": os.cpu_count(),
            "cpu": model, "caches_per_core": caches, "threads": 1, "workload_seed": seed}


def _op_seconds(plan, passes, pred) -> float:
    """Median over passes of the summed time of the operations matching pred."""
    ops = {op["name"]: op for op in plan["ops"]}
    return median([sum(o["seconds"] for o in p["ops"] if pred(ops[o["name"]])) for p in passes])


def is_seconds(name) -> bool:
    return (name.endswith("_s") and not name.endswith("_per_s")) or ".busy_s." in name


def share_name(name) -> str:
    """Per-layer times are reported as shares of the pass wall time: a layer
    a workload does not use then reads 0 as a share, never as a time."""
    name = name.replace(".busy_s.", ".busy_frac.")
    return name[: -len("_s")] + "_frac" if name.endswith("_s") else name


def workload_figures(plan, passes, checker) -> dict:
    """Workload-specific timings from untraced passes: printed in every run,
    and reported among the per-layer metrics of a traced run."""
    wall = median([p["wall"] for p in passes])
    reps = checker.replications.get(passes[0]["label"], 0)
    out = {"workload.replications_per_s": reps / wall}
    for group in ("exact", "cover", "weighted"):
        out[f"workload.{group}_s"] = _op_seconds(plan, passes,
                                                 lambda op, g=group: op.get("group") == g)
    for cid in CRITERIA:
        out[f"acceptance.criterion_{cid:02d}_s"] = _op_seconds(
            plan, passes, lambda op, c=cid: op.get("criterion") == c)
    return out


def run_workload(spec, workload, seed, seconds, trace) -> dict:
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = os.path.join(run_dir, "inputs")
    plan = workloads.generate(workload, seed, inputs)
    env = child_env()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(inputs, "plan.json"),
         run_dir, str(seconds), str(trace)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    with open(os.path.join(run_dir, "worker.json")) as fh:
        result = json.load(fh)
    untraced, traced = result["untraced"], result["traced"]

    checker = check.Checker(plan)
    for record in untraced + traced:
        checker.check_pass(record)
    same = differ = 0
    for record in untraced[1:] + traced:
        s, d = check.identical_outputs(plan, untraced[0], record)
        same, differ = same + s, differ + d
        if record["traced"] and d:
            checker.fail((record["label"], "*"), f"{d} traced outputs differ from untraced ones")
    failed = checker.finish()

    configs = [os.path.join(untraced[0]["dir"], op["config_name"])
               for op in plan["ops"] if op.get("config") is not None]
    setup_s, import_s = measure_setup(configs, env)
    wall_u = median([p["wall"] for p in untraced])
    figures = workload_figures(plan, untraced, checker)
    if trace:
        layers, walls_t = result["layers"], [p["wall"] for p in traced]
        in_seconds, values = {}, {}
        for name in layers[0]:
            if is_seconds(name):
                in_seconds[name] = median([layer[name] for layer in layers])
                values[share_name(name)] = median(
                    [layer[name] / w for layer, w in zip(layers, walls_t)])
            else:
                values[name] = median([layer[name] for layer in layers])
        for name, v in figures.items():
            if is_seconds(name):
                in_seconds[name] = v
                values[share_name(name)] = v / wall_u
        in_seconds["cli.import_s"] = import_s
        values.update(result["extras"])
        values.update({
            "workload.replications_per_s": figures["workload.replications_per_s"],
            "cli.import_frac": import_s / setup_s,
            "process.cpu_util": sum(p["cpu"] for p in untraced) / sum(p["wall"] for p in untraced),
            "trace.overhead_frac": median(walls_t) / wall_u - 1.0,
            "negdep.violated_at_equality": checker.violated_at_equality.get(
                untraced[0]["label"], 0),
            "check.failed_frac": failed / checker.attempted,
            "check.csv_byte_identical": same,
            "check.csv_byte_differing": differ,
        })
        names = [m["name"] for m in spec["per_layer"]]
    else:
        in_seconds = figures
        values = {"wall_s": wall_u, "setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"]}
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: values[name] for name in names}
    notes = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "failed_frac": f"{failed}/{checker.attempted}",
        "seconds": {k: v for k, v in in_seconds.items() if v and is_seconds(k)},
        "rates": {k: v for k, v in figures.items() if v and not is_seconds(k)},
        "failures": {f"{k[0]}:{k[1]}": v[:3] for k, v in list(checker.failures.items())[:10]},
        "missing_entry_points": result.get("missing_entry_points", []),
        "provenance": provenance(seed),
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump({"metrics": metrics, "notes": notes}, fh, indent=1, sort_keys=True)
    # keep the summary and the spans; the outputs were checked
    for entry in os.listdir(run_dir):
        path = os.path.join(run_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif entry not in ("summary.json", "spans.json"):
            os.remove(path)
    return {"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="negdep-qmc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "negdep_qmc", "cli.py")):
        sys.stderr.write(f"error: no program sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(spec, name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 2
    metrics = {}
    for name, res in results.items():
        notes = res["notes"]
        print(f"# {name}: {notes['failed_frac']} operations failed; passes {notes['passes']}")
        for key, value in sorted(res["metrics"].items()):
            print(f"#   {key} = {value:.6g} {units[key]}")
        for key, value in sorted(notes["seconds"].items()):
            print(f"#   {key} = {value:.6g} s")
        for key, value in sorted(notes["rates"].items()):
            if key not in res["metrics"]:
                print(f"#   {key} = {value:.6g} 1/s")
        for key, reasons in notes["failures"].items():
            print(f"#   FAILED {key}: {'; '.join(reasons)}")
        if notes["missing_entry_points"]:
            print(f"#   not traced (absent from the program): {notes['missing_entry_points']}")
        print("# provenance " + json.dumps(notes["provenance"], sort_keys=True))
        for key, value in res["metrics"].items():
            full = key if len(results) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": units[key]}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
