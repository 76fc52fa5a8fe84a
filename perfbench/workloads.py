"""Input generator: turns a workload seed into the configs, point-set files
and reference values of one benchmark run.

The program sees only what is written here: JSON configs, point-set files and
the command lines of the operations. References come from `reference.py`,
which shares no code with the program.

Why these workloads (each stresses different layers, so a change to one layer
is seen on one workload and predicted to change nothing on another):

- dependence-sweep: `negdep` CLI runs over all five test kinds and six
  schemes. Sampling, `contains_points` and event counting do nearly all the
  work and `discrepancy` does none. n spans 6 to 256, so the share of drawn
  rows a tester reads (t/n) runs from 2/256 to 3/6 and the replication chunk
  (about 32 MB) is larger than the 4 MiB L2.
- discrepancy-scan: the `discrepancy` CLI on a few large point sets (exact,
  cover and weighted), two whole sets drawn with `sample`, a `net-check` and
  a `bounds` table. `discrepancy` dominates, every drawn row is read and
  `negdep` is idle. Every config passes an explicit budget so that each
  commit times the same work.
- The full acceptance suite is not a workload of its own: a pass takes 10 to
  14 s, so two or three fit in a run, and on a host whose speed swings by
  about 20% their median spread by up to 27% over ten runs. The sweep runs
  its four exact criteria (1 to 4), a variance study and a shortened simplex
  check, so the `acceptance` and `integrate` layers are still measured.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref

WORKLOADS = ("dependence-sweep", "discrepancy-scan")

# Explicit budget for the scan: above the cost the program charges for every
# scan input, so that no commit refuses (or times differently) the same work.
SCAN_BUDGET = 10**13


def _round(x) -> float:
    return float(round(float(x), 3))


def _anchor(rng, d, lo=0.25, hi=0.8):
    return [_round(v) for v in rng.uniform(lo, hi, size=d)]


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _save_points(path, pts: np.ndarray) -> None:
    """Point-set text format: header "d n", then one row of d reals per point."""
    with open(path, "w") as fh:
        fh.write(f"{pts.shape[1]} {pts.shape[0]}\n")
        for row in pts:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def _cli_op(name, config, argv, outputs, **meta):
    return {"name": name, "kind": "cli", "config": config, "argv": argv,
            "outputs": outputs, **meta}


# ---------------------------------------------------------------------------
# dependence-sweep


def _rect_corner0(upper):
    return [(0.0, u) for u in upper]


def _rect_corner1(lower):
    return [(lo, 1.0) for lo in lower]


def _joint_rows(cfg, oracle_fn):
    """Row references of an upper/lower sweep: estimate law, rhs, oracle."""
    n, test = cfg["n"], cfg["test"]
    rows = []
    for anchor in cfg["anchors"]:
        vol = float(np.prod(anchor))
        for t in cfg["t_values"]:
            if test == "upper":
                law = oracle_fn(anchor, t)
                rhs = vol**t
            else:
                law = ref.lhs_corner_outside_prob(n, anchor, t)
                rhs = (1.0 - vol) ** t
            rows.append({
                "kind": "count", "law": law, "rhs": rhs, "t": t,
                "oracle": law if cfg.get("oracle") else None,
            })
    return rows


def _sweep(seed: int, indir: str):
    rng = np.random.default_rng([seed, 1])
    prog_seed = 1000 * (seed % 1_000_000)
    configs = []

    lhs = {"kind": "lhs"}
    configs.append(("lhs16", {
        "scheme": lhs, "n": 16, "d": 2, "test": "upper", "oracle": True,
        "anchors": [_anchor(rng, 2) for _ in range(2)], "t_values": [1, 2, 3],
        "reps": 40_000,
    }))
    configs.append(("lhs256", {
        "scheme": lhs, "n": 256, "d": 2, "test": "lower",
        "anchors": [_anchor(rng, 2)], "t_values": [1, 2], "reps": 10_000,
    }))
    g2 = int(rng.integers(2, 30))
    configs.append(("gss31", {
        "scheme": {"kind": "gss", "beta": 31, "strata": {"kind": "cells", "g": [1, g2], "n": 31}},
        "n": 12, "d": 2, "test": "upper", "oracle": True,
        "anchors": [_anchor(rng, 2) for _ in range(2)], "t_values": [1, 2, 3],
        "reps": 50_000,
    }))
    configs.append(("mixed6", {
        "scheme": {"kind": "mixed", "left": lhs, "d_left": 2, "right": lhs, "d_right": 1},
        "n": 6, "d": 3, "test": "upper", "oracle": True,
        "anchors": [_anchor(rng, 3) for _ in range(2)], "t_values": [1, 2, 3],
        "reps": 100_000,
    }))
    configs.append(("rsj17", {
        "scheme": {"kind": "rsj"}, "n": 17, "d": 2, "test": "pairwise",
        "q_anchors": [_anchor(rng, 2, 0.1, 0.6) for _ in range(2)],
        "r_anchors": [_anchor(rng, 2, 0.1, 0.6) for _ in range(2)],
        "reps": 50_000,
    }))
    a_lo, b_lo = _round(rng.uniform(0.0, 0.3)), _round(rng.uniform(0.0, 0.3))
    configs.append(("rsj101", {
        "scheme": {"kind": "rsj"}, "n": 101, "d": 2, "test": "conditional", "i": 2,
        "a_box": {"kind": "interval", "a": [a_lo], "b": [_round(a_lo + rng.uniform(0.4, 0.7))]},
        "b_box": {"kind": "interval", "a": [b_lo], "b": [_round(b_lo + rng.uniform(0.4, 0.7))]},
        "alphas": [_anchor(rng, 1, 0.2, 0.7)[0] for _ in range(2)],
        "betas": [_anchor(rng, 1, 0.2, 0.7)[0] for _ in range(2)],
        "reps": 20_000,
    }))
    configs.append(("net25", {
        "scheme": {"kind": "net", "b": 5, "m": 2, "s": 2}, "n": 25, "d": 2, "test": "ci",
        "i": int(rng.integers(1, 3)),
        "q_values": [_anchor(rng, 1, 0.2, 0.7)[0] for _ in range(2)],
        "r_values": [_anchor(rng, 1, 0.2, 0.7)[0] for _ in range(2)],
        "reps": 20_000,
    }))
    configs.append(("swap", {
        "scheme": {"kind": "swap"}, "n": 2, "d": 2, "test": "pairwise",
        "q_anchors": [_anchor(rng, 2, 0.1, 0.9) for _ in range(2)],
        "r_anchors": [_anchor(rng, 2, 0.1, 0.9) for _ in range(2)],
        "reps": 1,
    }))

    ops, refs = [], {}
    for k, (name, cfg) in enumerate(configs):
        argv = ["negdep", "{config}", "--out", "{pass}/" + name + ".csv",
                "--seed", str(prog_seed + k)]
        outputs = [name + ".csv"]
        if cfg["test"] == "ci":
            outputs.append(name + ".csv.factorization.csv")
        ops.append(_cli_op("negdep-" + name, cfg, argv, outputs, group="negdep"))
        refs[name] = _sweep_refs(cfg)

    k_block = int(rng.integers(8, 25))
    t_values = [2, 3]
    ops.append({
        "name": "api-rsj31", "kind": "rsj_api", "n": 31, "k": k_block,
        "t_values": t_values, "reps": 30_000, "seed": prog_seed + len(configs),
        "outputs": ["rsj31.csv"], "group": "negdep",
    })
    vol = (k_block / 31) * (k_block / 31)
    refs["rsj31"] = [
        {"kind": "count", "law": p, "rhs": vol**t, "t": t, "oracle": p}
        for t in t_values
        for p in [ref.rsj_corner_block_prob(31, k_block, t)]
    ]

    # the exact acceptance criteria, at the package's default seed
    ops += [
        _cli_op(f"report-{cid:02d}", {"criteria": [cid]},
                ["report", "{config}", "--out", f"{{pass}}/acc{cid:02d}"],
                [f"acc{cid:02d}/acceptance.csv", f"acc{cid:02d}/acceptance.json"],
                group="acceptance", criterion=cid)
        for cid in range(1, 5)
    ]
    ops.append(_cli_op(
        "variance-lhs64",
        {"scheme": lhs, "function": {"kind": "product_coords"}, "n": 64, "d": 3,
         "reps": 2_000, "seed": prog_seed + 20},
        ["variance", "{config}", "--out", "{pass}/variance.csv"], ["variance.csv"],
        group="integrate"))
    simplex = {"n_vars": [4, 8], "xis": [0.5, 2.0]}
    ops.append({"name": "api-simplex", "kind": "simplex_api", "trials": 20_000,
                "seed": prog_seed + 21, "outputs": ["simplex.csv"], "group": "integrate",
                **simplex})
    refs["simplex"] = [ref.simplex_centroid(nv, t, xi) for nv in simplex["n_vars"]
                       for t in range(1, nv + 1) for xi in simplex["xis"]]
    return ops, refs


def _sweep_refs(cfg):
    n, test = cfg["n"], cfg["test"]
    kind = cfg["scheme"]["kind"]
    if test in ("upper", "lower"):
        if kind == "lhs":
            return _joint_rows(cfg, lambda a, t: ref.lhs_corner_prob(n, a, t))
        if kind == "gss":
            g = cfg["scheme"]["strata"]["g"]
            beta = cfg["scheme"]["beta"]
            return _joint_rows(cfg, lambda a, t: ref.gss_cells_corner_prob(beta, g, a, t))
        if kind == "mixed":
            dl = cfg["scheme"]["d_left"]
            return _joint_rows(
                cfg,
                lambda a, t: ref.lhs_corner_prob(n, a[:dl], t) * ref.lhs_corner_prob(n, a[dl:], t),
            )
    if test == "pairwise":
        exact = kind == "swap"
        law = ref.swap_pair_prob if exact else (
            lambda r1, r2: ref.distinct_strata_pair_prob(n, r1, r2))
        rows = []
        for qa in cfg["q_anchors"]:
            for ra in cfg["r_anchors"]:
                for r1, r2, rhs in (
                    (_rect_corner1(qa), _rect_corner1(ra),
                     float(np.prod(1.0 - np.asarray(qa))) * float(np.prod(1.0 - np.asarray(ra)))),
                    (_rect_corner0(qa), _rect_corner0(ra),
                     float(np.prod(qa)) * float(np.prod(ra))),
                ):
                    rows.append({"kind": "exact" if exact else "count",
                                 "law": law(r1, r2), "rhs": rhs, "oracle": None})
        return rows
    if test == "conditional":
        if cfg["i"] != 2 or cfg["d"] != 2:
            raise ValueError("the conditional reference covers i = 2, d = 2")
        a = (cfg["a_box"]["a"][0], cfg["a_box"]["b"][0])
        b = (cfg["b_box"]["a"][0], cfg["b_box"]["b"][0])
        rows = []
        for alpha in cfg["alphas"]:
            for beta in cfg["betas"]:
                cond = ref.distinct_strata_pair_prob(n, [a, (0.0, 1.0)], [b, (0.0, 1.0)])
                joint = ref.distinct_strata_pair_prob(n, [a, (alpha, 1.0)], [b, (beta, 1.0)])
                rows.append({"kind": "conditional", "law": joint / cond, "rhs": None,
                             "oracle": None})
        return rows
    if test == "ci":
        i, d = cfg["i"], cfg["d"]
        rows = []
        for q in cfg["q_values"]:
            for r in cfg["r_values"]:
                r1 = [(q, 1.0) if a == i - 1 else (0.0, 1.0) for a in range(d)]
                r2 = [(r, 1.0) if a == i - 1 else (0.0, 1.0) for a in range(d)]
                rows.append({"kind": "count", "law": ref.distinct_strata_pair_prob(n, r1, r2),
                             "rhs": (1.0 - q) * (1.0 - r), "oracle": None})
        return rows
    raise ValueError(f"no reference for {kind}/{test}")


# ---------------------------------------------------------------------------
# discrepancy-scan


def _lhs_points(rng, n, d):
    perm = np.argsort(rng.random((d, n)), axis=1)
    return ((perm + rng.random((d, n))) / n).T


def _scan(seed: int, indir: str):
    rng = np.random.default_rng([seed, 2])
    prog_seed = 1000 * (seed % 1_000_000)
    # name, point generator, n, d
    files = {
        "E4096x2": _lhs_points(rng, 4096, 2),
        "E256x3": rng.random((256, 3)),
        "E32x4": _lhs_points(rng, 32, 4),
        "C256x2": rng.random((256, 2)),
        "C1024x2": _lhs_points(rng, 1024, 2),
        "C64x3": rng.random((64, 3)),
        "W64x4": _lhs_points(rng, 64, 4),
    }
    # the text format keeps 17 significant digits: reload so that references
    # see exactly the values the program reads
    for name, pts in files.items():
        path = os.path.join(indir, name + ".txt")
        _save_points(path, pts)
        files[name] = np.loadtxt(path, skiprows=1, ndmin=2)

    deltas = {"C256x2": 0.01, "C1024x2": 0.02, "C64x3": 0.05}
    gamma = [_round(g) for g in rng.uniform(0.2, 1.0, size=4)]
    theta = [0.9, 0.99]
    bounds_n = [4096, 1024, 256]

    ops = [
        _cli_op("sample-lhs4096",
                {"scheme": {"kind": "lhs"}, "n": 4096, "d": 2, "seed": prog_seed},
                ["sample", "{config}", "--out", "{pass}/lhs4096.txt"], ["lhs4096.txt"],
                group="sample"),
        _cli_op("sample-net4096",
                {"scheme": {"kind": "net", "b": 2, "m": 12, "s": 2}, "n": 4096, "d": 2,
                 "seed": prog_seed + 1},
                ["sample", "{config}", "--out", "{pass}/net4096.txt"], ["net4096.txt"],
                group="sample"),
        _cli_op("net-check-net4096",
                {"points": "{pass}/net4096.txt", "b": 2, "m": 12, "s": 2},
                ["net-check", "{config}", "--out", "{pass}/netcheck.csv"], ["netcheck.csv"],
                group="sample"),
        _cli_op("bounds-corner-theta",
                {"formula": "corner_theta", "grid": {"n": bounds_n, "d": [2], "theta": theta}},
                ["bounds", "{config}", "--out", "{pass}/bounds.csv"], ["bounds.csv"],
                group="bounds"),
    ]
    refs = {"bounds": [ref.corner_bound_theta(n, 2, th) for n in bounds_n for th in theta],
            "files": {}}
    for name, pts in files.items():
        path = os.path.join(indir, name + ".txt")
        exact = ref.star_discrepancy(pts)
        entry = {"n": pts.shape[0], "d": pts.shape[1], "exact": exact}
        if name.startswith("E"):
            cfg = {"points": path, "exact": True, "budget": SCAN_BUDGET}
            group = "exact"
        elif name.startswith("C"):
            cfg = {"points": path, "exact": False, "delta": deltas[name], "budget": SCAN_BUDGET}
            entry["delta"] = deltas[name]
            entry["cover_lower"] = ref.cover_lower(pts, deltas[name])
            group = "cover"
        else:
            weights = {"kind": "product", "gamma": gamma}
            cfg = {"points": path, "exact": False, "weights": weights, "budget": SCAN_BUDGET}
            entry["weighted"] = ref.weighted_star_discrepancy(pts, gamma)
            group = "weighted"
        entry["group"] = group
        refs["files"][name] = entry
        ops.append(_cli_op(f"discrepancy-{group}-{name}", cfg,
                           ["discrepancy", "{config}", "--out", "{pass}/" + name + ".csv"],
                           [name + ".csv"], group=group, file=name))
    return ops, refs


_GENERATORS = {
    "dependence-sweep": _sweep,
    "discrepancy-scan": _scan,
}


def generate(workload: str, seed: int, indir: str) -> dict:
    """Write the inputs of one run into `indir` and return its plan: the
    operations (with their configs) and the references."""
    os.makedirs(indir, exist_ok=True)
    ops, refs = _GENERATORS[workload](seed, indir)
    for op in ops:
        if op.get("config") is not None:
            op["config_name"] = op["name"] + ".json"
    plan = {"workload": workload, "seed": seed, "ops": ops, "refs": refs}
    _write_json(os.path.join(indir, "plan.json"), plan)
    return plan


def config_text(op, pass_dir: str) -> str:
    """Config file content of an operation for one pass directory."""
    return json.dumps(op["config"], sort_keys=True).replace("{pass}", pass_dir)


def expand_argv(op, pass_dir: str, config_path: str) -> list:
    return [a.replace("{config}", config_path).replace("{pass}", pass_dir) for a in op["argv"]]


def heaviest_sweep_op(ops) -> dict:
    """The sweep config with the most replicated scalars (reps * n * d)."""
    cli = [op for op in ops if op["kind"] == "cli" and op["argv"][0] == "negdep"]
    return max(cli, key=lambda op: op["config"]["reps"] * op["config"]["n"] * op["config"]["d"])
