"""Command-line interface.

One subcommand per workflow: sample | discrepancy | negdep | bounds |
variance | net-check | report. Each takes a single JSON configuration file
plus --seed / --out overrides, and writes CSV with a stable, documented
column order. Rows are dicts keyed by column name; a column a row does not
set is empty. When writing to a file, a sidecar <out>.schema.json records
the subcommand, package version, and column names. Outputs contain no
timestamps: identical configuration and seed give byte-identical files.

Configs are read strictly: unknown keys are rejected, and every value must
have its JSON type (integers are JSON integers, numbers any JSON number,
flags JSON booleans, vectors lists of numbers, tables objects). Schemes,
strata, boxes, weights and functions are built from their dataclass fields,
looked up by "kind" (`samplers.SCHEMES` for schemes).

Exit codes: 0 success, 2 validation error (a malformed config value
included), 3 budget exceeded, 4 acceptance failure (a failed report
criterion, or a "violated" verdict under --expect-holds).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields
from itertools import product

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED, run_all
from .bounds import (
    boxdiff_bound,
    boxdiff_bound_theta,
    corner_bound,
    corner_bound_theta,
    hoeffding_tail,
    mixed_bound_theta,
    weighted_bound,
    weighted_bound_theta,
)
from .discrepancy import (
    DEFAULT_BUDGET,
    ExplicitWeights,
    ProductWeights,
    star_discrepancy_cover,
    star_discrepancy_exact,
    weighted_star_discrepancy,
)
from .errors import BudgetExceededError, ValidationError
from .geometry import CornerBox0, CornerBox1, Interval, is_net
from .integrate import (
    CornerIndicator,
    NegProduct,
    ProductCoords,
    SumCoords,
    variance_study,
)
from .negdep import (
    DependenceReport,
    FactorizationCheck,
    check_ci_nqd,
    check_conditional_nqd,
    check_lower_nd,
    check_pairwise_nd,
    check_upper_nd,
)
from .samplers import (
    SCHEMES,
    STRATA,
    RngStream,
    ScrambledNet,
    load_pointset,
    net_points,
    sample,
    save_pointset,
)

# ---------------------------------------------------------------------------
# Config plumbing: one typed reader


def _check_keys(cfg: dict, allowed, where: str) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown key(s) in {where}: {', '.join(unknown)} "
            f"(known keys: {', '.join(sorted(allowed))})"
        )


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ValidationError(f"missing required key '{key}' in {where}")
    return cfg[key]


_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          dict: "a JSON object"}


def _typed(value, kind, what: str):
    """Check one JSON value against `kind` and return it as Python data.

    int is a JSON integer (not a boolean), float any JSON number (returned as
    a float), bool a JSON boolean, str a string, dict an object, and [kind]
    a list of such values (returned as a tuple). Anything else raises
    ValidationError naming `what`.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValidationError(f"{what} must be a list, got {json.dumps(value)}")
        return tuple(_typed(x, kind[0], f"{what}[{k}]") for k, x in enumerate(value))
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"{what} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return float(value) if kind is float else value


_REQUIRED = object()


def _get(cfg: dict, key: str, kind, where: str, default=_REQUIRED):
    """cfg[key] read as `kind`; a missing key gives `default`, if there is one."""
    if key not in cfg and default is not _REQUIRED:
        return default
    return _typed(_need(cfg, key, where), kind, f"'{key}' in {where}")


def _grid(cfg: dict, key: str, kind, where: str, default=_REQUIRED) -> tuple:
    """A sweep axis: one `kind` value or a list of them."""
    if not isinstance(cfg.get(key, []), list):
        cfg = {key: [cfg[key]]}
    return _get(cfg, key, [kind], where, default)


def _finite(text: str) -> float:
    """A JSON real, or a NaN/Infinity constant that json accepts: finite ones pass."""
    if not math.isfinite(value := float(text)):
        raise ValidationError(f"config numbers must be finite, got {text}")
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct, at any depth."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config repeats the key '{key}'")
        obj[key] = value
    return obj


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys, parse_float=_finite,
                            parse_constant=_finite)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def _weight_table(value, what: str) -> dict:
    table = {}
    for key, val in _typed(value, dict, what).items():
        tokens = key.split(",")
        try:
            coords = frozenset(int(tok) - 1 for tok in tokens)
        except ValueError as exc:
            raise ValidationError(
                f"explicit weight key '{key}' must be comma-separated 1-based coordinates"
            ) from exc
        if any(c < 0 for c in coords):
            raise ValidationError("explicit weight coordinates are 1-based")
        if len(coords) != len(tokens):
            raise ValidationError(f"explicit weight key '{key}' repeats a coordinate")
        if coords in table:
            raise ValidationError(f"explicit weight key '{key}' names a subset already given")
        table[coords] = _typed(val, float, f"{what}['{key}']")
    return table


# readers of dataclass fields, by annotation
_FIELDS = {
    "int": lambda v, what: _typed(v, int, what),
    "tuple[int, int]": lambda v, what: _typed(v, [int], what),
    "np.ndarray": lambda v, what: _typed(v, [float], what),
    "Mapping[frozenset, float]": _weight_table,
    "SchemeSpec": lambda v, what: parse_scheme(v),
    "StrataSpec": lambda v, what: _parse_kind(v, STRATA, "strata"),
}


def _parse_kind(cfg, table: dict, what: str):
    """Build table[cfg["kind"]] from cfg, reading each dataclass field by its type."""
    cfg = _typed(cfg, dict, what)
    kind = _get(cfg, "kind", str, what)
    if kind not in table:
        raise ValidationError(f"unknown {what} kind '{kind}'")
    where = f"{what} '{kind}'"
    params = fields(table[kind])
    _check_keys(cfg, {"kind"} | {f.name for f in params}, where)
    return table[kind](
        *(_FIELDS[f.type](_need(cfg, f.name, where), f"'{f.name}' in {where}") for f in params)
    )


def parse_scheme(cfg) -> object:
    return _parse_kind(cfg, SCHEMES, "scheme")


def parse_box(cfg):
    boxes = {"corner0": CornerBox0, "corner1": CornerBox1, "interval": Interval}
    return _parse_kind(cfg, boxes, "box")


def parse_weights(cfg):
    return _parse_kind(cfg, {"product": ProductWeights, "explicit": ExplicitWeights}, "weights")


def parse_function(cfg):
    return _parse_kind(
        cfg,
        {"product_coords": ProductCoords, "sum_coords": SumCoords, "neg_product": NegProduct,
         "corner_indicator": CornerIndicator},
        "function",
    )


def _open(args, keys, where: str, out_key: str = "out"):
    """Load the config, set --seed and --out as its keys "seed" and `out_key`,
    and reject unknown keys. Returns (cfg, out).

    `keys` holds "seed" only where something is drawn, so a seed given to a
    subcommand that draws nothing is an unknown key, from the file or the flag.
    """
    cfg = _load_config(args.config)
    flags = {"seed": args.seed, out_key: args.out}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    _check_keys(cfg, set(keys) | {out_key}, where)
    return cfg, _get(cfg, out_key, str, where, None)


def _seed(cfg: dict, where: str, default: int = 0) -> int:
    seed = _get(cfg, "seed", int, where, default)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(out, subcommand: str, columns, rows) -> None:
    """Write `rows`, dicts keyed by column name, to `out` (or stdout when
    None); a column a row lacks is empty. Files get a schema sidecar."""
    with open(out, "w", newline="") if out is not None else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
    if out is None:
        return
    schema = {
        "subcommand": subcommand,
        "version": __version__,
        "columns": list(columns),
    }
    with open(str(out) + ".schema.json", "w") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def _read_points(cfg, keys, where: str):
    """Load the "points" file. Besides it, the config may set only `keys` and
    "out": the keys that describe a set to draw, and "seed", are unknown."""
    _check_keys(cfg, {"points", "out"} | keys, f"{where} with 'points'")
    path = _get(cfg, "points", str, where)
    try:
        return load_pointset(path)
    except (OSError, ValueError) as exc:  # ValueError: undecodable or non-numeric text
        raise ValidationError(f"cannot read points file: {exc}") from exc


def _sample_points(cfg, where: str):
    scheme = parse_scheme(_need(cfg, "scheme", where))
    n = _get(cfg, "n", int, where)
    d = _get(cfg, "d", int, where)
    return sample(scheme, n, d, RngStream(_seed(cfg, where)))


def cmd_sample(args) -> int:
    where = "sample config"
    cfg, out = _open(args, {"scheme", "n", "d", "seed"}, where)
    save_pointset(_sample_points(cfg, where), out)
    return 0


_DISC_COLUMNS = (
    "quantity", "n", "d", "value", "lower", "upper", "delta", "witness", "witness_side",
)
_DISC_KEYS = {"exact", "delta", "weights", "budget"}


def cmd_discrepancy(args) -> int:
    where = "discrepancy config"
    cfg, out = _open(args, _DISC_KEYS | {"points", "scheme", "n", "d", "seed"}, where)
    budget = _get(cfg, "budget", int, where, DEFAULT_BUDGET)
    if "points" in cfg:
        ps = _read_points(cfg, _DISC_KEYS, where)
    else:
        ps = _sample_points(cfg, where)
    rows = []
    if _get(cfg, "exact", bool, where, "delta" not in cfg and "weights" not in cfg):
        res = star_discrepancy_exact(ps, budget)
        rows.append({"quantity": "exact", "value": res.value,
                     "witness": " ".join(f"{x:.17g}" for x in res.witness),
                     "witness_side": res.witness_side})
    if "delta" in cfg:
        delta = _get(cfg, "delta", float, where)
        lower, upper = star_discrepancy_cover(ps, delta, budget)
        rows.append({"quantity": "cover", "lower": lower, "upper": upper, "delta": delta})
    if "weights" in cfg:
        value = weighted_star_discrepancy(ps, parse_weights(cfg["weights"]), budget)
        rows.append({"quantity": "weighted", "value": value})
    _write_csv(out, "discrepancy", _DISC_COLUMNS, [{**row, "n": ps.n, "d": ps.d} for row in rows])
    return 0


_NEGDEP_COLUMNS = tuple(f.name for f in fields(DependenceReport)) + ("oracle",)
_FACTOR_COLUMNS = ("scheme", "n", "d") + tuple(f.name for f in fields(FactorizationCheck))


# the keys each negdep test reads, besides _NEGDEP_COMMON
_NEGDEP_KEYS = {
    "upper": {"anchors", "t_values", "gamma", "oracle"},
    "lower": {"anchors", "t_values", "gamma"},
    "pairwise": {"q_anchors", "r_anchors"},
    "conditional": {"i", "a_box", "b_box", "alphas", "betas"},
    "ci": {"i", "q_values", "r_values"},
}
_NEGDEP_COMMON = {"scheme", "n", "d", "test", "reps", "confidence", "expect_holds", "seed", "out"}


def cmd_negdep(args) -> int:
    where = "negdep config"
    cfg, out = _open(args, set().union(*_NEGDEP_KEYS.values()) | _NEGDEP_COMMON, where)
    test = _get(cfg, "test", str, where)
    if test not in _NEGDEP_KEYS:
        raise ValidationError(f"unknown negdep test '{test}'")
    _check_keys(cfg, _NEGDEP_KEYS[test] | _NEGDEP_COMMON, f"negdep '{test}' config")
    if args.oracle and test != "upper":
        raise ValidationError("--oracle applies to the 'upper' test only")
    scheme = parse_scheme(_need(cfg, "scheme", where))
    n = _get(cfg, "n", int, where)
    d = _get(cfg, "d", int, where)
    reps = _get(cfg, "reps", int, where, 10_000)
    confidence = _get(cfg, "confidence", float, where, 0.99)
    expect_holds = _get(cfg, "expect_holds", bool, where, False) or args.expect_holds
    rng = RngStream(_seed(cfg, where))
    rows = []  # report fields, plus "oracle" where asked for
    factor_rows = []

    if test in ("upper", "lower"):
        fn = check_upper_nd if test == "upper" else check_lower_nd
        gamma = _get(cfg, "gamma", float, where, 1.0)
        want_oracle = _get(cfg, "oracle", bool, where, False) or args.oracle
        anchors = _get(cfg, "anchors", [[float]], where)
        for k, (anchor, t) in enumerate(product(anchors, _grid(cfg, "t_values", int, where))):
            box = CornerBox0(anchor)
            rep = fn(scheme, n, d, box, t, reps, rng.split(k), gamma, confidence)
            oracle = scheme.anchored_prob(n, box, t) if want_oracle else None
            rows.append({**asdict(rep), "oracle": oracle})
    elif test == "pairwise":
        anchors = product(_get(cfg, "q_anchors", [[float]], where),
                          _get(cfg, "r_anchors", [[float]], where))
        for k, (qa, ra) in enumerate(anchors):
            pair = check_pairwise_nd(scheme, n, d, CornerBox1(qa), CornerBox1(ra), reps,
                                     rng.split(k), confidence)
            rows += [asdict(rep) for rep in pair]
    elif test == "conditional":
        i = _get(cfg, "i", int, where)
        a_box, b_box = (
            parse_box(cfg[key]) if cfg.get(key) is not None else None for key in ("a_box", "b_box")
        )
        levels = product(_grid(cfg, "alphas", float, where), _grid(cfg, "betas", float, where))
        for k, (alpha, beta) in enumerate(levels):
            rep = check_conditional_nqd(scheme, n, d, i, a_box, b_box, alpha, beta, reps,
                                        rng.split(k), confidence)
            rows.append(asdict(rep))
    else:  # "ci"
        i = _get(cfg, "i", int, where)
        levels = product(_grid(cfg, "q_values", float, where),
                         _grid(cfg, "r_values", float, where))
        for k, (q, r) in enumerate(levels):
            res = check_ci_nqd(scheme, n, d, i, q, r, reps, rng.split(k), confidence)
            rows.append(asdict(res.primary))
            factor_rows += [{"scheme": res.primary.scheme, "n": n, "d": d, **asdict(c)}
                            for c in res.factorization]

    _write_csv(out, "negdep", _NEGDEP_COLUMNS, rows)
    if factor_rows:
        if out is None:
            sys.stdout.write("\n")
            _write_csv(None, "negdep-factorization", _FACTOR_COLUMNS, factor_rows)
        else:
            _write_csv(str(out) + ".factorization.csv", "negdep-factorization",
                       _FACTOR_COLUMNS, factor_rows)
    if expect_holds and any(row["verdict"] == "violated" for row in rows):
        return 4
    return 0


_BOUND_FNS = {
    "boxdiff": (boxdiff_bound, "c"),
    "boxdiff_theta": (boxdiff_bound_theta, "theta"),
    "mixed_theta": (mixed_bound_theta, "theta"),
    "corner": (corner_bound, "c"),
    "corner_theta": (corner_bound_theta, "theta"),
    "weighted": (weighted_bound, "c"),
    "weighted_theta": (weighted_bound_theta, "theta"),
}

_BOUNDS_COLUMNS = (
    "formula", "n", "d", "rho", "c", "theta", "t", "gamma", "bound_value",
    "success_prob", "clamped", "raw_success_prob", "xi", "eta", "c_effective",
)


def cmd_bounds(args) -> int:
    where = "bounds config"
    cfg, out = _open(args, {"formula", "grid", "weights", "gamma"}, where)
    formula = _get(cfg, "formula", str, where)
    if formula == "hoeffding":
        extra, axes = {"gamma"}, {"n", "t"}
    elif formula in _BOUND_FNS:
        fn, free = _BOUND_FNS[formula]
        weighted = formula.startswith("weighted")
        extra, axes = {"weights"} if weighted else set(), {"n", "d", "rho", free}
    else:
        raise ValidationError(f"unknown bound formula '{formula}'")
    _check_keys(cfg, {"formula", "grid", "out"} | extra, f"bounds '{formula}' config")
    grid = _get(cfg, "grid", dict, where)
    _check_keys(grid, axes, f"bounds '{formula}' grid")
    n_list = _grid(grid, "n", int, "bounds grid")
    rows = []
    if formula == "hoeffding":
        gamma = _get(cfg, "gamma", float, where, 1.0)
        for n, t in product(n_list, _grid(grid, "t", float, "bounds grid")):
            rows.append({"formula": "hoeffding", "n": n, "t": t, "gamma": gamma,
                         "bound_value": hoeffding_tail(n, t, gamma)})
    else:
        d_list = _grid(grid, "d", int, "bounds grid")
        rho_list = _grid(grid, "rho", float, "bounds grid", (0.0,))
        free_list = _grid(grid, free, float, "bounds grid")
        weights = parse_weights(_need(cfg, "weights", where)) if weighted else None
        for n, d, rho, x in product(n_list, d_list, rho_list, free_list):
            res = fn(n, d, x, weights, rho=rho) if weighted else fn(n, d, x, rho=rho)
            rows.append({"n": n, "d": d, "rho": rho, free: x, **asdict(res), **res.details})
    _write_csv(out, "bounds", _BOUNDS_COLUMNS, rows)
    return 0


def cmd_variance(args) -> int:
    where = "variance config"
    cfg, out = _open(args, {"scheme", "function", "n", "d", "reps", "seed"}, where)
    scheme = parse_scheme(_need(cfg, "scheme", where))
    f = parse_function(_need(cfg, "function", where))
    n = _get(cfg, "n", int, where)
    d = _get(cfg, "d", int, where)
    reps = _get(cfg, "reps", int, where, 1000)
    row = asdict(variance_study(scheme, f, n, d, reps, RngStream(_seed(cfg, where))))
    _write_csv(out, "variance", tuple(row), [row])
    return 0


_NET_KEYS = {"b", "m", "s", "t"}


def cmd_net_check(args) -> int:
    where = "net-check config"
    cfg, out = _open(args, _NET_KEYS | {"points", "scramble", "seed"}, where)
    b = _get(cfg, "b", int, where)
    m = _get(cfg, "m", int, where)
    s = _get(cfg, "s", int, where)
    t = _get(cfg, "t", int, where, 0)
    if "points" in cfg:
        ps = _read_points(cfg, _NET_KEYS, where)
        source = "file"
    elif _get(cfg, "scramble", bool, where, False):
        ps = sample(ScrambledNet(b, m, s), b**m, s, RngStream(_seed(cfg, where)))
        source = "scrambled"
    else:
        _check_keys(cfg, _NET_KEYS | {"scramble", "out"}, f"{where} without 'scramble'")
        ps = net_points(b, m, s)
        source = "raw"
    row = {"source": source, "b": b, "m": m, "s": s, "t": t, "n": ps.n,
           "is_net": is_net(ps, b, m, s, t)}
    _write_csv(out, "net-check", tuple(row), [row])
    return 0


def cmd_report(args) -> int:
    where = "report config"
    cfg, out_dir = _open(args, {"criteria", "seed"}, where, out_key="out_dir")
    criteria = _get(cfg, "criteria", [int], where, None)
    results = run_all(seed=_seed(cfg, where, DEFAULT_SEED), out_dir=out_dir, criteria=criteria)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"criterion {r.cid:02d} {status} {r.name}: {r.details} ({r.elapsed_s:.2f} s)"
        sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in results) else 4


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negdep-qmc",
        description="Negatively dependent sampling schemes, star discrepancy, "
        "dependence certification, and probabilistic bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "sample": "draw one replication of a scheme and write the point set",
        "discrepancy": "exact, cover-bracketed, or weighted star discrepancy",
        "negdep": "empirical or exact dependence tests with verdicts",
        "bounds": "closed-form discrepancy bound tables",
        "variance": "estimator variance against Monte Carlo",
        "net-check": "verify the digital net property",
        "report": "run the acceptance suite and write a summary",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if name == "negdep":
            p.add_argument("--expect-holds", action="store_true",
                           help="exit 4 if any verdict is 'violated'")
            p.add_argument("--oracle", action="store_true",
                           help="add exact oracle values where closed forms exist")
    return parser


_DISPATCH = {
    "sample": cmd_sample,
    "discrepancy": cmd_discrepancy,
    "negdep": cmd_negdep,
    "bounds": cmd_bounds,
    "variance": cmd_variance,
    "net-check": cmd_net_check,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
