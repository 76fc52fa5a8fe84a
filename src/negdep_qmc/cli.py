"""Command-line interface.

One subcommand per workflow: sample | discrepancy | negdep | bounds |
variance | net-check | report. Each takes a single JSON configuration file
plus --seed / --out overrides, and writes CSV with a stable, documented
column order. Rows are dicts keyed by column name; a column a row does not
set is empty. When writing to a file, a sidecar <out>.schema.json records
the subcommand, package version, and column names. Outputs contain no
timestamps: identical configuration and seed give byte-identical files.

The whole config is checked before any work starts, against one schema per
subcommand (config key -> reader, default): unknown and missing keys are
rejected, and every value must have its JSON type (integers are JSON
integers, numbers any JSON number, flags JSON booleans, vectors lists of
numbers, tables objects). A value that decides which keys apply (`test`,
`formula`, `points`, `scramble`) picks the schema. Flags set their keys:
--seed "seed", --out "out" ("out_dir" for report), --oracle "oracle",
--expect-holds "expect_holds". Schemes, strata, boxes, weights and functions
are built from their dataclass fields, looked up by "kind". A discrepancy
config that asks for nothing (exact false, no delta, no weights) exits 2.

Exit codes: 0 success, 2 validation error (a malformed config value
included), 3 budget exceeded, 4 acceptance failure (a failed report
criterion, or a "violated" verdict under --expect-holds).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields
from itertools import product
from types import SimpleNamespace

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
    _row_format,
    load_pointset,
    net_points,
    sample,
    save_pointset,
)

# ---------------------------------------------------------------------------
# Config plumbing: one schema per subcommand, read whole


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


def _read(cfg: dict, schema: dict, where: str) -> SimpleNamespace:
    """Every key of `schema`, {key: (reader, default)}, read from `cfg` as
    reader(value, what) or given its default; an unknown key, or a missing
    one whose default is _REQUIRED, raises ValidationError."""
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise ValidationError(
            f"unknown key(s) in {where}: {', '.join(unknown)} "
            f"(known keys: {', '.join(sorted(schema))})"
        )
    return SimpleNamespace(**{
        key: reader(_need(cfg, key, where), f"'{key}' in {where}")
        if key in cfg or default is _REQUIRED else default
        for key, (reader, default) in schema.items()
    })


def _choice(cfg: dict, key: str, table, what: str, where: str) -> str:
    """cfg[key]: a string naming an entry of `table`, which picks a schema."""
    value = _typed(_need(cfg, key, where), str, f"'{key}' in {where}")
    if value not in table:
        raise ValidationError(f"unknown {what} '{value}'")
    return value


def _of(kind):
    """The reader of one `kind` value (see _typed)."""
    return lambda value, what: _typed(value, kind, what)


def _axis(kind):
    """The reader of a sweep axis: one `kind` value or a list of them."""
    return lambda value, what: _typed(value if isinstance(value, list) else [value], [kind], what)


def _bounded(kind, ok, rule: str):
    """The reader of one `kind` value for which ok(value) holds."""
    def reader(value, what: str):
        if not ok(value := _typed(value, kind, what)):
            raise ValidationError(f"{what} must be {rule}, got {value}")
        return value
    return reader


def _points(value, what: str):
    """The point set in the file that `value` names."""
    path = _typed(value, str, what)
    try:
        return load_pointset(path)
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or a malformed file
        raise ValidationError(f"cannot read points file: {exc}") from exc


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


# readers of dataclass fields, by annotation (parse_* looked up at each call, not captured)
_FIELDS = {
    "int": _of(int),
    "tuple[int, int]": _of([int]),
    "np.ndarray": _of([float]),
    "Mapping[frozenset, float]": _weight_table,
    "SchemeSpec": lambda v, what: parse_scheme(v),
    "StrataSpec": lambda v, what: _parse_kind(v, STRATA, "strata"),
}


def _parse_kind(cfg, table: dict, what: str):
    """Build table[cfg["kind"]] from cfg, reading each dataclass field by its type."""
    cfg = _typed(cfg, dict, what)
    cls = table[_choice(cfg, "kind", table, f"{what} kind", what)]
    schema = {"kind": (_of(str), _REQUIRED)}
    schema.update((f.name, (_FIELDS[f.type], _REQUIRED)) for f in fields(cls))
    values = vars(_read(cfg, schema, f"{what} '{cfg['kind']}'"))
    del values["kind"]
    return cls(**values)


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


# schema pieces that several subcommands share
_OUT = {"out": (_of(str), None)}
_SEED_VALUE = _bounded(int, lambda seed: seed >= 0, ">= 0")
_SEED = {"seed": (_SEED_VALUE, 0)}
_DRAW = {  # a point set to draw: scheme, n, d and seed
    "scheme": (lambda v, what: parse_scheme(v), _REQUIRED),
    "n": (_of(int), _REQUIRED),
    "d": (_of(int), _REQUIRED),
    **_SEED,
}
_POINTS = {"points": (_points, _REQUIRED)}  # a point-set file instead of _DRAW
_GAMMA = {"gamma": (_of(float), 1.0)}
_WEIGHTS = lambda v, what: parse_weights(v)


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
    if out is not None:
        _write_json(str(out) + ".schema.json",
                    {"subcommand": subcommand, "version": __version__, "columns": list(columns)})


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands: each takes the config, with the command-line flags set as keys


def cmd_sample(cfg: dict) -> int:
    c = _read(cfg, {**_DRAW, **_OUT}, "sample config")
    save_pointset(sample(c.scheme, c.n, c.d, RngStream(c.seed)), c.out)
    return 0


_DISC_COLUMNS = (
    "quantity", "n", "d", "value", "lower", "upper", "delta", "witness", "witness_side",
)
_DISCREPANCY = {
    "exact": (_of(bool), None),  # default: true when neither delta nor weights is given
    "delta": (_bounded(float, lambda delta: 0.0 < delta <= 1.0, "in (0, 1]"), None),
    "weights": (_WEIGHTS, None),
    "budget": (_bounded(int, lambda budget: budget >= 1, ">= 1"), DEFAULT_BUDGET),
    **_OUT,
}


def cmd_discrepancy(cfg: dict) -> int:
    where = "discrepancy config"
    source = _POINTS if "points" in cfg else _DRAW
    c = _read(cfg, {**_DISCREPANCY, **source}, where)
    if c.exact is None:
        c.exact = c.delta is None and c.weights is None
    if not c.exact and c.delta is None and c.weights is None:
        raise ValidationError(f"{where} asks for nothing: set 'exact' true, or give 'delta' "
                              "or 'weights'")
    ps = c.points if source is _POINTS else sample(c.scheme, c.n, c.d, RngStream(c.seed))
    if c.weights is not None:
        c.weights.check(ps.d)
    rows = []
    if c.exact:
        res = star_discrepancy_exact(ps, c.budget)
        rows.append({"quantity": "exact", "value": res.value,
                     "witness": _row_format(ps.d) % tuple(res.witness.tolist()),
                     "witness_side": res.witness_side})
    if c.delta is not None:
        lower, upper = star_discrepancy_cover(ps, c.delta, c.budget)
        rows.append({"quantity": "cover", "lower": lower, "upper": upper, "delta": c.delta})
    if c.weights is not None:
        value = weighted_star_discrepancy(ps, c.weights, c.budget)
        rows.append({"quantity": "weighted", "value": value})
    _write_csv(c.out, "discrepancy", _DISC_COLUMNS,
               [{**row, "n": ps.n, "d": ps.d} for row in rows])
    return 0


_NEGDEP_COLUMNS = tuple(f.name for f in fields(DependenceReport)) + ("oracle",)
_FACTOR_COLUMNS = ("scheme", "n", "d") + tuple(f.name for f in fields(FactorizationCheck))

_NEGDEP = {  # the keys of every negdep test
    **_DRAW,
    "test": (_of(str), _REQUIRED),
    "reps": (_of(int), 10_000),
    "confidence": (_bounded(float, lambda c: 0.0 < c < 1.0, "in (0, 1)"), 0.99),
    "expect_holds": (_of(bool), False),
    **_OUT,
}
_ORTHANT = {"anchors": (_of([[float]]), _REQUIRED), "t_values": (_axis(int), _REQUIRED), **_GAMMA}
_COORD = {"i": (_of(int), _REQUIRED)}  # 1-based
_BOX = (lambda v, what: None if v is None else parse_box(v), None)
_NEGDEP_TESTS = {  # the keys each test reads besides _NEGDEP
    "upper": {**_ORTHANT, "oracle": (_of(bool), False)},
    "lower": _ORTHANT,
    "pairwise": {"q_anchors": (_of([[float]]), _REQUIRED),
                 "r_anchors": (_of([[float]]), _REQUIRED)},
    "conditional": {**_COORD, "a_box": _BOX, "b_box": _BOX, "alphas": (_axis(float), _REQUIRED),
                    "betas": (_axis(float), _REQUIRED)},
    "ci": {**_COORD, "q_values": (_axis(float), _REQUIRED), "r_values": (_axis(float), _REQUIRED)},
}


def cmd_negdep(cfg: dict) -> int:
    test = _choice(cfg, "test", _NEGDEP_TESTS, "negdep test", "negdep config")
    c = _read(cfg, {**_NEGDEP, **_NEGDEP_TESTS[test]}, f"negdep '{test}' config")
    rng = RngStream(c.seed)
    rows = []  # report fields, plus "oracle" where asked for
    factor_rows = []

    if test in ("upper", "lower"):
        fn = check_upper_nd if test == "upper" else check_lower_nd
        for k, (anchor, t) in enumerate(product(c.anchors, c.t_values)):
            box = CornerBox0(anchor)
            rep = fn(c.scheme, c.n, c.d, box, t, c.reps, rng.split(k), c.gamma, c.confidence)
            oracle = c.scheme.anchored_prob(c.n, box, t) if getattr(c, "oracle", False) else None
            rows.append({**asdict(rep), "oracle": oracle})
    elif test == "pairwise":
        for k, (qa, ra) in enumerate(product(c.q_anchors, c.r_anchors)):
            pair = check_pairwise_nd(c.scheme, c.n, c.d, CornerBox1(qa), CornerBox1(ra), c.reps,
                                     rng.split(k), c.confidence)
            rows += [asdict(rep) for rep in pair]
    elif test == "conditional":
        for k, (alpha, beta) in enumerate(product(c.alphas, c.betas)):
            rep = check_conditional_nqd(c.scheme, c.n, c.d, c.i, c.a_box, c.b_box, alpha, beta,
                                        c.reps, rng.split(k), c.confidence)
            rows.append(asdict(rep))
    else:  # "ci"
        for k, (q, r) in enumerate(product(c.q_values, c.r_values)):
            res = check_ci_nqd(c.scheme, c.n, c.d, c.i, q, r, c.reps, rng.split(k), c.confidence)
            rows.append(asdict(res.primary))
            factor_rows += [{"scheme": res.primary.scheme, "n": c.n, "d": c.d, **asdict(f)}
                            for f in res.factorization]

    _write_csv(c.out, "negdep", _NEGDEP_COLUMNS, rows)
    if factor_rows:
        if c.out is None:
            sys.stdout.write("\n")
        _write_csv(None if c.out is None else c.out + ".factorization.csv",
                   "negdep-factorization", _FACTOR_COLUMNS, factor_rows)
    return 4 if c.expect_holds and any(row["verdict"] == "violated" for row in rows) else 0


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


def cmd_bounds(cfg: dict) -> int:
    formula = _choice(cfg, "formula", {"hoeffding", *_BOUND_FNS}, "bound formula",
                      "bounds config")
    free = "t" if formula == "hoeffding" else _BOUND_FNS[formula][1]
    axes = {"n": (_axis(int), _REQUIRED), free: (_axis(float), _REQUIRED)}
    if formula == "hoeffding":
        extra = _GAMMA
    else:
        axes.update(d=(_axis(int), _REQUIRED), rho=(_axis(float), (0.0,)))
        extra = {"weights": (_WEIGHTS, _REQUIRED)} if formula.startswith("weighted") else {}
    grid = (lambda v, what: _read(_typed(v, dict, what), axes, f"bounds '{formula}' grid"),
            _REQUIRED)
    c = _read(cfg, {"formula": (_of(str), _REQUIRED), "grid": grid, **extra, **_OUT},
              f"bounds '{formula}' config")
    g = c.grid
    rows = []
    if formula == "hoeffding":
        for n, t in product(g.n, g.t):
            rows.append({"formula": "hoeffding", "n": n, "t": t, "gamma": c.gamma,
                         "bound_value": hoeffding_tail(n, t, c.gamma)})
    else:
        fn = _BOUND_FNS[formula][0]
        weights = (c.weights,) if extra else ()
        for n, d, rho, x in product(g.n, g.d, g.rho, getattr(g, free)):
            res = fn(n, d, x, *weights, rho=rho)
            rows.append({"n": n, "d": d, "rho": rho, free: x, **asdict(res), **res.details})
    _write_csv(c.out, "bounds", _BOUNDS_COLUMNS, rows)
    return 0


def cmd_variance(cfg: dict) -> int:
    c = _read(cfg, {**_DRAW, "function": (lambda v, what: parse_function(v), _REQUIRED),
                    "reps": (_of(int), 1000), **_OUT}, "variance config")
    row = asdict(variance_study(c.scheme, c.function, c.n, c.d, c.reps, RngStream(c.seed)))
    _write_csv(c.out, "variance", tuple(row), [row])
    return 0


_NET = {"b": (_of(int), _REQUIRED), "m": (_of(int), _REQUIRED), "s": (_of(int), _REQUIRED),
        "t": (_of(int), 0), **_OUT}
_SCRAMBLE = {"scramble": (_of(bool), False)}


def cmd_net_check(cfg: dict) -> int:
    where = "net-check config"
    if "points" in cfg:
        c = _read(cfg, {**_NET, **_POINTS}, f"{where} with 'points'")
        source, ps = "file", c.points
    elif _typed(cfg.get("scramble", False), bool, f"'scramble' in {where}"):
        c = _read(cfg, {**_NET, **_SCRAMBLE, **_SEED}, where)
        source, ps = "scrambled", sample(ScrambledNet(c.b, c.m, c.s), c.b**c.m, c.s,
                                         RngStream(c.seed))
    else:
        c = _read(cfg, {**_NET, **_SCRAMBLE}, f"{where} without 'scramble'")
        source, ps = "raw", net_points(c.b, c.m, c.s)
    row = {"source": source, "b": c.b, "m": c.m, "s": c.s, "t": c.t, "n": ps.n,
           "is_net": is_net(ps, c.b, c.m, c.s, c.t)}
    _write_csv(c.out, "net-check", tuple(row), [row])
    return 0


def cmd_report(cfg: dict) -> int:
    c = _read(cfg, {"criteria": (_of([int]), None), "seed": (_SEED_VALUE, DEFAULT_SEED),
                    "out_dir": (_of(str), None)}, "report config")
    results = run_all(seed=c.seed, criteria=c.criteria)
    passed = all(r.passed for r in results)
    if c.out_dir is not None:
        columns = ("cid", "name", "passed", "details")  # no timings: reruns give the same bytes
        rows = [{key: getattr(r, key) for key in columns} for r in results]
        os.makedirs(c.out_dir, exist_ok=True)
        _write_csv(os.path.join(c.out_dir, "acceptance.csv"), "report", columns, rows)
        _write_json(os.path.join(c.out_dir, "acceptance.json"),
                    {"seed": c.seed, "all_passed": passed, "criteria": rows})
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"criterion {r.cid:02d} {status} {r.name}: {r.details} ({r.elapsed_s:.2f} s)"
        sys.stdout.write(line + "\n")
    return 0 if passed else 4


# ---------------------------------------------------------------------------
# Entry point

_DISPATCH = {
    "sample": (cmd_sample, "draw one replication of a scheme and write the point set"),
    "discrepancy": (cmd_discrepancy, "exact, cover-bracketed, or weighted star discrepancy"),
    "negdep": (cmd_negdep, "empirical or exact dependence tests with verdicts"),
    "bounds": (cmd_bounds, "closed-form discrepancy bound tables"),
    "variance": (cmd_variance, "estimator variance against Monte Carlo"),
    "net-check": (cmd_net_check, "verify the digital net property"),
    "report": (cmd_report, "run the acceptance suite and write a summary"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once; a flag's dest is the config key it sets, None if not given."""
    parser = argparse.ArgumentParser(
        prog="negdep-qmc",
        description="Negatively dependent sampling schemes, star discrepancy, "
        "dependence certification, and probabilistic bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _DISPATCH.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, help="set the config key seed")
        if name == "report":
            p.add_argument("--out", dest="out_dir", help="set out_dir: also write "
                           "acceptance.csv and acceptance.json into this directory")
        else:
            p.add_argument("--out", help="output file (default: stdout)")
        if name == "negdep":
            p.add_argument("--expect-holds", action="store_const", const=True,
                           help="set expect_holds: exit 4 if any verdict is 'violated'")
            p.add_argument("--oracle", action="store_const", const=True,
                           help="set oracle: add exact oracle values where closed forms exist")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command, path = args.pop("command"), args.pop("config")
    try:
        cfg = _load_config(path)
        cfg.update((key, value) for key, value in args.items() if value is not None)
        return _DISPATCH[command][0](cfg)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
