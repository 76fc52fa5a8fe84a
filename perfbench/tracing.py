"""Spans and counters around the program's public entry points.

`Tracer.install()` replaces each entry point below by a timing wrapper, at
module-attribute level in every loaded `negdep_qmc` module that holds a
reference to it (re-exports such as `negdep_qmc.negdep.sample_batch` and
`negdep_qmc.cli.star_discrepancy_exact` included), and in module-level
dispatch tables such as `cli._DISPATCH` and `cli._BOUND_FNS`.
`uninstall()` puts every original back. Spans (name, start, end, parent,
attributes) stay in memory; `layer_metrics` turns them into per-layer
numbers. Tracing assumes one thread, which is how the benchmark runs the
program while it is installed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

import numpy as np

TESTERS = ("check_upper_nd", "check_lower_nd", "check_pairwise_nd",
           "check_conditional_nqd", "check_ci_nqd")
ORACLES = ("lhs_anchored_prob_exact", "gss_anchored_prob_exact",
           "mixed_anchored_prob_exact", "rsj_small_prob")
BOUNDS = ("hoeffding_tail", "boxdiff_bound", "boxdiff_bound_theta", "mixed_bound_theta",
          "corner_bound", "corner_eta", "corner_eta_consistent", "corner_bound_theta",
          "weighted_bound", "weighted_bound_theta")
SCHEME_KEYS = {"LatinHypercube": "lhs", "RsjLattice": "rsj", "GeneralizedStratified": "gss",
               "ScrambledNet": "net", "Mixed": "mixed", "MonteCarlo": "mc"}


def _sample_batch_attrs(a, result):
    return {"scheme": SCHEME_KEYS.get(type(a["spec"]).__name__, "other"),
            "reps": int(result.shape[0]), "rows": int(result.shape[0] * result.shape[1])}


def _sample_attrs(a, result):
    return {"rows": int(result.n)}


def _contains_attrs(a, result):
    return {"points": int(np.size(result))}


def _tester_attrs(a, result):
    reports = result.primary if hasattr(result, "primary") else result
    reports = reports if isinstance(reports, tuple) else (reports,)
    # upper/lower testers read rows 1..t; the pair testers read rows 1 and 2
    return {"methods": [r.method for r in reports], "reps": int(a["reps"]),
            "rows_used": int(a.get("t", 2))}


def _exact_attrs(a, result):
    pts = a["ps"].data
    cells = 1
    for axis in range(pts.shape[1]):
        # padded int32 histogram: one slot per distinct coordinate plus 1, plus a pad
        cells *= np.unique(np.append(pts[:, axis], 1.0)).size + 1
    return {"grid_cells": int(cells)}


def _cover_attrs(a, result):
    ps, delta = a["ps"], float(a["delta"])
    m = math.ceil(1.0 / delta) if ps.d == 1 else math.ceil(ps.d / delta)
    return {"box_point_tests": int(ps.n * m**ps.d)}


def entry_points():
    """(module, attribute, span name, attribute function) for every wrapped
    entry point, grouped by layer."""
    eps = [
        ("samplers", "sample_batch", "samplers.sample_batch", _sample_batch_attrs),
        ("samplers", "sample", "samplers.sample", _sample_attrs),
        ("samplers", "stratum_corner_overlap", "negdep.oracle.stratum_corner_overlap", None),
        ("samplers", "load_pointset", "cli.parse.load_pointset", None),
        ("samplers", "save_pointset", "cli.write.save_pointset", None),
        ("geometry", "contains_points", "geometry.contains_points", _contains_attrs),
        ("geometry", "is_net", "geometry.is_net", None),
        ("geometry", "build_delta_cover", "geometry.build_delta_cover", None),
        ("discrepancy", "star_discrepancy_exact", "discrepancy.exact", _exact_attrs),
        ("discrepancy", "star_discrepancy_cover", "discrepancy.cover", _cover_attrs),
        ("discrepancy", "weighted_star_discrepancy", "discrepancy.weighted", None),
        ("integrate", "simplex_max_check", "integrate.simplex_max_check", None),
        ("integrate", "variance_study", "integrate.variance_study", None),
        ("acceptance", "run_all", "acceptance.run_all", None),
    ]
    eps += [("negdep", t, "negdep." + t, _tester_attrs) for t in TESTERS]
    eps += [("negdep", o, "negdep.oracle." + o, None) for o in ORACLES]
    eps += [("bounds", b, "bounds." + b, None) for b in BOUNDS]
    eps += [("cli", f, "cli.parse." + f, None)
            for f in ("_load_config", "_build_parser", "parse_scheme", "parse_box",
                      "parse_weights", "parse_function")]
    eps += [("cli", "_write_csv", "cli.write._write_csv", None)]
    eps += [("cli", "cmd_" + c, "cli.cmd_" + c, None)
            for c in ("sample", "discrepancy", "negdep", "bounds", "variance", "net_check",
                      "report")]
    return eps


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []
        self._patches = []
        self.missing = set()  # entry points (or their counts) the program no longer has

    def _enter(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _exit(self, record) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        record = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(record)

    def _wrap(self, fn, name, attrs_fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(record)
            if attrs_fn is not None:
                try:
                    record[4] = attrs_fn(signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError):
                    # the entry point changed shape: keep the span, lose its counts
                    tracer.missing.add(f"counts of {name}")
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "negdep_qmc" or k.startswith("negdep_qmc.")]
        for mod_name, attr, name, attrs_fn in entry_points():
            original = getattr(sys.modules.get("negdep_qmc." + mod_name), attr, None)
            if original is None:
                self.missing.add(f"negdep_qmc.{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, attrs_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._patches.append((vars(mod), key, value))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._patches.append((value, dkey, dval))
                                value[dkey] = wrapper
                            elif isinstance(dval, tuple) and any(x is original for x in dval):
                                self._patches.append((value, dkey, dval))
                                value[dkey] = tuple(wrapper if x is original else x
                                                    for x in dval)

    def uninstall(self) -> None:
        for table, key, value in reversed(self._patches):
            table[key] = value
        self._patches = []


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def _index(spans):
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    return children


def _has_ancestor(spans, i, pred) -> bool:
    p = spans[i][3]
    while p >= 0:
        if pred(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def _outermost(spans, pred):
    """Indices of spans matching pred that have no matching ancestor, so that
    nested or recursive calls are counted once."""
    return [i for i, s in enumerate(spans) if pred(s[0]) and not _has_ancestor(spans, i, pred)]


def _dur(s) -> float:
    return s[2] - s[1]


def layer_metrics(spans) -> dict:
    """Per-layer busy times (seconds) and counts of one traced pass."""
    children = _index(spans)

    def outer(test):
        return _outermost(spans, test)

    def named(name):
        return lambda n: n == name

    def seconds(idx):
        return sum(_dur(spans[i]) for i in idx)

    def total(idx, key):
        return sum(spans[i][4].get(key, 0) for i in idx)

    out = {}
    is_batch = named("samplers.sample_batch")
    batches = outer(is_batch)
    out["samplers.sample_batch.busy_s"] = seconds(batches)
    for key in ("lhs", "rsj", "gss", "net", "mixed", "mc"):
        out["samplers.sample_batch.busy_s." + key] = seconds(
            i for i in batches if spans[i][4].get("scheme") == key)
    out["samplers.points_drawn"] = total(batches, "rows")
    samples = outer(named("samplers.sample"))
    out["samplers.sample.busy_s"] = seconds(samples)

    # testers: rows read vs drawn, replications, chunks, paths and self time
    rows_read = rows_drawn = total(samples, "rows")  # `sample` keeps every row
    replications = chunks = exact_path = empirical_path = 0
    self_s = 0.0
    for i in outer(lambda n: n.startswith("negdep.check_")):
        attrs = spans[i][4]
        draws = [k for k in children[i] if is_batch(spans[k][0])]
        exact_path += attrs.get("methods", []).count("exact")
        empirical_path += attrs.get("methods", []).count("empirical")
        if draws:
            rows_drawn += total(draws, "rows")
            rows_read += attrs.get("reps", 0) * attrs.get("rows_used", 0)
            replications += total(draws, "reps")
            chunks += len(draws)
        self_s += _dur(spans[i]) - seconds(children[i])
    out["samplers.replications"] = replications
    out["samplers.rows_read_frac"] = rows_read / rows_drawn if rows_drawn else 0.0
    out["negdep.self_s"] = self_s
    out["negdep.chunks"] = chunks
    out["negdep.path.exact"] = exact_path
    out["negdep.path.empirical"] = empirical_path
    oracles = outer(lambda n: n.startswith("negdep.oracle."))
    out["negdep.oracle.busy_s"] = seconds(oracles)
    out["negdep.oracle.calls"] = len(oracles)

    contains = outer(named("geometry.contains_points"))
    out["geometry.contains_points.busy_s"] = seconds(contains)
    out["geometry.contains_points.points"] = total(contains, "points")
    out["geometry.is_net.busy_s"] = seconds(outer(named("geometry.is_net")))
    out["geometry.build_delta_cover.busy_s"] = seconds(outer(named("geometry.build_delta_cover")))

    # exact calls made by the weighted discrepancy are its projections
    is_weighted = named("discrepancy.weighted")
    exact_all = [i for i, s in enumerate(spans) if s[0] == "discrepancy.exact"]
    in_weighted = {i for i in exact_all if _has_ancestor(spans, i, is_weighted)}
    exact_top = [i for i in outer(named("discrepancy.exact")) if i not in in_weighted]
    exact_busy = seconds(exact_top)
    out["discrepancy.exact.busy_s"] = exact_busy
    out["discrepancy.exact.calls"] = len(exact_top)
    out["discrepancy.exact.grid_cells"] = total(exact_top, "grid_cells")
    out["discrepancy.exact.cells_per_s"] = (
        out["discrepancy.exact.grid_cells"] / exact_busy if exact_busy else 0.0)
    covers = outer(named("discrepancy.cover"))
    out["discrepancy.cover.busy_s"] = seconds(covers)
    out["discrepancy.cover.box_point_tests"] = total(covers, "box_point_tests")
    out["discrepancy.weighted.busy_s"] = seconds(outer(is_weighted))
    out["discrepancy.weighted.projections"] = len(in_weighted)
    # computed, not measured: the int32 histogram of the largest exact call
    out["discrepancy.hist_bytes"] = 4 * max((spans[i][4].get("grid_cells", 0) for i in exact_all),
                                            default=0)

    for name in ("integrate.simplex_max_check", "integrate.variance_study"):
        out[name + ".busy_s"] = seconds(outer(named(name)))
    out["bounds.busy_s"] = seconds(outer(lambda n: n.startswith("bounds.")))
    out["cli.parse_s"] = seconds(outer(lambda n: n.startswith("cli.parse.")))
    out["cli.write_s"] = seconds(outer(lambda n: n.startswith("cli.write.")))
    return out
