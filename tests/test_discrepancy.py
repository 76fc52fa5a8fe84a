"""Exact star discrepancy, cover brackets, weighted variant, and budgets."""

import re
import tracemalloc
from contextlib import contextmanager, nullcontext
from functools import reduce
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import negdep_qmc.discrepancy as discrepancy_module
from negdep_qmc import (
    BudgetExceededError,
    CornerBox0,
    ExplicitWeights,
    LatinHypercube,
    MonteCarlo,
    PointSet,
    ProductWeights,
    RngStream,
    ScrambledNet,
    ValidationError,
    build_delta_cover,
    contains_points,
    delta_cover_axis,
    net_points,
    sample,
    star_discrepancy_cover,
    star_discrepancy_exact,
    weighted_star_discrepancy,
)


def centered_grid(n: int) -> PointSet:
    return PointSet(((np.arange(n) + 0.5) / n).reshape(-1, 1))


# ---------------------------------------------------------------------------
# Exact values on solvable configurations


def test_centered_one_dimensional_grid():
    for n in (1, 2, 4, 8, 16, 32):
        res = star_discrepancy_exact(centered_grid(n))
        assert res.value == pytest.approx(1 / (2 * n), abs=1e-15)


def test_single_point_discrepancy():
    # One point at x: D* = max(x, 1 - x) in 1-d (open deficiency vs closed excess).
    for x in (0.1, 0.3, 0.5, 0.9):
        res = star_discrepancy_exact(PointSet(np.array([[x]])))
        assert res.value == pytest.approx(max(x, 1 - x), abs=1e-15)


def test_anchored_grid_in_two_dimensions():
    # The n x n lattice {(i/n, j/n)} (0-based) has a point at the origin;
    # closed boxes shrunk to it give excess 1/n^2... the exact value for
    # the left-anchored lattice is known to be 2/n - 1/n^2.
    n = 4
    xs = np.arange(n) / n
    pts = np.array([(a, b) for a in xs for b in xs])
    res = star_discrepancy_exact(PointSet(pts))
    assert res.value == pytest.approx(2 / n - 1 / n**2, abs=1e-12)


def test_witness_box_attains_reported_value():
    rng = RngStream(17)
    for k in range(10):
        ps = sample(MonteCarlo(), 12, 2, rng.split(k))
        res = star_discrepancy_exact(ps)
        assert res.witness is not None and res.witness_side in ("open", "closed")
        pts = ps.data
        y = np.asarray(res.witness)
        vol = float(np.prod(y))
        if res.witness_side == "open":
            frac = float(np.mean(np.all(pts < y, axis=1)))
        else:
            frac = float(np.mean(np.all(pts <= y, axis=1)))
        assert abs(frac - vol) == pytest.approx(res.value, abs=1e-12)


def test_permutation_and_row_order_invariance():
    rng = RngStream(23)
    ps = sample(MonteCarlo(), 10, 3, rng)
    base = star_discrepancy_exact(ps).value
    shuffled = PointSet(ps.data[::-1].copy())
    assert star_discrepancy_exact(shuffled).value == pytest.approx(base, abs=1e-15)
    swapped = PointSet(ps.data[:, [2, 0, 1]].copy())
    assert star_discrepancy_exact(swapped).value == pytest.approx(base, abs=1e-15)


def test_exact_dominates_every_local_discrepancy():
    rng = RngStream(31)
    ps = sample(MonteCarlo(), 9, 2, rng)
    dstar = star_discrepancy_exact(ps).value
    probe = RngStream(32).gen.random((200, 2))
    for y in probe:
        box = CornerBox0(tuple(y))
        local = abs(float(np.mean(contains_points(box, ps.data))) - box.volume())
        assert local <= dstar + 1e-12


def test_net_low_discrepancy_beats_random():
    net = net_points(2, 6, 2)  # 64 points
    rng = RngStream(41)
    rand = sample(MonteCarlo(), 64, 2, rng)
    assert star_discrepancy_exact(net).value < star_discrepancy_exact(rand).value


# ---------------------------------------------------------------------------
# Cover bracket


def test_cover_bracket_contains_exact_value():
    rng = RngStream(47)
    for k, delta in enumerate([0.3, 0.15, 0.1]):
        ps = sample(MonteCarlo(), 10 + 3 * k, 2, rng.split(k))
        lower, upper = star_discrepancy_cover(ps, delta)
        exact = star_discrepancy_exact(ps).value
        assert lower <= exact + 1e-12 <= upper + 1e-12
        assert upper == pytest.approx(lower + delta)


def test_cover_lower_bound_improves_with_delta():
    ps = sample(MonteCarlo(), 20, 2, RngStream(53))
    exact = star_discrepancy_exact(ps).value
    gaps = []
    for delta in (0.4, 0.2, 0.1):
        lower, _ = star_discrepancy_cover(ps, delta)
        gaps.append(exact - lower)
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[-1] <= gaps[0] + 1e-12


# ---------------------------------------------------------------------------
# Weighted variant


def test_weighted_reduces_to_plain_on_full_weight():
    ps = sample(MonteCarlo(), 8, 2, RngStream(59))
    # gamma = (1, 1): the full-set projection term equals plain D*, and
    # projections cannot exceed... the max includes them, so compare >=.
    w = ProductWeights((1.0, 1.0))
    plain = star_discrepancy_exact(ps).value
    weighted = weighted_star_discrepancy(ps, w)
    assert weighted >= plain - 1e-15


def test_weighted_equals_max_over_projections():
    ps = sample(MonteCarlo(), 8, 2, RngStream(61))
    w = ProductWeights((0.5, 2.0))
    d0 = star_discrepancy_exact(PointSet(ps.data[:, [0]].copy())).value
    d1 = star_discrepancy_exact(PointSet(ps.data[:, [1]].copy())).value
    d01 = star_discrepancy_exact(ps).value
    expected = max(0.5 * d0, 2.0 * d1, 1.0 * d01)
    assert weighted_star_discrepancy(ps, w) == pytest.approx(expected, abs=1e-15)


def test_explicit_weights_drive_subset_selection():
    ps = sample(MonteCarlo(), 8, 2, RngStream(67))
    table = {frozenset({0}): 3.0, frozenset({1}): 0.0, frozenset({0, 1}): 0.0}
    d0 = star_discrepancy_exact(PointSet(ps.data[:, [0]].copy())).value
    assert weighted_star_discrepancy(ps, ExplicitWeights(table)) == pytest.approx(3.0 * d0)


def test_product_weights_visit_only_their_positive_coordinates(monkeypatch):
    ps = sample(LatinHypercube(), 16, 12, RngStream(139))
    gamma = np.zeros(12)
    gamma[[3, 7]] = (0.5, 2.0)
    looked_up = []
    of = ProductWeights.of
    monkeypatch.setattr(ProductWeights, "of", lambda self, u: looked_up.append(u) or of(self, u))
    value = weighted_star_discrepancy(ps, ProductWeights(gamma))
    assert looked_up == [(3,), (7,), (3, 7)]
    monkeypatch.undo()
    assert value == weighted_star_discrepancy(PointSet(ps.data[:, [3, 7]]),
                                              ProductWeights((0.5, 2.0)))


def test_explicit_weights_must_cover_all_subsets():
    ps = sample(MonteCarlo(), 8, 2, RngStream(71))
    with pytest.raises(ValidationError):
        weighted_star_discrepancy(ps, ExplicitWeights({frozenset({0}): 1.0}))


def test_weight_of_product_and_explicit():
    w = ProductWeights((0.5, 2.0, 1.0))
    assert w.of(()) == 1.0
    assert w.of((0, 1)) == pytest.approx(1.0)
    assert w.of((2,)) == pytest.approx(1.0)
    e = ExplicitWeights({frozenset({0}): 0.25})
    assert e.of((0,)) == 0.25
    with pytest.raises(ValidationError):
        e.of((1,))


def test_negative_weights_rejected():
    with pytest.raises(ValidationError):
        ProductWeights((-0.5, 1.0))
    with pytest.raises(ValidationError):
        ExplicitWeights({frozenset({0}): -1.0})
    with pytest.raises(ValidationError):
        ProductWeights((float("nan"), 1.0))
    with pytest.raises(ValidationError):
        ExplicitWeights({frozenset({0}): float("nan")})


@pytest.mark.parametrize(
    "make",
    [
        lambda: ProductWeights((float("inf"), 1.0)),
        lambda: ExplicitWeights({frozenset({0}): float("inf")}),
    ],
    ids=["product-inf", "explicit-inf"],
)
def test_infinite_weights_rejected(make):
    # an infinite weight would make the weighted discrepancy and its bound infinite
    with pytest.raises(ValidationError, match="finite"):
        make()


def test_explicit_weights_reject_a_coordinate_above_d():
    ps = sample(MonteCarlo(), 8, 2, RngStream(73))
    table = {frozenset({0}): 1.0, frozenset({1}): 1.0, frozenset({0, 1}): 1.0}
    assert weighted_star_discrepancy(ps, ExplicitWeights(table)) >= 0.0
    with pytest.raises(ValidationError, match="above d = 2"):
        weighted_star_discrepancy(ps, ExplicitWeights({**table, frozenset({6}): 1.0}))


# ---------------------------------------------------------------------------
# Budgets


def test_exact_budget_guard_raises():
    ps = sample(MonteCarlo(), 40, 3, RngStream(73))
    with pytest.raises(BudgetExceededError):
        star_discrepancy_exact(ps, budget=1000)
    # 40 distinct coordinates plus 1.0 per axis: a padded histogram of 42^3 cells.
    star_discrepancy_exact(ps, budget=42**3)
    with pytest.raises(BudgetExceededError):
        star_discrepancy_exact(ps, budget=42**3 - 1)


def test_cover_budget_guard_raises():
    ps = sample(MonteCarlo(), 50, 2, RngStream(79))
    with pytest.raises(BudgetExceededError):
        star_discrepancy_cover(ps, 0.01, budget=10_000)
    # delta = 0.01 in 2-d: 200 cover values per axis, 201^2 cells.
    star_discrepancy_cover(ps, 0.01, budget=201**2)
    with pytest.raises(BudgetExceededError):
        star_discrepancy_cover(ps, 0.01, budget=201**2 - 1)


def test_weighted_budget_covers_all_projections(monkeypatch):
    # 8 distinct coordinates per axis: projection histograms of 10, 10 and 100 cells.
    ps = sample(MonteCarlo(), 8, 2, RngStream(83))
    for u in ([0], [1], [0, 1]):
        star_discrepancy_exact(PointSet(ps.data[:, u]), budget=100)
    w = ProductWeights((1.0, 1.0))
    assert weighted_star_discrepancy(ps, w, budget=120) >= star_discrepancy_exact(ps).value
    zero_pair = {frozenset({0}): 1.0, frozenset({1}): 1.0, frozenset({0, 1}): 0.0}
    weighted_star_discrepancy(ps, ExplicitWeights(zero_pair), budget=20)

    def no_work(*args, **kwargs):
        raise AssertionError("a projection was evaluated before the budget check")

    monkeypatch.setattr(discrepancy_module, "star_discrepancy_exact", no_work)
    with pytest.raises(BudgetExceededError):
        weighted_star_discrepancy(ps, w, budget=119)


# ---------------------------------------------------------------------------
# Brute-force references


def brute_cover_lower(ps: PointSet, delta: float) -> float:
    """Every point tested against every cover node: O(n * |grid|)."""
    grid = build_delta_cover(ps.d, delta)
    counts = np.sum(np.all(ps.data[None, :, :] < grid[:, None, :], axis=2), axis=1)
    return float(np.max(np.abs(counts / ps.n - np.prod(grid, axis=1))))


def brute_exact(ps: PointSet) -> float:
    """Max over every critical box [0, y) and [0, y] of its local discrepancy."""
    pts, n = ps.data, ps.n
    axes = [np.unique(np.append(pts[:, a], 1.0)) for a in range(ps.d)]
    nodes = np.array(list(product(*axes)))
    strict = np.sum(np.all(pts[None, :, :] < nodes[:, None, :], axis=2), axis=1)
    closed = np.sum(np.all(pts[None, :, :] <= nodes[:, None, :], axis=2), axis=1)
    vols = nodes[:, 0] * np.prod(nodes[:, 1:], axis=1)
    return float(max(np.max(vols - strict / n), np.max(closed / n - vols)))


@st.composite
def point_sets_and_deltas(draw):
    d = draw(st.integers(1, 3))
    delta = draw(st.sampled_from([0.5, 0.3, 0.1]))
    m = delta_cover_axis(d, delta).size
    coord = st.one_of(
        st.sampled_from([k / m for k in range(m)]),  # exactly on cover values
        st.sampled_from([0.0, 0.25, 0.5]),  # shared across points and axes
        st.floats(0.0, 1.0, exclude_max=True),
    )
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    return PointSet(np.array(rows)), delta


@settings(max_examples=200, deadline=None)
@given(point_sets_and_deltas())
def test_histogram_matches_brute_force(case):
    ps, delta = case
    assert star_discrepancy_cover(ps, delta)[0] == brute_cover_lower(ps, delta)
    assert star_discrepancy_exact(ps).value == brute_exact(ps)


# ---------------------------------------------------------------------------
# The slab walk against the whole histogram it replaces


def _whole_cum_hist(pts: np.ndarray, axis_values: list) -> np.ndarray:
    """The padded cumulative histogram of every grid cell at once."""
    hist = np.zeros([v.size + 1 for v in axis_values], dtype=np.int32)
    idx = tuple(np.searchsorted(v, pts[:, a], side="right") for a, v in enumerate(axis_values))
    np.add.at(hist, idx, 1)
    for a in range(hist.ndim):
        np.cumsum(hist, axis=a, out=hist)
    return hist


def whole_hist_exact(ps: PointSet):
    """(value, witness, side) from the whole histogram, read one axis-0 slab at a time."""
    pts = ps.data
    n, d = pts.shape
    cands = [np.unique(np.concatenate([pts[:, a], [1.0]])) for a in range(d)]
    hist = _whole_cum_hist(pts, cands)
    vols_rest = reduce(np.multiply, np.ix_(*cands[1:]), np.float64(1.0))
    inner_strict = (slice(0, -1),) * (d - 1)
    inner_closed = (slice(1, None),) * (d - 1)
    best, best_node, best_side = -1.0, None, None
    for i0, x0 in enumerate(cands[0]):
        strict = np.asarray(hist[i0][inner_strict], dtype=float)
        closed = np.asarray(hist[i0 + 1][inner_closed], dtype=float)
        vols = x0 * vols_rest
        for arr, side in ((vols - strict / n, "open"), (closed / n - vols, "closed")):
            flat = int(np.argmax(arr))
            val = float(np.ravel(arr)[flat])
            if val > best:
                rest_idx = np.unravel_index(flat, np.shape(arr)) if d > 1 else ()
                best, best_node, best_side = val, (i0,) + tuple(rest_idx), side
    return best, np.array([cands[a][best_node[a]] for a in range(d)]), best_side


def whole_hist_cover_lower(ps: PointSet, delta: float) -> float:
    vals = [delta_cover_axis(ps.d, delta)] * ps.d
    counts = _whole_cum_hist(ps.data, vals)[(slice(0, -1),) * ps.d]
    return float(np.max(np.abs(counts / ps.n - reduce(np.multiply, np.ix_(*vals)))))


@st.composite
def tied_point_sets_and_deltas(draw):
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    coord = st.one_of(
        st.sampled_from([k / m for k in range(m)]),  # a k/m grid, shared across points and axes
        st.floats(0.0, 1.0, exclude_max=True),
    )
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=40))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))  # repeats
    delta = draw(st.sampled_from([0.5, 0.3, 0.1] if d <= 2 else [0.5, 0.3]))
    return PointSet(np.array([rows[i] for i in picks])), delta


@settings(max_examples=200, deadline=None)
@given(tied_point_sets_and_deltas())
@example((PointSet(np.array([[0.5]])), 0.5))  # open and closed tie at one node
@example((PointSet(np.array([[0.75, 0.75], [0.0, 0.5]])), 0.3))  # closed at i0 = 0 ties open at 2
def test_slab_walk_matches_the_whole_histogram(case):
    ps, delta = case
    value, witness, side = whole_hist_exact(ps)
    res = star_discrepancy_exact(ps)
    assert res.value == value
    assert np.array_equal(res.witness, witness)
    assert res.witness_side == side
    assert star_discrepancy_cover(ps, delta)[0] == whole_hist_cover_lower(ps, delta)


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_holds_one_block_of_slabs():
    # the whole padded histogram of this set alone is 4098^2 int32 cells, 64 MiB
    ps = sample(LatinHypercube(), 4096, 2, RngStream(97))
    assert _peak_bytes(lambda: star_discrepancy_exact(ps)) <= 8 * 2**20


def _refusal(f) -> tuple[str, int]:
    """The BudgetExceededError message of f() and the peak bytes traced until it."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info:
            f()
        return str(info.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flat_axis_0():
    """Axis 0 constant: 3 * 1449^2 grid cells, in slabs of 1449^2."""
    rest = sample(LatinHypercube(), 1447, 2, RngStream(103)).data
    return np.column_stack([np.full(1447, 0.5), rest])


def test_limits_are_checked_before_anything_is_allocated():
    # 2002^3 cells; one slab of the volume products alone would be 32 MiB
    wide = sample(MonteCarlo(), 2000, 3, RngStream(101))
    message, peak = _refusal(lambda: star_discrepancy_exact(wide))
    assert "histogram cells" in message
    assert peak <= 2 * 2**20
    # axis 0 constant: 3 * 1449^2 cells fit the budget, but one slab is 2.1e6 cells. The
    # pruned search's coarse pass (about 5 MiB) keeps too many tiles, and the walk it falls
    # back to is refused before its 128 MiB block is allocated
    flat = PointSet(_flat_axis_0())
    message, peak = _refusal(lambda: star_discrepancy_exact(flat))
    assert "cells in memory" in message
    assert peak <= 8 * 2**20


def test_weighted_refusal_stops_at_the_first_projection_over_budget():
    # product weights in d = 20 name 2^20 - 1 subsets; the first, 18 cells, is over 10
    ps = sample(LatinHypercube(), 16, 20, RngStream(137))
    w = ProductWeights(1.0 / np.arange(1, 21) ** 2)
    message, peak = _refusal(lambda: weighted_star_discrepancy(ps, w, budget=10))
    assert "histogram cells" in message
    assert peak <= 2 * 2**20


def _assert_attained_at_the_witness(ps: PointSet, res):
    """The local discrepancy at the witness, on its side, is the reported value."""
    closed = res.witness_side == "closed"
    inside = np.all(ps.data <= res.witness if closed else ps.data < res.witness, axis=1)
    local = float(np.mean(inside)) - float(np.prod(res.witness))
    assert (local if closed else -local) == pytest.approx(res.value, abs=1e-12)


def test_the_whole_grid_memory_cap_waits_for_the_walk():
    # 50^5 cells: one slab of the whole grid breaks the memory cap, the pruned passes do not
    ps = sample(LatinHypercube(), 48, 5, RngStream(1))
    res = star_discrepancy_exact(ps, budget=10**13)
    assert res.cells < _grid_cells(ps) // 10
    _assert_attained_at_the_witness(ps, res)
    lower, upper = star_discrepancy_cover(ps, 0.25)
    assert lower <= res.value <= upper


def test_the_small_grid_gate_stops_growing_past_d_4():
    # 10^8 cells, the default budget: past d = 4 the gate stays at _SMALL_GRID * 4^4 cells,
    # so the grid is pruned instead of walked in blocks of one 10^7-cell slab
    ps = sample(LatinHypercube(), 8, 8, RngStream(1))
    assert _grid_cells(ps) == discrepancy_module.DEFAULT_BUDGET
    res = star_discrepancy_exact(ps)
    assert res.cells < _grid_cells(ps) // 10
    _assert_attained_at_the_witness(ps, res)


def test_the_coarse_pass_refuses_before_it_allocates():
    # 65^8 cells; the coarse grid's rows of volume products alone would be 2.5e9 doubles
    ps = sample(LatinHypercube(), 64, 8, RngStream(1))
    message, peak = _refusal(lambda: star_discrepancy_exact(ps, budget=10**15))
    assert "cells in memory" in message
    assert peak <= 2 * 2**20


@pytest.mark.parametrize(
    "make",
    [
        _flat_axis_0,
        lambda: sample(LatinHypercube(), 4096, 2, RngStream(97)).data,
        lambda: sample(LatinHypercube(), 256, 3, RngStream(5)).data,
    ],
    ids=["flat-axis-0-1447x3", "lhs-4096x2", "lhs-256x3"],
)
def test_the_coarse_pass_is_charged_for_what_it_holds(make):
    # the coarse pass's block, bound arrays and kept-tile lists: any memory cap below
    # what the pass really held must refuse it before it allocates
    pts = make()
    cands = discrepancy_module._axis_candidates(pts)
    w = max(2, round(pts.shape[0] ** 0.25))

    def coarse():
        return discrepancy_module._kept_tiles(pts, cands, w)

    held = _peak_bytes(coarse)
    with patch.object(discrepancy_module, "_NODE_CAP", held // 8 - 1):
        message, peak = _refusal(coarse)
    assert "cells in memory" in message
    assert peak <= 2**16


def _lhs_2048x3():
    return sample(LatinHypercube(), 2048, 3, RngStream(1)).data


def _outcome(res):
    return None if res is None else (res.value, tuple(res.witness), res.witness_side)


@pytest.mark.parametrize(
    "make, budget",
    [
        (_flat_axis_0, 10**8),
        (lambda: sample(LatinHypercube(), 4096, 2, RngStream(97)).data, 10**8),
        (lambda: sample(LatinHypercube(), 256, 3, RngStream(5)).data, 10**8),
        (_lhs_2048x3, 10**10),
        (lambda: sample(MonteCarlo(), 1024, 3, RngStream(1)).data, 10**10),
    ],
    ids=["flat-axis-0-1447x3", "lhs-4096x2", "lhs-256x3", "lhs-2048x3", "mc-1024x3"],
)
def test_exact_holds_no_more_than_the_memory_cap(make, budget):
    # memory caps from the coarse block's charge and what exact holds uncapped up to twice
    # the larger: the kept tiles are checked against what the block leaves of the cap, so
    # exact returns its uncapped result or refuses, and never holds more than the cap
    pts = make()
    cands = discrepancy_module._axis_candidates(pts)
    w = max(2, round(pts.shape[0] ** 0.25))
    with patch.object(discrepancy_module, "_NODE_CAP", 0):
        message, _ = _refusal(lambda: discrepancy_module._kept_tiles(pts, cands, w))
    block = int(re.search(r"needs (\d+) cells in memory", message).group(1))
    outcomes = []

    def exact():
        try:
            outcomes.append(_outcome(star_discrepancy_exact(PointSet(pts), budget)))
        except BudgetExceededError:
            outcomes.append(None)

    held = _peak_bytes(exact) // 8
    for cap in np.linspace(min(block, held), 2 * max(block, held), 3).astype(int).tolist():
        with patch.object(discrepancy_module, "_NODE_CAP", cap):
            peak = _peak_bytes(exact)
        assert outcomes[-1] is None or outcomes[-1] == outcomes[0], cap
        assert peak <= 8 * cap + 2 * 2**20, cap
    assert outcomes[-1] == outcomes[0]  # the largest cap lets the pass finish as uncapped


def test_a_large_latin_hypercube_is_pruned_within_the_memory_cap():
    # 2050^3 cells, about 8.6e9; the kept tiles are charged for what they hold, not for the
    # most the pass might keep, so the coarse pass fits the memory cap and prunes; the kept
    # lists are trimmed whenever they double, so they hold about twice what the best keeps
    ps = PointSet(_lhs_2048x3())
    found = []
    peak = _peak_bytes(lambda: found.append(star_discrepancy_exact(ps, budget=10**10)))
    assert peak <= 10 * 2**20
    res = found[0]
    assert res.cells < _grid_cells(ps) // 100
    _assert_attained_at_the_witness(ps, res)
    lower, upper = star_discrepancy_cover(ps, 0.05)
    assert lower <= res.value <= upper


@contextmanager
def _coarse_passes():
    """Record, for each coarse pass run inside, whether it returned tiles."""
    kept_tiles, passes = discrepancy_module._kept_tiles, []

    def coarse(*args):
        out = kept_tiles(*args)
        passes.append(out[0] is not None)
        return out

    with patch.object(discrepancy_module, "_kept_tiles", coarse):
        yield passes


def test_the_coarse_pass_keeps_tiles_on_monte_carlo_sets():
    # 1026^3 cells: the kept tiles stay far under their cap on every seed, so none falls
    # back to walking all 1.08e9 cells
    with _coarse_passes() as passes:
        for seed in range(1, 21):
            star_discrepancy_exact(sample(MonteCarlo(), 1024, 3, RngStream(seed)), budget=2 * 10**9)
    assert passes == [True] * 20


@pytest.mark.parametrize("dense", [False, True])
def test_a_block_and_its_temporaries_stay_within_the_memory_cap_count(dense):
    # one point per axis-0 slot adds orthants; a constant axis 0 bins a dense slab
    rest = sample(LatinHypercube(), 300, 2, RngStream(107)).data
    first = np.full(300, 0.5) if dense else sample(LatinHypercube(), 300, 1, RngStream(109)).data[:, 0]
    ps = PointSet(np.column_stack([first, rest]))
    slab = 302**2  # one slab per block
    held = discrepancy_module._BLOCK_COPIES * 2 * slab * 8
    assert _peak_bytes(lambda: star_discrepancy_exact(ps)) <= held + 2**16


# ---------------------------------------------------------------------------
# The pruned search against the whole histogram, at sizes where it engages


def _grid_cells(ps: PointSet) -> int:
    return int(np.prod([np.unique(np.append(ps.data[:, a], 1.0)).size + 1 for a in range(ps.d)]))


def _lhs_rows(rng, n: int, d: int) -> np.ndarray:
    return ((np.argsort(rng.random((d, n)), axis=1) + rng.random((d, n))) / n).T


def _assert_exact_matches_whole_histogram(ps: PointSet):
    """Exact as it runs, pruned from the smallest grid, and pruned with no fallback
    all return the whole histogram's first maximum."""
    value, witness, side = whole_hist_exact(ps)
    runs = [{}, {"_SMALL_GRID": 0}, {"_SMALL_GRID": 0, "_FINE_SHARE": 1e-9}]
    for overrides in runs:
        with patch.multiple(discrepancy_module, **overrides) if overrides else nullcontext():
            with _coarse_passes() as passes:
                res = star_discrepancy_exact(ps)
        assert res.value == value, overrides
        assert np.array_equal(res.witness, witness), overrides
        assert res.witness_side == side, overrides
    # the last run kept tiles, so the fine pass, not the walk, found the maximum
    assert passes == [True]


@st.composite
def prunable_point_sets(draw):
    # at most 2^20 grid cells, so that the reference histogram stays small
    d = draw(st.integers(2, 4))
    n = draw(st.integers(64, 400))
    kind = draw(st.sampled_from(["lhs", "mc", "grid"]))
    distinct = min(n, {2: 400, 3: 100, 4: 30}[d])
    if draw(st.booleans()):  # repeated rows
        distinct = draw(st.integers(1, distinct))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":  # k/m coordinates, shared across points and axes
        m = draw(st.integers(1, 64))
        base = rng.integers(0, m, (distinct, d)) / m
    elif kind == "lhs":
        base = _lhs_rows(rng, distinct, d)
    else:
        base = rng.random((distinct, d))
    rows = base if distinct == n else base[rng.integers(0, distinct, n)]
    return PointSet(rows)


@settings(max_examples=40, deadline=None)
@given(prunable_point_sets())
def test_pruned_search_matches_the_whole_histogram(ps):
    _assert_exact_matches_whole_histogram(ps)


@pytest.mark.parametrize(
    "make",
    [
        lambda: net_points(2, 10, 2),
        lambda: sample(ScrambledNet(2, 10, 2), 1024, 2, RngStream(113)),
        lambda: centered_grid(10_000),
    ],
    ids=["net-2-10-2", "scrambled-net-2-10-2", "centered-grid"],
)
def test_pruned_search_on_low_discrepancy_sets(make):
    ps = make()
    _assert_exact_matches_whole_histogram(ps)
    if ps.d == 1:
        assert star_discrepancy_exact(ps).value == pytest.approx(1 / (2 * ps.n), abs=1e-15)


def test_cells_counts_what_was_computed():
    small = sample(MonteCarlo(), 40, 3, RngStream(127))  # 42^3 cells: walked whole
    assert star_discrepancy_exact(small).cells == _grid_cells(small) == 42**3
    # 1026^3 cells, about 10^9: the coarse and fine passes compute under 5% of them
    wide = PointSet(_lhs_rows(np.random.default_rng(131), 1024, 3))
    res = star_discrepancy_exact(wide, budget=2 * 10**9)
    assert 0 < res.cells < 0.05 * _grid_cells(wide)


def test_weighted_rejects_a_point_set_without_coordinates():
    empty = PointSet(np.zeros((3, 0)))
    for f in (star_discrepancy_exact, lambda ps: star_discrepancy_cover(ps, 0.5)):
        with pytest.raises(ValidationError):
            f(empty)
    for w in (ProductWeights(()), ExplicitWeights({})):
        with pytest.raises(ValidationError, match="dimension"):
            weighted_star_discrepancy(empty, w)
