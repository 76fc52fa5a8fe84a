"""Point-set container, RNG streams, and the distributional structure of
every sampling scheme: marginals, stratification, exchangeability,
determinism."""

import hashlib
import math
import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import negdep_qmc.samplers as samplers_module
from negdep_qmc import (
    CornerBox0,
    CornerBox1,
    FourSlot,
    GeneralizedStratified,
    LatinHypercube,
    LatticeCells,
    MinCopula,
    Mixed,
    MonteCarlo,
    PointSet,
    RngStream,
    RsjLattice,
    SchemeSpec,
    ScrambledNet,
    SimpleStratified,
    Stripes,
    SwapScheme,
    ValidationError,
    clip_convex_to_box,
    corner_cells,
    gss_anchored_prob_exact,
    is_net,
    is_prime,
    lhs_anchored_prob_exact,
    load_pointset,
    map_chunks,
    net_points,
    polygon_area,
    sample,
    sample_batch,
    save_pointset,
    stratum_corner_overlap,
    wilson_interval,
)
from negdep_qmc.samplers import (
    SCHEMES,
    _CHUNK_SCALARS,
    _KEY_BLOCK,
    _WRITE_BLOCK,
    _net_base_digits,
    _perm_prefix,
)
from conftest import traced_peak

ALL_SAMPLERS = [
    (MonteCarlo(), 8, 2),
    (SimpleStratified(), 8, 1),
    (LatinHypercube(), 8, 3),
    (RsjLattice(), 5, 2),
    (GeneralizedStratified(8, Stripes(8)), 4, 2),
    (GeneralizedStratified(5, LatticeCells((1, 2), 5)), 3, 2),
    (ScrambledNet(2, 3, 2), 8, 2),
    (ScrambledNet(3, 2, 2), 9, 2),
    (Mixed(LatinHypercube(), 2, MonteCarlo(), 1), 6, 3),
    (FourSlot(), 2, 2),
    (SwapScheme(), 2, 2),
]


# ---------------------------------------------------------------------------
# Containers and streams


def test_pointset_validates_unit_cube():
    with pytest.raises(ValidationError):
        PointSet(np.array([[0.5, 1.0]]))
    with pytest.raises(ValidationError):
        PointSet(np.array([[-0.1, 0.5]]))
    with pytest.raises(ValidationError):
        PointSet(np.array([0.1, 0.2]))  # must be 2-d


def test_pointset_save_load_roundtrip(tmp_path):
    ps = sample(MonteCarlo(), 12, 3, RngStream(1))
    path = tmp_path / "pts.txt"
    save_pointset(ps, path)
    back = load_pointset(path)
    assert back.n == ps.n and back.d == ps.d
    assert np.array_equal(back.data, ps.data)


# the extremes of [0,1) and doubles that need all 17 significant digits
_EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 - 2**-53, 0.1 + 0.2,
                float(np.nextafter(0.5, 0.0)), 0.12345678901234566]


@pytest.mark.parametrize("d", [1, 10])
def test_save_pointset_writes_each_value_as_its_17_digit_form(tmp_path, capsys, d):
    rows = _WRITE_BLOCK // d
    n = 2 * rows + 3  # two full write blocks and a partial one
    data = RngStream(d).gen.random((n, d))
    # the edge values start the file, straddle the first block boundary and end it
    for at in (0, rows * d - len(_EDGE_VALUES) // 2, n * d - len(_EDGE_VALUES)):
        data.flat[at:at + len(_EDGE_VALUES)] = _EDGE_VALUES
    expected = f"{d} {n}\n" + "".join(
        " ".join(f"{x:.17g}" for x in row) + "\n" for row in data.tolist())
    path = tmp_path / "pts.txt"
    save_pointset(PointSet(data), path)
    assert path.read_bytes() == expected.encode()
    save_pointset(PointSet(data), None)
    assert capsys.readouterr().out == expected
    assert np.array_equal(load_pointset(path).data, data)


def test_save_pointset_holds_one_block_whatever_n(tmp_path):
    peaks = []
    for blocks in (1, 8):
        ps = PointSet(RngStream(3).gen.random((blocks * _WRITE_BLOCK // 2, 2)))
        peaks.append(traced_peak(lambda: save_pointset(ps, tmp_path / "pts.txt"))[1])
    # eight blocks of text are about 5 MiB
    assert peaks[1] <= peaks[0] + 2**16 <= 3 * 2**20


def test_pointset_never_aliases_an_array_a_caller_can_write():
    data = RngStream(2).gen.random((4, 2))
    ps = PointSet(data)
    view = data.view()
    view.setflags(write=False)  # read-only, but its base is writable
    from_view = PointSet(view)
    data[:] = 0.5
    assert not np.any(ps.data == 0.5) and not np.any(from_view.data == 0.5)
    assert not ps.data.flags.writeable and not from_view.data.flags.writeable


def test_load_pointset_holds_the_points_once(tmp_path):
    data = RngStream(4).gen.random((20_000, 10))
    save_pointset(PointSet(data), tmp_path / "pts.txt")
    ps, peak = traced_peak(lambda: load_pointset(tmp_path / "pts.txt"))
    assert np.array_equal(ps.data, data)
    # the parsed array is the point set's: a second copy would make the peak 2x
    assert peak <= 1.5 * ps.data.nbytes


def test_rng_stream_split_is_deterministic_and_disjoint():
    a = RngStream(42).split(3).gen.random(5)
    b = RngStream(42).split(3).gen.random(5)
    c = RngStream(42).split(4).gen.random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-1, 32):
        assert is_prime(n) == (n in primes)


# ---------------------------------------------------------------------------
# Generic sampler contracts


@pytest.mark.parametrize("spec,n,d", ALL_SAMPLERS, ids=lambda v: str(v))
def test_sampler_shape_and_range(spec, n, d):
    batch = sample_batch(spec, n, d, 7, RngStream(9))
    assert batch.shape == (7, n, d)
    assert np.all(batch >= 0.0) and np.all(batch < 1.0)


@pytest.mark.parametrize("spec,n,d", ALL_SAMPLERS, ids=lambda v: str(v))
def test_sampler_seed_determinism(spec, n, d):
    a = sample_batch(spec, n, d, 4, RngStream(77))
    b = sample_batch(spec, n, d, 4, RngStream(77))
    c = sample_batch(spec, n, d, 4, RngStream(78))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("spec,n,d", ALL_SAMPLERS, ids=lambda v: str(v))
def test_sampler_marginals_are_uniform(spec, n, d):
    # Pool all points of many replications; each coordinate must be uniform.
    # Chi-square on 8 equal bins, 5 significance handled by a generous cut.
    reps = 2000
    batch = sample_batch(spec, n, d, reps, RngStream(37))
    for axis in range(d):
        coords = batch[:, :, axis].ravel()
        counts, _ = np.histogram(coords, bins=8, range=(0.0, 1.0))
        stat, pvalue = chisquare(counts)
        assert pvalue > 1e-6, f"axis {axis}: chi2={stat:.1f} p={pvalue:.2e}"


@pytest.mark.parametrize("spec,n,d", ALL_SAMPLERS, ids=lambda v: str(v))
def test_sampler_rows_are_exchangeable_in_distribution(spec, n, d):
    # Compare the mean of coordinate 0 for the first and last row across
    # replications; exchangeability makes the difference mean-zero.
    reps = 4000
    batch = sample_batch(spec, n, d, reps, RngStream(53))
    diff = batch[:, 0, 0] - batch[:, n - 1, 0]
    se = diff.std(ddof=1) / np.sqrt(reps)
    if se == 0.0:
        assert abs(float(diff.mean())) < 1e-12
    else:
        assert abs(float(diff.mean())) < 5 * se


def test_sample_returns_pointset_one_replication():
    ps = sample(LatinHypercube(), 16, 2, RngStream(4))
    assert isinstance(ps, PointSet) and ps.n == 16 and ps.d == 2
    batch = sample_batch(LatinHypercube(), 16, 2, 1, RngStream(4))
    assert np.array_equal(ps.data, batch[0])


# ---------------------------------------------------------------------------
# Scheme-specific structure


def test_simple_stratified_one_point_per_interval():
    batch = sample_batch(SimpleStratified(), 10, 1, 50, RngStream(2))
    strata = np.floor(batch[:, :, 0] * 10).astype(int)
    assert np.all(np.sort(strata, axis=1) == np.arange(10))


def test_simple_stratified_rejects_higher_dimension():
    with pytest.raises(ValidationError):
        sample_batch(SimpleStratified(), 4, 2, 1, RngStream(0))


def test_latin_hypercube_each_axis_is_a_permutation():
    n = 12
    batch = sample_batch(LatinHypercube(), n, 3, 40, RngStream(8))
    for axis in range(3):
        strata = np.floor(batch[:, :, axis] * n).astype(int)
        assert np.all(np.sort(strata, axis=1) == np.arange(n))


def test_gss_stripes_points_fall_in_distinct_strata():
    spec = GeneralizedStratified(8, Stripes(8))
    batch = sample_batch(spec, 5, 2, 60, RngStream(21))
    idx = spec.strata.index(batch)
    for rep in idx:
        assert len(set(rep.tolist())) == 5


def test_gss_lattice_cells_points_fall_in_distinct_strata():
    spec = GeneralizedStratified(7, LatticeCells((1, 3), 7))
    batch = sample_batch(spec, 4, 2, 60, RngStream(22))
    idx = spec.strata.index(batch)
    assert np.all((idx >= 0) & (idx < 7))
    for rep in idx:
        assert len(set(rep.tolist())) == 4


def test_gss_requires_beta_to_match_strata_count():
    with pytest.raises(ValidationError):
        sample_batch(GeneralizedStratified(9, LatticeCells((1, 2), 3)), 3, 2, 1, RngStream(0))
    with pytest.raises(ValidationError):
        sample_batch(GeneralizedStratified(4, Stripes(8)), 4, 2, 1, RngStream(0))


def test_gss_rejects_more_points_than_strata():
    with pytest.raises(ValidationError):
        sample_batch(GeneralizedStratified(4, Stripes(4)), 5, 2, 1, RngStream(0))


def test_stratum_corner_overlap_sums_to_box_volume():
    for strata, d in [(Stripes(6), 2), (LatticeCells((1, 2), 5), 2)]:
        upper = (0.55, 0.8)
        overlaps = stratum_corner_overlap(strata, upper, d)
        assert overlaps.shape == (strata.count,)
        assert np.all(overlaps >= -1e-15)
        assert float(overlaps.sum()) == pytest.approx(0.55 * 0.8, abs=1e-12)


@st.composite
def _strata(draw):
    """Stripes(k) for k <= 31, or the cells of a lattice with prime n <= 31."""
    if draw(st.booleans()):
        return Stripes(draw(st.integers(1, 31)))
    n = draw(st.sampled_from([p for p in range(2, 32) if is_prime(p)]))
    return LatticeCells((draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))), n)


@settings(max_examples=60, deadline=None)
@given(strata=_strata(), seed=st.integers(0, 2**32 - 1),
       upper=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_strata_place_index_and_overlap_agree(strata, seed, upper):
    g = np.random.default_rng(seed)
    chosen = np.argsort(g.random((3, strata.count)), axis=1)  # every stratum, three orders
    # `place` takes (rows, reps) strata and returns (d, rows, reps) points
    pts = strata.place(np.ascontiguousarray(chosen.T), 2, g)
    assert np.array_equal(strata.index(pts.transpose(2, 1, 0)), chosen)
    overlaps = stratum_corner_overlap(strata, upper, 2)
    assert overlaps.shape == (strata.count,)
    assert float(overlaps.sum()) == pytest.approx(upper[0] * upper[1], abs=1e-12)
    assert np.all(overlaps >= -1e-15) and np.all(overlaps <= 1.0 / strata.count + 1e-12)


def _overlap_over_every_unit_square(cells, upper):
    """LatticeCells.corner_overlap with the box shifted to every unit square
    that each cell's bounding box meets: the reference for the shifts it skips."""
    b1, b2 = (v / cells.n for v in cells.basis())
    y = cells._origins()
    out = np.zeros(cells.n)
    for k, corners in enumerate(np.stack([y, y + b1, y + b1 + b2, y + b2], axis=1)):
        (xmin, ymin), (xmax, ymax) = corners.min(axis=0), corners.max(axis=0)
        for sx in range(math.floor(xmin), math.ceil(xmax) + 1):
            for sy in range(math.floor(ymin), math.ceil(ymax) + 1):
                lo = np.array([sx, sy], dtype=float)
                out[k] += polygon_area(clip_convex_to_box(corners, lo, lo + upper))
    return out


def test_cell_overlap_clips_only_the_box_shifts_each_cell_meets(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return clip_convex_to_box(*args)

    monkeypatch.setattr(samplers_module, "clip_convex_to_box", counted)
    # beta = 31, g = (1, g2) for g2 = 2..30, five seeded boxes each
    uppers = np.random.default_rng(29).random((29, 5, 2))
    cases = [(LatticeCells((1, g2), 31), upper) for g2, five in zip(range(2, 31), uppers)
             for upper in five]
    for cells, upper in cases:
        assert cells.corner_overlap(upper).tobytes() == (
            _overlap_over_every_unit_square(cells, upper).tobytes())
    # the unit squares of the cells' bounding boxes take 154 clips a call
    assert calls / len(cases) <= 25
    # boxes whose edges fall on the unit square's, where a shift touches a cell at an edge
    cells = LatticeCells((1, 12), 31)
    for upper in np.array([(1.0, 1.0), (1.0, 0.5), (0.25, 1.0), (0.0, 0.3), (0.0, 0.0)]):
        assert cells.corner_overlap(upper).tobytes() == (
            _overlap_over_every_unit_square(cells, upper).tobytes())


def _cells_place_per_point(cells, chosen, g):
    """LatticeCells.place with each point's cell origin computed from its own
    index: the reference for the lookup in a table of the n origins. `chosen`
    is (rows, reps), the result (2, rows, reps); every offset along b1 is drawn,
    in the order of `chosen`'s entries, before any along b2."""
    b1, b2 = (v[:, None, None] / cells.n for v in cells.basis())
    u = g.random(chosen.shape)
    w = g.random(chosen.shape)
    origins = np.stack([(chosen * cells.g[0]) % cells.n, (chosen * cells.g[1]) % cells.n]
                       ) / cells.n
    pts = np.mod(origins + u * b1 + w * b2, 1.0)
    pts[pts >= 1.0] = 0.0
    return pts


@pytest.mark.parametrize("generator, n", [((1, 2), 5), ((2, 3), 7), ((3, 7), 13),
                                          ((1, 25), 31), ((12, 5), 31), ((40, 77), 101)])
@pytest.mark.parametrize("seed", [0, 1, 29, 2**32 - 1])
def test_lattice_cells_place_matches_the_per_point_origins(generator, n, seed):
    cells = LatticeCells(generator, n)
    pick = np.random.default_rng(seed + 1)
    # 20,000 replications of 5 rows take two blocks of offsets
    for shape in [(1, 1), (3, n), (200, min(n, 12)), (20_000, 5)]:
        # (rows, reps): the strata of `shape[0]` replications of `shape[1]` rows each
        chosen = np.argsort(pick.random((shape[0], n)), axis=1)[:, :shape[1]].T.copy()
        expected = _cells_place_per_point(cells, chosen, np.random.default_rng(seed))
        assert np.array_equal(cells.place(chosen, 2, np.random.default_rng(seed)), expected)


def test_rsj_lattice_requires_prime_point_count():
    with pytest.raises(ValidationError):
        sample_batch(RsjLattice(), 6, 2, 1, RngStream(0))
    # primes are fine, including the degenerate n = 2
    for n in (2, 3, 5, 7):
        batch = sample_batch(RsjLattice(), n, 2, 3, RngStream(n))
        assert batch.shape == (3, n, 2)


def test_rsj_lattice_one_point_per_cell_row_and_column():
    # Projected to either axis, the n points occupy the n cells [j/n,(j+1)/n).
    n = 7
    batch = sample_batch(RsjLattice(), n, 2, 50, RngStream(13))
    for axis in (0, 1):
        strata = np.floor(batch[:, :, axis] * n).astype(int)
        assert np.all(np.sort(strata, axis=1) == np.arange(n))


def test_scrambled_net_retains_net_property():
    for b, m, s in [(2, 3, 2), (3, 2, 2), (5, 2, 3)]:
        ps = sample(ScrambledNet(b, m, s), b**m, s, RngStream(b * 10 + s))
        assert is_net(ps, b, m, s)


def test_scrambled_net_requires_matching_point_count():
    with pytest.raises(ValidationError):
        sample_batch(ScrambledNet(2, 3, 2), 7, 2, 1, RngStream(0))
    with pytest.raises(ValidationError):
        sample_batch(ScrambledNet(2, 3, 2), 8, 3, 1, RngStream(0))


def _net_digits_by_repeated_products(b, m, s):
    """The base net's digits, coordinate l's matrix built as l products by the
    Pascal matrix mod b."""
    pascal = np.array([[math.comb(c, r) % b for c in range(m)] for r in range(m)], dtype=np.int64)
    i = np.arange(b**m)
    a = np.stack([(i // b**c) % b for c in range(m)], axis=1)
    digits = np.empty((b**m, s, m), dtype=np.int64)
    power = np.eye(m, dtype=np.int64)
    for l in range(s):
        digits[:, l, :] = a @ power.T % b
        power = power @ pascal % b
    return digits


def test_net_digits_match_the_pascal_matrix_powers():
    for b in (2, 3, 5, 7, 11, 13):
        for m in [m for m in range(1, 14) if b**m <= 10**4]:
            for s in range(1, b + 1):
                digits = _net_base_digits(b, m, s)
                assert digits.dtype == np.int64
                assert np.array_equal(digits, _net_digits_by_repeated_products(b, m, s)), (b, m, s)
                # each coordinate sends the base points to distinct cells: the per-cell
                # jitter of ScrambledNet.draw is independent per point
                cells = digits @ b ** np.arange(m - 1, -1, -1)
                assert np.array_equal(np.sort(cells, axis=0),
                                      np.broadcast_to(np.arange(b**m)[:, None], cells.shape))


def test_raw_net_points_are_deterministic():
    a = net_points(3, 2, 2)
    b = net_points(3, 2, 2)
    assert np.array_equal(a.data, b.data)
    assert a.n == 9 and a.d == 2


def test_mixed_blocks_follow_their_factors():
    spec = Mixed(LatinHypercube(), 2, SimpleStratified(), 1)
    batch = sample_batch(spec, 6, 3, 30, RngStream(31))
    for axis in range(3):
        strata = np.floor(batch[:, :, axis] * 6).astype(int)
        assert np.all(np.sort(strata, axis=1) == np.arange(6))


def test_mixed_requires_dimensions_to_add_up():
    with pytest.raises(ValidationError):
        sample_batch(Mixed(LatinHypercube(), 2, MonteCarlo(), 2), 4, 3, 1, RngStream(0))


def test_mixed_blocks_are_independent():
    # Correlation between a left-block and a right-block coordinate of the
    # same point vanishes across replications.
    spec = Mixed(LatinHypercube(), 1, LatinHypercube(), 1)
    reps = 4000
    batch = sample_batch(spec, 4, 2, reps, RngStream(19))
    x, y = batch[:, 0, 0], batch[:, 0, 1]
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 5 / np.sqrt(reps)


def test_min_copula_has_no_sampler():
    for rows in (None, 1):  # a whole draw, and one of point 1 alone
        with pytest.raises(ValidationError, match="no sampler"):
            sample_batch(MinCopula(), 2, 1, 1, RngStream(0), rows=rows)


def test_four_slot_pair_occupies_its_slots():
    batch = sample_batch(FourSlot(), 2, 2, 3000, RngStream(23))
    slots = np.floor(batch * 2).astype(int)  # (reps, 2, 2) of 0/1
    ids = slots[:, :, 0] + 2 * slots[:, :, 1]  # slot index 0..3 per point
    # diagonal pairs (same slot) have probability 4 * 1/16 = 1/4
    same = float(np.mean(ids[:, 0] == ids[:, 1]))
    assert abs(same - 0.25) < 0.03
    # points are uniform within slots: each slot visited ~ equally by point 0
    counts = np.bincount(ids[:, 0], minlength=4)
    assert chisquare(counts).pvalue > 1e-6


def test_four_slot_and_swap_fix_n2_d2():
    for spec in (FourSlot(), SwapScheme()):
        with pytest.raises(ValidationError):
            sample_batch(spec, 3, 2, 1, RngStream(0))
        with pytest.raises(ValidationError):
            sample_batch(spec, 2, 3, 1, RngStream(0))


def test_swap_scheme_second_point_is_coordinate_swap_of_first():
    batch = sample_batch(SwapScheme(), 2, 2, 2000, RngStream(29))
    p, q = batch[:, 0, :], batch[:, 1, :]
    assert np.array_equal(q[:, 0], p[:, 1])
    assert np.array_equal(q[:, 1], p[:, 0])
    # the generating pair (x, y) is iid uniform, so x < y half the time
    crossed = float(np.mean(p[:, 0] < p[:, 1]))
    assert abs(crossed - 0.5) < 0.05


def test_describe_scheme_labels():
    assert MonteCarlo().label() == "mc"
    assert LatinHypercube().label() == "lhs"
    assert GeneralizedStratified(4, Stripes(4)).label() == "gss(beta=4,stripes)"
    assert "mixed" in Mixed(LatinHypercube(), 1, MonteCarlo(), 1).label()
    # these strings are the CSV `scheme` column
    assert SimpleStratified().label() == "sss"
    assert RsjLattice().label() == "rsj"
    assert (
        GeneralizedStratified(31, LatticeCells((1, 5), 31)).label()
        == "gss(beta=31,cells(g=(1, 5),n=31))"
    )
    assert ScrambledNet(5, 2, 2).label() == "net(b=5,m=2,s=2)"
    assert Mixed(LatinHypercube(), 2, LatinHypercube(), 1).label() == "mixed(lhs|2+lhs|1)"
    assert MinCopula().label() == "mincopula"
    assert FourSlot().label() == "fourslot"
    assert SwapScheme().label() == "swap"


def test_lattice_cells_need_a_two_entry_generator():
    spec = GeneralizedStratified(31, LatticeCells((1, 2, 3), 31))
    with pytest.raises(ValidationError, match="two entries"):
        sample_batch(spec, 5, 2, 1, RngStream(0))


def test_validation_rejects_nonpositive_sizes():
    with pytest.raises(ValidationError):
        sample_batch(MonteCarlo(), 0, 2, 1, RngStream(0))
    with pytest.raises(ValidationError):
        sample_batch(MonteCarlo(), 4, 0, 1, RngStream(0))
    with pytest.raises(ValidationError):
        sample_batch(MonteCarlo(), 4, 2, 0, RngStream(0))


# ---------------------------------------------------------------------------
# Prefix draws

# Bonferroni family error rate of each statistical test below
FAMILY_ALPHA = 1e-6


@pytest.mark.parametrize("n, t, reps", [(5, 2, 60_000), (5, 3, 60_000), (8, 5, 60_000),
                                        (16, 3, 60_000), (10, 5, 600_000), (37, 3, 600_000)],
                         ids=["sequential", "argsort", "sorted-keys", "table-rows-squared-at-most-n",
                              "sorted-keys-past-the-table", "by-entry-past-the-table"])
def test_perm_prefix_is_uniform_over_ordered_tuples(n, t, reps):
    # a table of at most 2^17 entries serves (5, 2), (5, 3), (8, 5) and (16, 3), whose
    # t^2 <= n drew one entry at a time before; past it, (10, 5) sorts 10 keys, and
    # (37, 3), with t^2 <= n, draws one entry at a time
    heads = _perm_prefix(np.random.default_rng(4001), reps, n, t).T
    assert heads.shape == (reps, t)
    assert np.all((heads >= 0) & (heads < n))
    assert np.all(np.diff(np.sort(heads, axis=1), axis=1) > 0)  # distinct within a row
    codes = heads @ n ** np.arange(t)
    tuples = [sum(v * n**k for k, v in enumerate(p)) for p in permutations(range(n), t)]
    counts = np.bincount(codes, minlength=n**t)[tuples]
    assert counts.sum() == reps  # every draw is an ordered tuple of distinct values
    assert chisquare(counts).pvalue > FAMILY_ALPHA / 2


def test_perm_prefix_draws_each_entry_into_its_column():
    # one row: the result and one block of int64 integers, no second copy
    heads, peak = traced_peak(lambda: _perm_prefix(np.random.default_rng(83), 100_000, 101, 1))
    assert heads.shape == (1, 100_000)
    assert peak <= heads.nbytes + 8 * _KEY_BLOCK + 16 * 2**10


def _reads_a_table(n, rows):
    """Whether `_perm_prefix` builds or reads a table for this draw."""
    samplers_module._perm_table.cache_clear()
    _perm_prefix(np.random.default_rng(0), 3, n, rows)
    return samplers_module._perm_table.cache_info().currsize == 1


def test_perm_table_lists_every_ordered_prefix_in_itertools_order():
    # every table of at most 2^17 entries up to n = 8, and the largest n at rows 2 and 3;
    # a draw reads each of them but the one-row tables, as it draws one row directly
    cases = [(n, rows) for n in range(1, 9) for rows in range(1, n + 1)
             if math.perm(n, rows) * rows <= 2**17] + [(256, 2), (31, 3), (16, 3), (36, 3)]
    for n, rows in cases:
        table = samplers_module._perm_table(n, rows)
        assert table.dtype == np.int32 and not table.flags.writeable, (n, rows)
        assert table.tolist() == [list(p) for p in permutations(range(n), rows)], (n, rows)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
        assert _reads_a_table(n, rows) == (rows > 1), (n, rows)
    # 174,720 entries at (16, 4) and 8! * 8 for the whole permutations of 8: past 2^17, as
    # are (257, 2) and (37, 3); one row is drawn directly, whatever n is
    for n, rows in [(16, 4), (8, 8), (257, 2), (37, 3), (31, 1), (101, 1)]:
        assert not _reads_a_table(n, rows), (n, rows)


class _CountingGenerator:
    """`integers(low, high, size)` returns low, low + 1, ..., high - 1; nothing else is drawn."""

    def integers(self, low, high, size):
        assert size == (high - low,)
        return np.arange(low, high)


# n = 8 at rows 4 has 1680 prefixes, a table of 6720 entries. One row is drawn directly:
# its table would be the identity, so the counting draw lists 0..n-1 in order all the same.
# `whole` marks the draws a scheme makes of its whole point set; `_perm_prefix` works out
# from n and rows alone whether to sort, so it reads the same table either way.
@pytest.mark.parametrize("n, rows, whole", [(1, 1, True), (2, 2, True), (5, 5, True),
                                            (6, 3, False), (7, 7, True), (8, 4, False),
                                            (31, 1, True)])
def test_perm_prefix_reads_the_table_at_the_drawn_index(n, rows, whole):
    samplers_module._perm_table.cache_clear()
    heads = _perm_prefix(_CountingGenerator(), math.perm(n, rows), n, rows)
    assert heads.dtype == np.int32 and heads.shape == (rows, math.perm(n, rows))
    assert heads.T.tolist() == [list(p) for p in permutations(range(n), rows)]
    assert samplers_module._perm_table.cache_info().currsize == (rows > 1)


def test_table_draws_hit_every_permutation_of_5_uniformly():
    reps, count = 10**6, math.factorial(5)
    heads = _perm_prefix(np.random.default_rng(4003), reps, 5, 5).T
    code = 5 ** np.arange(5)
    hits = np.bincount(heads @ code, minlength=5**5)[np.array(list(permutations(range(5)))) @ code]
    assert hits.sum() == reps  # every row is a permutation
    # each count's Wilson interval, at 99.9% over all 120 together, holds 1/120
    for k in hits.tolist():
        lo, hi = wilson_interval(k, reps, 1 - 1e-3 / count)
        assert lo <= 1 / count <= hi, k


PREFIX_SCHEMES = [
    (LatinHypercube(), 16, 3),
    (RsjLattice(), 11, 2),
    (GeneralizedStratified(31, Stripes(31)), 12, 2),
    (GeneralizedStratified(31, LatticeCells((1, 12), 31)), 12, 2),
    (MonteCarlo(), 9, 2),
    (Mixed(LatinHypercube(), 2, RsjLattice(), 1), 7, 3),
    (SimpleStratified(), 10, 1),
]
FULL_SCHEMES = [
    (ScrambledNet(3, 2, 2), 9, 2),
    (Mixed(LatinHypercube(), 1, ScrambledNet(3, 2, 2), 2), 9, 3),
    (FourSlot(), 2, 2),
    (SwapScheme(), 2, 2),
]


@pytest.mark.parametrize("spec, n, d", PREFIX_SCHEMES + FULL_SCHEMES,
                         ids=lambda v: v.label() if hasattr(v, "kind") else None)
def test_sample_batch_rows_shape_contract(spec, n, d):
    full = spec in [s for s, _, _ in FULL_SCHEMES]
    for rows in range(1, n):
        batch = sample_batch(spec, n, d, 6, RngStream(61), rows=rows)
        assert batch.shape == (6, n if full else rows, d)
        assert np.all((batch >= 0.0) & (batch < 1.0))
    with pytest.raises(ValidationError, match="rows"):
        sample_batch(spec, n, d, 6, RngStream(61), rows=0)


@pytest.mark.parametrize("spec, n, d", ALL_SAMPLERS + PREFIX_SCHEMES + FULL_SCHEMES,
                         ids=lambda v: v.label() if hasattr(v, "kind") else None)
def test_sample_batch_whole_rows_is_the_batch_stream(spec, n, d):
    reference = spec.draw(n, d, n, 5, RngStream(67)).transpose(2, 1, 0)
    for rows in (None, n, n + 3):
        assert np.array_equal(sample_batch(spec, n, d, 5, RngStream(67), rows=rows), reference)


# sha256 prefixes of the bytes of sample_batch(spec, n, d, 5, RngStream(67), rows), recorded
# when whole and prefix draws were two methods per scheme: (spec, n, d, {rows: digest}).
# Every net (its cell maps) was recorded again when small permutations came to be read
# from a table. Every draw of mc, sss, lhs, gss, rsj and mixed was recorded again when the
# prefix schemes came to draw in (d, rows, reps) order; the net's streams did not move then.
# The net and the mixed scheme with a net factor were recorded again when the net came to
# draw its jitter per cell, as (cell + u) / n, and its row order per block of replications.
# Whole gss at beta = 31 reads a table at n = 3, draws one stratum at a time at n = 5
# (recorded again when whole draws came to sort only at n^2 > beta) and sorts 31 keys at
# n = 12; the net's cells are integer digit sums, exact whatever order a BLAS adds them in.
STREAM_PINS = [
    (MonteCarlo(), 9, 2, {None: "6de82b816ad0852b", 3: "c6f3c8f0a08788a2"}),
    (SimpleStratified(), 10, 1, {None: "0d22fa668e3c59fe", 3: "2eb47ceab6a810c9"}),
    (SimpleStratified(), 1, 1, {None: "d41700c29b24e992"}),
    (GeneralizedStratified(31, Stripes(31)), 12, 2,
     {None: "acac26c5a9225425", 2: "aaf91f4f0d9e19e2", 6: "84dd567e4bc7a131"}),
    (GeneralizedStratified(31, LatticeCells((1, 12), 31)), 12, 2,
     {None: "8408c39d2f2a5f3f", 3: "7cffb5378021be07"}),
    (GeneralizedStratified(31, Stripes(31)), 3, 2,
     {None: "a3d256f41123d6e2", 2: "aaf91f4f0d9e19e2"}),
    (GeneralizedStratified(31, LatticeCells((1, 12), 31)), 5, 2,
     {None: "ade3789cf46411da", 2: "7b83d1777347ab3c"}),
    (GeneralizedStratified(5, Stripes(5)), 2, 3, {None: "6c2a7611e24f5a8e", 1: "e7af1c2ebdc6e7c8"}),
    (RsjLattice(), 11, 2, {None: "05b93c27b020483e", 3: "f503e505a76ab9cb"}),
    (RsjLattice(), 2, 3, {None: "9b75df12fb4e85c9", 1: "39b465b822cd715d"}),
    (LatinHypercube(), 16, 3,
     {None: "1d88fdac018e898f", 3: "78693d781fabcb48", 5: "151a89a955137354"}),
    (LatinHypercube(), 1, 2, {None: "7903654db39955db"}),
    (ScrambledNet(2, 3, 2), 8, 2, {None: "3532d80fdae644fb", 2: "3532d80fdae644fb"}),
    (Mixed(LatinHypercube(), 2, RsjLattice(), 1), 7, 3,
     {None: "3a0c58e392bc0fb9", 2: "f1a2af457673f50e"}),
    (Mixed(LatinHypercube(), 1, ScrambledNet(2, 3, 2), 2), 8, 3,
     {None: "e8754d3a448a7bc0", 2: "e8754d3a448a7bc0"}),
    (FourSlot(), 2, 2, {None: "19bc1816a74993b4", 1: "19bc1816a74993b4"}),
    (SwapScheme(), 2, 2, {None: "7b6b95677f00643b", 1: "7b6b95677f00643b"}),
]


def test_stream_pins_cover_every_scheme_kind():
    # the min-copula has no sampler (test_min_copula_has_no_sampler)
    assert {spec.kind for spec, *_ in STREAM_PINS} | {"mincopula"} == set(SCHEMES)


# every scheme draws a (d, rows, reps) buffer: each coordinate of each row is one
# contiguous run over the replications, which the event counts read
@pytest.mark.parametrize("spec, n, d", PREFIX_SCHEMES + [
    (Mixed(GeneralizedStratified(31, Stripes(31)), 2, MonteCarlo(), 1), 12, 3),
    (Mixed(SimpleStratified(), 1, GeneralizedStratified(31, LatticeCells((1, 12), 31)), 2), 12, 3),
    (ScrambledNet(5, 2, 2), 25, 2),
    (Mixed(LatinHypercube(), 1, ScrambledNet(2, 3, 2), 2), 8, 3),
], ids=lambda v: v.label() if hasattr(v, "kind") else None)
def test_prefix_draws_are_contiguous_over_the_replications(spec, n, d):
    for rows in (2, 3, None):
        batch = sample_batch(spec, n, d, 6, RngStream(97), rows)
        for j in range(batch.shape[1]):
            for a in range(d):
                assert batch[:, j, a].strides == (8,), (rows, j, a)


@pytest.mark.parametrize("spec, n, d, pins", STREAM_PINS,
                         ids=lambda v: v.label() if hasattr(v, "kind") else None)
def test_whole_and_prefix_draws_are_pinned(spec, n, d, pins):
    for rows, digest in pins.items():
        batch = sample_batch(spec, n, d, 5, RngStream(67), rows=rows)
        assert batch.shape == (5, spec.prefix_rows(n, rows or n), d)
        assert hashlib.sha256(batch.tobytes()).hexdigest()[:16] == digest, rows


# sha256 prefixes of the bytes of sample_batch(spec, n, d, reps, RngStream(67), rows), recorded
# when whole permutations were sorted in one call: whole gss at beta = 31 sorted 5,000
# permutations of 31 keys, so its draw spanned more than one block of 2^16 keys. lhs at n = 6
# and rows = 3 sorted 12,000 permutations of 6 keys; it then drew 12,000 indices into the
# table of the 120 ordered 3-prefixes, and was recorded again. All three were recorded again
# when the prefix schemes came to draw in (d, rows, reps) order, and whole gss at n = 3 to
# read the table of 26,970 ordered 3-prefixes of 31 strata. The n = 8 rows were added then:
# whole gss at n = 8 sorts 31 keys per permutation, over three blocks, and the lattice
# cells of 10,000 replications draw their offsets in two: (spec, n, d, reps, rows, digest).
MULTI_BLOCK_PINS = [
    (LatinHypercube(), 6, 2, 6_000, 3, "68aa4b21646327b2"),
    (GeneralizedStratified(31, Stripes(31)), 3, 2, 5_000, None, "83d8eb10e6bf742a"),
    (GeneralizedStratified(31, LatticeCells((1, 12), 31)), 3, 2, 5_000, None, "b600bdb059a153e5"),
    (GeneralizedStratified(31, Stripes(31)), 8, 2, 5_000, None, "7654c6796139ac01"),
    (GeneralizedStratified(31, LatticeCells((1, 12), 31)), 8, 2, 10_000, None, "ede3735b0b4d4a3a"),
]


@pytest.mark.parametrize("spec, n, d, reps, rows, digest", MULTI_BLOCK_PINS,
                         ids=lambda v: v.label() if hasattr(v, "kind") else None)
def test_whole_permutation_draws_over_several_key_blocks_are_pinned(spec, n, d, reps, rows,
                                                                    digest):
    batch = sample_batch(spec, n, d, reps, RngStream(67), rows)
    assert hashlib.sha256(batch.tobytes()).hexdigest()[:16] == digest


def _draw(spec, n, d):
    return lambda: sample_batch(spec, n, d, 1, RngStream(0))


SAMPLER_REFUSALS = [
    pytest.param(_draw(GeneralizedStratified(0, Stripes(0)), 1, 1), "stripe count must be >= 1",
                 id="stripes-none"),
    pytest.param(_draw(GeneralizedStratified(5, LatticeCells((1, 2), 5)), 2, 3), "2-d only",
                 id="cells-d-3"),
    pytest.param(_draw(GeneralizedStratified(6, LatticeCells((1, 5), 6)), 2, 2),
                 "count n must be prime", id="cells-n-6"),
    pytest.param(_draw(GeneralizedStratified(5, LatticeCells((1, 7), 5)), 2, 2),
                 "must lie in [1, n-1]", id="cells-g-above-n"),
    pytest.param(lambda: stratum_corner_overlap(Stripes(3), (0.5, 0.5), 3),
                 "corner box dimension mismatch", id="overlap-dimension"),
    pytest.param(lambda: gss_anchored_prob_exact(5, Stripes(4), CornerBox0((0.5,)), 2, 1),
                 "beta must equal the number of strata", id="gss-law-beta"),
    pytest.param(lambda: gss_anchored_prob_exact(5, Stripes(5), CornerBox0((0.5,)), 2, 3),
                 "need 1 <= t <= n <= beta", id="gss-law-t-above-n"),
    pytest.param(lambda: gss_anchored_prob_exact(5, Stripes(5), CornerBox1((0.5,)), 2, 1),
                 "origin-anchored boxes only", id="gss-law-upper-box"),
    pytest.param(lambda: corner_cells(5, (6, 1)), "cell counts must lie in [0, n]",
                 id="corner-cells-above-n"),
    pytest.param(lambda: lhs_anchored_prob_exact(5, (0.5,), 0), "need 1 <= t <= n",
                 id="lhs-law-t-0"),
    pytest.param(_draw(ScrambledNet(4, 2, 2), 16, 2), "net base must be prime", id="net-b-4"),
    pytest.param(_draw(ScrambledNet(2, 2, 3), 4, 3), "1 <= s <= b", id="net-s-above-b"),
    pytest.param(_draw(ScrambledNet(2, 0, 1), 1, 1), "depth m must be >= 1", id="net-m-0"),
    pytest.param(_draw(Mixed(LatinHypercube(), 0, LatinHypercube(), 2), 4, 2),
                 "dimension >= 1", id="mixed-left-d-0"),
    pytest.param(_draw("lhs", 4, 2), "unknown scheme: str", id="scheme-not-a-spec"),
    pytest.param(lambda: map_chunks(LatinHypercube(), 4, 2, 0, RngStream(0), len),
                 "at least one replication", id="map-chunks-no-reps"),
]


@pytest.mark.parametrize("call, message", SAMPLER_REFUSALS)
def test_sampler_refusals(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_map_chunks_sizes_chunks_by_the_rows_drawn():
    def shape(batch):
        return batch.shape

    # lhs draws points 1..2 alone, so 10^5 replications fit one chunk
    assert map_chunks(LatinHypercube(), 4096, 2, 100_000, RngStream(71), shape, rows=2) == [
        (100_000, 2, 2)
    ]
    # the net always draws all 4096 rows: chunks stay near 4e6 scalars
    shapes = map_chunks(ScrambledNet(2, 12, 2), 4096, 2, 1_000, RngStream(71), shape, rows=2)
    assert sum(s[0] for s in shapes) == 1_000
    assert all(s[1] == 4096 and s[0] * s[1] * s[2] <= 4_000_000 for s in shapes)


def _uniform_perms(g, reps, n):
    """(reps, n) uniform permutations of 0..n-1: while n <= 7, each one index into the
    list of all n! of them in itertools order, else by sorting n uniform keys."""
    if n <= 7:
        perms = np.array(list(permutations(range(n))))
        return perms[g.integers(0, len(perms), reps)]
    return np.argsort(g.random((reps, n)), axis=1)


def _net_batch_loop(spec, n, reps, rng):
    """ScrambledNet.draw as one permutation draw per digit prefix, in ascending
    prefix order, and one row order per block of replications: the reference
    for the vectorized sampler."""
    b, m, s = spec.b, spec.m, spec.s
    g = rng.gen
    base = _net_base_digits(b, m, s)
    place = b ** np.arange(m - 1, -1, -1)
    jitter = g.random((s, n, reps))  # indexed by the cell each base point lies in
    out = np.empty((reps, n, s))
    rows = np.arange(reps)[:, None]
    for l in range(s):
        digits = np.broadcast_to(base[:, l, :], (reps, n, m)).copy()
        prefix = np.zeros(n, dtype=np.int64)
        for r in range(m):
            for pid in np.unique(prefix):
                members = np.nonzero(prefix == pid)[0]
                perms = _uniform_perms(g, reps, b)
                digits[:, members, r] = perms[rows, base[members, l, r][None, :]]
            prefix = prefix * b + base[:, l, r]
        out[:, :, l] = (digits @ place + jitter[l, base[:, l, :] @ place].T) / n
    width = max(1, 2**16 // n)
    rp = np.concatenate([_uniform_perms(g, min(width, reps - lo), n)
                         for lo in range(0, reps, width)])
    return np.take_along_axis(out, rp[:, :, None], axis=1)


# at 100 replications the last scrambling level of (2, 10, 2) holds 102,400 digits and
# that of (2, 12, 2) 409,600, so the cell map draws them in several blocks of 2^16; base
# 11 takes the sorted-keys path, for the cell map and the row order alike
@pytest.mark.parametrize("b, m, s", [(2, 1, 1), (2, 3, 1), (2, 5, 2), (3, 2, 2), (3, 3, 3),
                                     (5, 2, 2), (5, 2, 5), (2, 12, 2), (2, 10, 2), (11, 1, 2)])
@pytest.mark.parametrize("reps", [1, 7, 100])
def test_net_scrambling_matches_the_per_prefix_loop(b, m, s, reps):
    spec = ScrambledNet(b, m, s)
    expected = _net_batch_loop(spec, b**m, reps, RngStream(73))
    assert np.array_equal(sample_batch(spec, b**m, s, reps, RngStream(73)), expected)


# Whole and prefix draws of every samplable scheme, each of a few MiB or more:
# (spec, n, d, reps, rows), rows None for a whole draw.
DRAW_MEMORY = [
    pytest.param(MonteCarlo(), 8, 2, 100_000, None, id="mc"),
    pytest.param(MonteCarlo(), 8, 2, 100_000, 3, id="mc-prefix"),
    pytest.param(LatinHypercube(), 6, 2, 100_000, None, id="lhs"),
    # rows^2 > n: one index a replication into the table of the 120 ordered prefixes
    pytest.param(LatinHypercube(), 6, 2, 100_000, 3, id="lhs-prefix-sorted"),
    # rows^2 <= n, past the table's 2^17 entries: prefixes are drawn one entry at a time
    pytest.param(LatinHypercube(), 256, 2, 100_000, 3, id="lhs-prefix-by-entry"),
    # rows = 2: one index a replication into the table of 65,280 ordered prefixes (510 KiB)
    pytest.param(LatinHypercube(), 256, 2, 100_000, 2, id="lhs-prefix-table"),
    pytest.param(SimpleStratified(), 16, 1, 100_000, None, id="sss"),
    pytest.param(SimpleStratified(), 16, 1, 100_000, 4, id="sss-prefix"),
    pytest.param(GeneralizedStratified(31, Stripes(31)), 3, 2, 100_000, None, id="gss-stripes"),
    pytest.param(GeneralizedStratified(31, Stripes(31)), 12, 2, 100_000, 2,
                 id="gss-stripes-prefix"),
    pytest.param(GeneralizedStratified(31, LatticeCells((1, 12), 31)), 3, 2, 100_000, None,
                 id="gss-cells"),
    pytest.param(GeneralizedStratified(31, LatticeCells((1, 12), 31)), 12, 2, 100_000, 2,
                 id="gss-cells-prefix"),
    # rows = 3: the table of the 26,970 ordered 3-prefixes of 31 strata (316 KiB)
    pytest.param(GeneralizedStratified(31, LatticeCells((1, 12), 31)), 12, 2, 100_000, 3,
                 id="gss-cells-prefix-table"),
    pytest.param(RsjLattice(), 17, 2, 50_000, None, id="rsj"),
    pytest.param(RsjLattice(), 101, 2, 100_000, 2, id="rsj-prefix"),
    # one row: the generators and shifts are as large as the result
    pytest.param(RsjLattice(), 101, 2, 100_000, 1, id="rsj-prefix-1"),
    pytest.param(ScrambledNet(5, 2, 2), 25, 2, 20_000, None, id="net25-20000-reps"),
    pytest.param(ScrambledNet(2, 12, 2), 4096, 2, _CHUNK_SCALARS // (2**12 * 2), None,
                 id="net4096-one-chunk"),
    # one base-2 coordinate: the cell map is half the result
    pytest.param(ScrambledNet(2, 10, 1), 1024, 1, 2_000, None, id="net1024-one-coordinate"),
    # ten coordinates: one cell map alive at a time, 1/20 of the result
    pytest.param(ScrambledNet(11, 2, 10), 121, 10, 2_000, None, id="net121-ten-coordinates"),
    pytest.param(Mixed(LatinHypercube(), 2, LatinHypercube(), 1), 6, 3, 100_000, None,
                 id="mixed-lhs-lhs"),
    pytest.param(Mixed(LatinHypercube(), 2, LatinHypercube(), 1), 6, 3, 100_000, 3,
                 id="mixed-lhs-lhs-prefix"),
    # the net draws whole sets, so a mixed draw with a net factor is always whole
    pytest.param(Mixed(LatinHypercube(), 1, ScrambledNet(5, 2, 2), 2), 25, 3, 20_000, 2,
                 id="mixed-lhs-net"),
]


@pytest.mark.parametrize("spec, n, d, reps, rows", DRAW_MEMORY)
def test_a_draw_holds_its_result_and_one_key_block(spec, n, d, reps, rows):
    samplers_module._perm_table.cache_clear()  # as if alone: the draw builds its tables
    batch, peak = traced_peak(lambda: sample_batch(spec, n, d, reps, RngStream(79), rows))
    assert batch.shape == (reps, spec.prefix_rows(n, rows or n), d)
    # the result, its integer strata or cell map, and one block of float64 keys
    assert peak <= 1.75 * batch.nbytes + 8 * _KEY_BLOCK


class _TopGenerator:
    """Every uniform is 1 - 2^-53, the largest `Generator.random` returns;
    integers and choices come from a real generator."""

    def __init__(self, gen):
        self._gen = gen

    def random(self, size=None):
        return np.full(size, 1 - 2**-53)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _TopStream(RngStream):
    def __init__(self, seed, _path=()):
        super().__init__(seed, _path)
        self.gen = _TopGenerator(self.gen)

    def split(self, child_index):
        return _TopStream(self.seed, self.path + (child_index,))


# each scheme at a size whose whole draw puts a point in its top stratum, cell or slot
@pytest.mark.parametrize("spec, n, d", [
    (MonteCarlo(), 4, 2),
    (SimpleStratified(), 3, 1),
    (LatinHypercube(), 3, 2),
    (GeneralizedStratified(3, Stripes(3)), 3, 2),
    (GeneralizedStratified(5, LatticeCells((1, 2), 5)), 5, 2),
    (RsjLattice(), 5, 2),
    (ScrambledNet(2, 3, 2), 8, 2),
    (ScrambledNet(3, 2, 2), 9, 2),
    (Mixed(LatinHypercube(), 1, ScrambledNet(2, 3, 2), 2), 8, 3),
    (FourSlot(), 2, 2),
    (SwapScheme(), 2, 2),
], ids=lambda v: v.label() if hasattr(v, "kind") else None)
def test_the_largest_uniform_places_no_point_at_1(spec, n, d):
    batch = sample_batch(spec, n, d, 20, _TopStream(83))
    assert np.all(batch >= 0.0) and np.all(batch < 1.0)
    for points in batch:
        PointSet(points)


class _AtOne(SchemeSpec):
    """A scheme outside `SCHEMES` whose every coordinate is 1.0; it records the
    rows each draw is asked for."""

    kind = "at-one"

    def __init__(self, draws_prefix):
        self.draws_prefix = draws_prefix
        self.asked = []

    def draw(self, n, d, rows, reps, rng):
        self.asked.append(rows)
        return np.ones((d, rows, reps))


# the draw contract, held by sample_batch alone: a scheme is asked for the rows it
# returns and its points are clamped below 1, also as a factor of a mixed scheme
@pytest.mark.parametrize("draws_prefix", [True, False])
@pytest.mark.parametrize("rows", [None, 1, 3, 4, 9])
def test_sample_batch_asks_for_the_rows_returned_and_clamps_below_1(draws_prefix, rows):
    n = 4
    for make, d in [(lambda stub: stub, 2),
                    (lambda stub: Mixed(stub, 1, LatinHypercube(), 2), 3),
                    (lambda stub: Mixed(MonteCarlo(), 2, stub, 1), 3),
                    (lambda stub: Mixed(stub, 1, ScrambledNet(2, 2, 2), 2), 3)]:
        stub = _AtOne(draws_prefix)
        spec = make(stub)
        batch = sample_batch(spec, n, d, 3, RngStream(89), rows)
        drawn = spec.prefix_rows(n, min(rows or n, n))
        assert stub.asked == [drawn]
        assert batch.shape == (3, drawn, d)
        for points in batch:
            PointSet(points)
