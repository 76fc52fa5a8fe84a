"""Point-set container, RNG streams, and the distributional structure of
every sampling scheme: marginals, stratification, exchangeability,
determinism."""

import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from negdep_qmc import (
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
    ScrambledNet,
    SimpleStratified,
    Stripes,
    SwapScheme,
    ValidationError,
    describe_scheme,
    is_net,
    is_prime,
    load_pointset,
    map_chunks,
    net_points,
    sample,
    sample_batch,
    save_pointset,
    stratum_corner_overlap,
)
from negdep_qmc.samplers import _WRITE_BLOCK, _net_base_digits, _perm_prefix

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
        tracemalloc.start()
        try:
            save_pointset(ps, tmp_path / "pts.txt")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # eight blocks of text are about 5 MiB
    assert peaks[1] <= peaks[0] + 2**16 <= 3 * 2**20


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
    assert np.array_equal(strata.index(strata.place(chosen, 2, g)), chosen)
    overlaps = stratum_corner_overlap(strata, upper, 2)
    assert overlaps.shape == (strata.count,)
    assert float(overlaps.sum()) == pytest.approx(upper[0] * upper[1], abs=1e-12)
    assert np.all(overlaps >= -1e-15) and np.all(overlaps <= 1.0 / strata.count + 1e-12)


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
    with pytest.raises(ValidationError, match="no sampler"):
        sample_batch(MinCopula(), 2, 1, 1, RngStream(0))


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
    assert describe_scheme(MonteCarlo()) == "mc"
    assert describe_scheme(LatinHypercube()) == "lhs"
    assert describe_scheme(GeneralizedStratified(4, Stripes(4))) == "gss(beta=4,stripes)"
    assert "mixed" in describe_scheme(Mixed(LatinHypercube(), 1, MonteCarlo(), 1))
    # these strings are the CSV `scheme` column
    assert describe_scheme(SimpleStratified()) == "sss"
    assert describe_scheme(RsjLattice()) == "rsj"
    assert (
        describe_scheme(GeneralizedStratified(31, LatticeCells((1, 5), 31)))
        == "gss(beta=31,cells(g=(1, 5),n=31))"
    )
    assert describe_scheme(ScrambledNet(5, 2, 2)) == "net(b=5,m=2,s=2)"
    assert describe_scheme(Mixed(LatinHypercube(), 2, LatinHypercube(), 1)) == "mixed(lhs|2+lhs|1)"
    assert describe_scheme(MinCopula()) == "mincopula"
    assert describe_scheme(FourSlot()) == "fourslot"
    assert describe_scheme(SwapScheme()) == "swap"


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


@pytest.mark.parametrize("n, t", [(5, 2), (5, 3)], ids=["sequential", "argsort"])
def test_perm_prefix_is_uniform_over_ordered_tuples(n, t):
    # t^2 <= n draws without replacement one entry at a time, t^2 > n by argsort
    reps = 60_000
    heads = _perm_prefix(np.random.default_rng(4001), reps, n, t)
    assert heads.shape == (reps, t)
    assert np.all((heads >= 0) & (heads < n))
    assert np.all(np.diff(np.sort(heads, axis=1), axis=1) > 0)  # distinct within a row
    codes = heads @ n ** np.arange(t)
    tuples = [sum(v * n**k for k, v in enumerate(p)) for p in permutations(range(n), t)]
    counts = np.bincount(codes, minlength=n**t)[tuples]
    assert counts.sum() == reps  # every draw is an ordered tuple of distinct values
    assert chisquare(counts).pvalue > FAMILY_ALPHA / 2


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
                         ids=lambda v: describe_scheme(v) if hasattr(v, "kind") else None)
def test_sample_batch_rows_shape_contract(spec, n, d):
    full = spec in [s for s, _, _ in FULL_SCHEMES]
    for rows in range(1, n):
        batch = sample_batch(spec, n, d, 6, RngStream(61), rows=rows)
        assert batch.shape == (6, n if full else rows, d)
        assert np.all((batch >= 0.0) & (batch < 1.0))
    with pytest.raises(ValidationError, match="rows"):
        sample_batch(spec, n, d, 6, RngStream(61), rows=0)


@pytest.mark.parametrize("spec, n, d", ALL_SAMPLERS + PREFIX_SCHEMES + FULL_SCHEMES,
                         ids=lambda v: describe_scheme(v) if hasattr(v, "kind") else None)
def test_sample_batch_whole_rows_is_the_batch_stream(spec, n, d):
    reference = spec.batch(n, d, 5, RngStream(67))
    for rows in (None, n, n + 3):
        assert np.array_equal(sample_batch(spec, n, d, 5, RngStream(67), rows=rows), reference)


def test_map_chunks_sizes_chunks_by_the_rows_drawn():
    def shape(batch):
        return batch.shape

    # a prefix sampler draws 2 rows, so 10^5 replications fit one chunk
    assert map_chunks(LatinHypercube(), 4096, 2, 100_000, RngStream(71), shape, rows=2) == [
        (100_000, 2, 2)
    ]
    # the net has none and draws all 4096 rows: chunks stay near 4e6 scalars
    shapes = map_chunks(ScrambledNet(2, 12, 2), 4096, 2, 1_000, RngStream(71), shape, rows=2)
    assert sum(s[0] for s in shapes) == 1_000
    assert all(s[1] == 4096 and s[0] * s[1] * s[2] <= 4_000_000 for s in shapes)


def _net_batch_loop(spec, n, reps, rng):
    """ScrambledNet.batch as one permutation draw per digit prefix: the
    reference for the vectorized sampler."""
    b, m, s = spec.b, spec.m, spec.s
    g = rng.gen
    base = _net_base_digits(b, m, s)
    weights = b ** -(np.arange(m, dtype=float) + 1)
    out = np.empty((reps, n, s))
    rows = np.arange(reps)[:, None]
    for l in range(s):
        digits = np.broadcast_to(base[:, l, :], (reps, n, m)).copy()
        prefix = np.zeros(n, dtype=np.int64)
        for r in range(m):
            for pid in np.unique(prefix):
                members = np.nonzero(prefix == pid)[0]
                perms = np.argsort(g.random((reps, b)), axis=1)
                digits[:, members, r] = perms[rows, base[members, l, r][None, :]]
            prefix = prefix * b + base[:, l, r]
        out[:, :, l] = digits @ weights + g.random((reps, n)) * b ** (-m)
    rp = np.argsort(g.random((reps, n)), axis=1)
    return np.take_along_axis(out, rp[:, :, None], axis=1)


@pytest.mark.parametrize("b, m, s", [(2, 1, 1), (2, 3, 1), (2, 5, 2), (3, 2, 2), (3, 3, 3),
                                     (5, 2, 2), (5, 2, 5), (2, 12, 2)])
@pytest.mark.parametrize("reps", [1, 7])
def test_net_scrambling_matches_the_per_prefix_loop(b, m, s, reps):
    spec = ScrambledNet(b, m, s)
    expected = _net_batch_loop(spec, b**m, reps, RngStream(73))
    assert np.array_equal(sample_batch(spec, b**m, s, reps, RngStream(73)), expected)
