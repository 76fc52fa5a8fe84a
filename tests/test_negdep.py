"""Dependence testers, their exact dispatch for the analytic schemes, the
closed-form probability oracles, and the Wilson interval machinery."""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import negdep_qmc.negdep as negdep_module
from negdep_qmc import (
    CornerBox0,
    CornerBox1,
    FourSlot,
    GeneralizedStratified,
    Interval,
    LatinHypercube,
    LatticeCells,
    MinCopula,
    Mixed,
    MonteCarlo,
    RngStream,
    RsjLattice,
    SimpleStratified,
    Stripes,
    SwapScheme,
    ValidationError,
    corner_cells,
    gss_anchored_prob_exact,
    lhs_anchored_prob_exact,
    min_copula_cdf,
    mixed_anchored_prob_exact,
    rsj_small_prob,
    sample_batch,
    check_ci_nqd,
    check_conditional_nqd,
    check_lower_nd,
    check_pairwise_nd,
    check_upper_nd,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_contains_point_estimate():
    for s, t in [(0, 10), (3, 10), (10, 10), (77, 1000)]:
        lo, hi = wilson_interval(s, t, 0.99)
        assert lo <= s / t <= hi


def test_wilson_widens_with_confidence_and_narrows_with_trials():
    lo1, hi1 = wilson_interval(40, 100, 0.9)
    lo2, hi2 = wilson_interval(40, 100, 0.999)
    assert lo2 < lo1 and hi1 < hi2
    lo3, hi3 = wilson_interval(400, 1000, 0.9)
    assert hi3 - lo3 < hi1 - lo1


def test_wilson_endpoints_pinned_at_extremes():
    lo, hi = wilson_interval(0, 50, 0.99)
    assert lo == 0.0 and hi < 1.0
    lo, hi = wilson_interval(50, 50, 0.99)
    assert lo > 0.0 and hi == 1.0


def test_wilson_has_advertised_coverage():
    # 500 binomial draws at p = 0.3; the 95% interval must cover p roughly
    # 95% of the time (allow down to 90%).
    g = RngStream(113).gen
    p, trials = 0.3, 200
    covered = 0
    for _ in range(500):
        s = int(g.binomial(trials, p))
        lo, hi = wilson_interval(s, trials, 0.95)
        covered += lo <= p <= hi
    assert covered >= 450


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(1, 0)
    with pytest.raises(ValidationError):
        wilson_interval(1, 10, 1.0)


# ---------------------------------------------------------------------------
# Closed-form oracles


def brute_lhs_prob(n: int, q: tuple, t: int, samples: int, rng) -> float:
    batch = sample_batch(LatinHypercube(), n, len(q), samples, rng)
    return float(np.mean(np.all(batch[:, :t, :] < np.asarray(q), axis=(1, 2))))


def test_lhs_oracle_by_exact_permutation_enumeration():
    # Integrate the jitter out analytically: along one axis the first t
    # points land below q = (k + theta)/n iff their strata are < k, or
    # exactly one stratum equals k (probability theta for that point).
    n, t = 4, 2
    for q in (0.2, 0.35, 0.5, 0.68, 0.95):
        k = int(math.floor(q * n))
        theta = q * n - k
        total = 0.0
        for perm in permutations(range(n)):
            first = perm[:t]
            below = sum(1 for s in first if s < k)
            at = sum(1 for s in first if s == k)
            if below == t:
                total += 1.0
            elif below == t - 1 and at == 1:
                total += theta
        expected = total / math.factorial(n)
        assert lhs_anchored_prob_exact(n, (q,), t) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q", [(float("nan"), 0.5), (0.5, float("nan"))], ids=["nan-first", "nan-last"])
def test_lhs_oracle_rejects_a_nan_anchor(q):
    with pytest.raises(ValidationError, match="anchor"):
        lhs_anchored_prob_exact(8, q, 2)


def test_lhs_oracle_factorizes_over_axes():
    n, t = 6, 3
    q = (0.37, 0.81)
    lhs = lhs_anchored_prob_exact(n, q, t)
    per_axis = [lhs_anchored_prob_exact(n, (x,), t) for x in q]
    assert lhs == pytest.approx(per_axis[0] * per_axis[1], rel=1e-14)


def test_lhs_oracle_continuous_at_stratum_boundaries():
    n, t = 5, 2
    for k in (1, 2, 3, 4):
        q = k / n
        below = lhs_anchored_prob_exact(n, (q - 1e-12,), t)
        at = lhs_anchored_prob_exact(n, (q,), t)
        above = lhs_anchored_prob_exact(n, (q + 1e-12,), t)
        assert at == pytest.approx(below, abs=1e-10)
        assert at == pytest.approx(above, abs=1e-10)


def test_lhs_oracle_never_exceeds_independence_benchmark():
    for n in (3, 5, 8):
        for t in range(1, n + 1):
            for q in (0.15, 0.4, 0.75):
                p = lhs_anchored_prob_exact(n, (q, q), t)
                assert p <= (q * q) ** t + 1e-15


def test_lhs_oracle_against_simulation():
    rng = RngStream(211)
    n, t, q = 5, 2, (0.45, 0.7)
    emp = brute_lhs_prob(n, q, t, 200_000, rng)
    lo, hi = wilson_interval(int(emp * 200_000), 200_000, 0.999)
    assert lo <= lhs_anchored_prob_exact(n, q, t) <= hi


def test_gss_oracle_against_simulation():
    spec = GeneralizedStratified(6, Stripes(6))
    n, t = 4, 2
    box = CornerBox0((0.55, 0.8))
    p = gss_anchored_prob_exact(6, spec.strata, box, n, t)
    reps = 200_000
    batch = sample_batch(spec, n, 2, reps, RngStream(223))
    count = int(np.sum(np.all(batch[:, :t, :] < box.upper, axis=(1, 2))))
    lo, hi = wilson_interval(count, reps, 0.999)
    assert lo <= p <= hi


def test_gss_oracle_simple_case_by_hand():
    # beta = 2 stripes, n = 2, t = 2, box covering fractions (a, 1) of the
    # stripes: both strata are used, P = 2! / (2)_2 * e_2(overlaps) = a1*a2.
    box = CornerBox0((0.6, 1.0 - 1e-12))
    p = gss_anchored_prob_exact(2, Stripes(2), box, 2, 2)
    # overlaps with [0,0.6) x [0,1): stripe 1 full (0.5), stripe 2 partial (0.1)
    # normalized per stratum measure 1/beta: probabilities 2*0.5, 2*0.1... the
    # ordered-pair argument gives exactly e_2(beta * overlaps) * t!/(beta)_t.
    expected = math.factorial(2) / (2 * 1) * (2 * 0.5) * (2 * 0.1)
    assert p == pytest.approx(expected, rel=1e-9)


def test_mixed_oracle_is_product_of_factors():
    n, t = 6, 2
    q_left, q_right = (0.3, 0.7), (0.5,)
    combined = mixed_anchored_prob_exact(n, q_left, q_right, t)
    left = lhs_anchored_prob_exact(n, q_left, t)
    right = lhs_anchored_prob_exact(n, q_right, t)
    assert combined == pytest.approx(left * right, rel=1e-14)


def test_rsj_small_prob_against_simulation():
    n = 5
    cells = corner_cells(n, (2, 3))
    p = rsj_small_prob(n, cells, 2)
    reps = 150_000
    batch = sample_batch(RsjLattice(), n, 2, reps, RngStream(227))
    # event: at least ... exactly the first 2 points in the cell set is not
    # the oracle's event; it counts ordered tuples, i.e. the first t points
    # all in the set. Jitter keeps each point inside its lattice cell.
    grid = np.floor(batch[:, :2, :] * n).astype(int)
    inside = cells[grid[..., 0], grid[..., 1]]
    count = int(np.sum(np.all(inside, axis=1)))
    lo, hi = wilson_interval(count, reps, 0.999)
    assert lo <= p <= hi


def test_rsj_small_prob_validation():
    with pytest.raises(ValidationError):
        rsj_small_prob(4, corner_cells(4, (2, 2)), 1)  # composite n
    with pytest.raises(ValidationError):
        rsj_small_prob(37, corner_cells(37, (2, 2)), 1)  # above the cap
    with pytest.raises(ValidationError):
        rsj_small_prob(5, corner_cells(5, (2, 2)), 6)  # t > n
    with pytest.raises(ValidationError):
        rsj_small_prob(7, corner_cells(5, (2, 2)), 1)  # a 5 x 5 mask at n = 7
    with pytest.raises(ValidationError):
        rsj_small_prob(5, corner_cells(5, (2, 2)).astype(int), 1)  # a 0/1 integer mask


def _rsj_small_prob_loop(n, qcells, t):
    """rsj_small_prob as a float sum over every generator pair (a, b): the
    reference for the enumeration by slopes."""
    mask = np.asarray(qcells).astype(np.int64)
    denom = float(math.perm(n, t))
    gens = range(1, n) if n > 2 else [1]
    total = 0.0
    for a in gens:
        for b in gens:
            hits = np.zeros((n, n), dtype=np.int64)
            for j in range(n):
                hits += np.roll(mask, shift=(-(j * a) % n, -(j * b) % n), axis=(0, 1))
            falling = np.ones(hits.shape, dtype=float)
            for k in range(t):
                falling *= hits - k
            total += float(np.sum(falling)) / denom
    n_gen = len(list(gens))
    return total / (n_gen * n_gen * n * n)


def _rsj_small_prob_fraction(n, qcells):
    """The same enumeration over every generator pair, as exact fractions:
    a function of t."""
    mask = np.asarray(qcells).astype(np.int64)
    gens = range(1, n) if n > 2 else [1]
    hist = np.zeros(n + 1, dtype=np.int64)  # lattice cells in Q -> (generator, shift) pairs
    for a in gens:
        for b in gens:
            hits = sum(np.roll(mask, shift=(-(j * a) % n, -(j * b) % n), axis=(0, 1))
                       for j in range(n))
            hist += np.bincount(hits.ravel(), minlength=n + 1)
    return lambda t: Fraction(
        sum(int(h) * math.perm(k, t) for k, h in enumerate(hist)),
        len(gens) ** 2 * n * n * math.perm(n, t),
    )


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 31])
def test_rsj_small_prob_matches_the_generator_enumeration(n):
    rng = np.random.default_rng(n)
    for _ in range(1 if n == 31 else 3):
        mask = rng.random((n, n)) < rng.uniform(0.2, 0.9)
        exact = _rsj_small_prob_fraction(n, mask)
        for t in range(1, min(n, 3) + 1):
            p = rsj_small_prob(n, mask, t)
            assert abs(Fraction(p) - exact(t)) <= Fraction(1e-13) * exact(t)
            assert p == pytest.approx(_rsj_small_prob_loop(n, mask, t), rel=1e-13, abs=0.0)


# Bonferroni family error rate of each statistical test below
FAMILY_ALPHA = 1e-6


def test_prefix_draws_match_the_exact_oracles():
    # t^2 <= n draws the prefix one row at a time, t^2 > n by argsort
    cases = [
        (LatinHypercube(), 16, 2, (0.55, 0.8)),
        (LatinHypercube(), 5, 3, (0.5, 0.7, 0.9)),
        (GeneralizedStratified(31, Stripes(31)), 12, 2, (0.6, 0.7)),
        (GeneralizedStratified(31, LatticeCells((1, 12), 31)), 12, 2, (0.6, 0.7)),
        (Mixed(LatinHypercube(), 2, LatinHypercube(), 1), 6, 3, (0.6, 0.7, 0.8)),
        (RsjLattice(), 11, 2, (6, 8)),  # cells of the 11 x 11 grid
        (RsjLattice(), 5, 2, (3, 4)),
        (SimpleStratified(), 10, 1, (0.55,)),
    ]
    checks = [(case, t) for case in cases for t in (1, 2, 3)]
    confidence = 1.0 - FAMILY_ALPHA / len(checks)
    reps = 100_000
    for k, ((spec, n, d, corner), t) in enumerate(checks):
        if isinstance(spec, RsjLattice):
            upper = tuple(c / n for c in corner)
            oracle = rsj_small_prob(n, corner_cells(n, corner), t)
        else:
            upper = corner
            oracle = spec.anchored_prob(n, CornerBox0(upper), t)
        batch = sample_batch(spec, n, d, reps, RngStream(4100 + k), rows=t)
        assert batch.shape == (reps, t, d)
        count = int(np.sum(np.all(batch < np.array(upper), axis=(1, 2))))
        lo, hi = wilson_interval(count, reps, confidence)
        assert lo <= oracle <= hi, (spec.label(), t, count / reps, oracle)


# a concatenation with a stratified factor, its n, and the upper corner of an anchored box
MIXED_WITH_GSS = [
    (Mixed(GeneralizedStratified(31, LatticeCells((1, 12), 31)), 2, LatinHypercube(), 1),
     6, (0.6, 0.7, 0.8)),
    (Mixed(LatinHypercube(), 1, GeneralizedStratified(8, Stripes(8)), 2), 5, (0.55, 0.8, 0.9)),
]


@pytest.mark.parametrize("spec, n, upper", MIXED_WITH_GSS, ids=["gss|lhs", "lhs|gss"])
def test_a_mixed_scheme_multiplies_the_laws_of_its_factors(spec, n, upper):
    d, split = len(upper), spec.d_left
    confidence = 1.0 - FAMILY_ALPHA / (2 * 3)  # both cases, t = 1..3
    for t in (1, 2, 3):
        oracle = spec.anchored_prob(n, CornerBox0(upper), t)
        left = spec.left.anchored_prob(n, CornerBox0(upper[:split]), t)
        right = spec.right.anchored_prob(n, CornerBox0(upper[split:]), t)
        assert oracle == left * right
        rep = check_upper_nd(spec, n, d, CornerBox0(upper), t, 100_000,
                             RngStream(4200 + t), confidence=confidence)
        assert abs(rep.lhs - oracle) <= rep.ci_halfwidth, (spec.label(), t, rep.lhs, oracle)


def test_a_mixed_scheme_has_a_law_only_when_both_factors_do():
    box = CornerBox0((0.5, 0.5, 0.5))
    assert Mixed(LatinHypercube(), 2, MonteCarlo(), 1).anchored_prob(4, box, 2) is None
    assert Mixed(MonteCarlo(), 1, LatinHypercube(), 2).anchored_prob(4, box, 2) is None
    assert Mixed(LatinHypercube(), 1, LatinHypercube(), 2).anchored_prob(4, box, 2) == (
        mixed_anchored_prob_exact(4, (0.5,), (0.5, 0.5), 2))


def test_corner_cells_mask_shape():
    mask = corner_cells(5, (2, 3))
    assert mask.shape == (5, 5) and mask.dtype == bool
    assert int(mask.sum()) == 6
    assert mask[:2, :3].all() and not mask[2:, :].any()


# ---------------------------------------------------------------------------
# Analytic pair probabilities


def test_four_slot_pair_probabilities_match_table():
    half = 0.5
    slots = [
        Interval((0.0, 0.0), (half, half)),
        Interval((half, 0.0), (1.0, half)),
        Interval((0.0, half), (half, 1.0)),
        Interval((half, half), (1.0, 1.0)),
    ]
    expected = {
        (0, 0): 1 / 16, (1, 1): 1 / 16, (2, 2): 1 / 16, (3, 3): 1 / 16,
        (0, 2): 1 / 32, (2, 0): 1 / 32, (1, 3): 1 / 32, (3, 1): 1 / 32,
        (0, 3): 5 / 32, (3, 0): 5 / 32, (1, 2): 5 / 32, (2, 1): 5 / 32,
    }
    total = 0.0
    for i, j in product(range(4), repeat=2):
        p = FourSlot().pair_prob(slots[i].axes(), slots[j].axes())
        total += p
        assert p == pytest.approx(expected.get((i, j), 0.0), abs=1e-15)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_four_slot_sampler_matches_analytic_pair_probs():
    reps = 40_000
    batch = sample_batch(FourSlot(), 2, 2, reps, RngStream(229))
    ids = np.floor(batch * 2).astype(int)
    slot = ids[:, :, 0] + 2 * ids[:, :, 1]
    count_same_00 = int(np.sum((slot[:, 0] == 0) & (slot[:, 1] == 0)))
    lo, hi = wilson_interval(count_same_00, reps, 0.999)
    assert lo <= 1 / 16 <= hi
    count_03 = int(np.sum((slot[:, 0] == 0) & (slot[:, 1] == 3)))
    lo, hi = wilson_interval(count_03, reps, 0.999)
    assert lo <= 5 / 32 <= hi


def test_swap_pair_probability_closed_form():
    # P(p1 >= (u1, u2), p2 >= (v1, v2)) = (1 - max(u1, v2))(1 - max(u2, v1))
    u, v = (0.3, 0.6), (0.5, 0.2)
    p = SwapScheme().pair_prob(CornerBox1(u).axes(), CornerBox1(v).axes())
    assert p == pytest.approx((1 - max(0.3, 0.2)) * (1 - max(0.6, 0.5)), abs=1e-15)


def test_min_copula_cdf_properties():
    assert min_copula_cdf(0.75, 0.25) == pytest.approx(0.25)
    for u in (0.0, 0.25, 0.5, 0.8, 1.0):
        assert min_copula_cdf(u, u) == pytest.approx(u * u, abs=1e-15)
        assert min_copula_cdf(u, 1.0) == pytest.approx(u, abs=1e-15)
        assert min_copula_cdf(1.0, u) == pytest.approx(u, abs=1e-15)


def test_min_copula_rect_mass_is_nonnegative_everywhere():
    # Second difference of the CDF over a fine grid: every cell mass >= 0,
    # which certifies the CDF is a genuine bivariate distribution.
    g = np.linspace(0.0, 1.0, 101)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    F = np.minimum(np.minimum(uu, vv), 0.5 * (uu**2 + vv**2))
    mass = F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]
    assert mass.min() >= -1e-12
    assert F[1:, 1:].max() <= 1.0 + 1e-15


def test_min_copula_rect_prob_orientations():
    upper = MinCopula().pair_prob(CornerBox1((0.75,)).axes(), CornerBox1((0.25,)).axes())
    assert upper == pytest.approx(1 - 0.75 - 0.25 + min_copula_cdf(0.75, 0.25), abs=1e-15)
    lower = MinCopula().pair_prob(CornerBox0((0.75,)).axes(), CornerBox0((0.25,)).axes())
    assert lower == pytest.approx(min_copula_cdf(0.75, 0.25), abs=1e-15)


# ---------------------------------------------------------------------------
# Testers: exact dispatch


def test_pairwise_min_copula_finds_violation():
    r1, r0 = check_pairwise_nd(
        MinCopula(), 2, 1, CornerBox1((0.75,)), CornerBox1((0.25,)), 1, RngStream(0)
    )
    assert r1.method == "exact" and r1.ci_halfwidth == 0.0
    assert r1.lhs == pytest.approx(0.25) and r1.rhs == pytest.approx(0.1875)
    assert r1.verdict == "violated"
    # the lower-orthant companion is violated too: the quadrant mass
    # F(0.75, 0.25) = 1/4 also exceeds the product benchmark 3/16
    assert r0.method == "exact"
    assert r0.lhs == pytest.approx(0.25) and r0.rhs == pytest.approx(0.1875)
    assert r0.verdict == "violated"


def test_conditional_four_slot_exact_violation():
    rep = check_conditional_nqd(
        FourSlot(), 2, 2, 2, CornerBox1((0.5,)), CornerBox1((0.5,)), 0.5, 0.5,
        1, RngStream(0),
    )
    assert rep.method == "exact"
    assert rep.lhs == pytest.approx(1 / 3, abs=1e-15)
    assert rep.rhs == pytest.approx(1 / 4, abs=1e-15)
    assert rep.verdict == "violated"


def test_conditional_swap_exact_equality():
    rep = check_conditional_nqd(
        SwapScheme(), 2, 2, 2, Interval((0.2,), (0.9,)), Interval((0.1,), (0.8,)),
        0.4, 0.6, 1, RngStream(0),
    )
    assert rep.method == "exact"
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)
    assert rep.verdict != "violated"


def test_upper_orthant_four_slot_exact():
    # P(both points in [1/2,1)^2) = P(both in slot 3) = 1/16 > (1/4)^2
    rep = check_upper_nd(FourSlot(), 2, 2, CornerBox1((0.5, 0.5)), 2, 1, RngStream(0))
    assert rep.method == "exact"
    assert rep.lhs == pytest.approx(1 / 16)
    assert rep.rhs == pytest.approx(1 / 16)
    assert rep.verdict in ("holds", "inconclusive")


# ---------------------------------------------------------------------------
# Testers: empirical path


def test_upper_empirical_tracks_lhs_oracle():
    n, d, t = 6, 2, 2
    box = CornerBox0((0.5, 0.7))
    rep = check_upper_nd(LatinHypercube(), n, d, box, t, 60_000, RngStream(307),
                        confidence=0.999)
    oracle = lhs_anchored_prob_exact(n, box.upper, t)
    assert rep.method == "empirical"
    assert abs(rep.lhs - oracle) <= rep.ci_halfwidth
    assert rep.rhs == pytest.approx((0.5 * 0.7) ** t)
    assert rep.verdict in ("holds", "inconclusive")


def test_lower_empirical_monte_carlo_sits_at_benchmark():
    box = CornerBox0((0.4, 0.4))
    rep = check_lower_nd(MonteCarlo(), 4, 2, box, 2, 40_000, RngStream(311),
                        confidence=0.999)
    target = (1 - 0.16) ** 2
    assert rep.rhs == pytest.approx(target)
    assert abs(rep.lhs - target) <= rep.ci_halfwidth
    assert rep.verdict != "violated"


def test_gamma_scales_the_benchmark_side():
    box = CornerBox0((0.5, 0.5))
    tight = check_upper_nd(LatinHypercube(), 4, 2, box, 2, 5_000, RngStream(313))
    loose = check_upper_nd(LatinHypercube(), 4, 2, box, 2, 5_000, RngStream(313),
                          gamma=4.0)
    assert loose.rhs == pytest.approx(4.0 * tight.rhs)
    assert loose.gamma == 4.0
    assert loose.verdict == "holds"


def test_pairwise_empirical_shares_draws_between_reports():
    r1, r0 = check_pairwise_nd(
        LatinHypercube(), 4, 2, CornerBox1((0.5, 0.5)), CornerBox1((0.25, 0.25)),
        20_000, RngStream(331), confidence=0.999,
    )
    assert r1.replications == r0.replications == 20_000
    assert r1.notion == r0.notion == "pairwise_nd"
    for rep in (r1, r0):
        assert rep.verdict != "violated"


def test_conditional_inconclusive_below_hit_floor():
    # Conditioning event nearly never happens at these reps: forced inconclusive.
    rep = check_conditional_nqd(
        LatinHypercube(), 4, 2, 2, Interval((0.0,), (1e-4,)), Interval((0.0,), (1e-4,)),
        0.5, 0.5, 2_000, RngStream(337),
    )
    assert rep.verdict == "inconclusive"
    assert rep.ci_halfwidth == 1.0
    assert "hits" in rep.event


def test_conditional_empirical_swap_matches_exact():
    a_box, b_box = Interval((0.2,), (0.9,)), Interval((0.1,), (0.8,))
    exact = check_conditional_nqd(SwapScheme(), 2, 2, 2, a_box, b_box, 0.4, 0.6,
                                 1, RngStream(0))
    emp = check_conditional_nqd(MonteCarlo(), 2, 2, 2, a_box, b_box, 0.4, 0.6,
                               60_000, RngStream(347), confidence=0.999)
    # independent points also satisfy the equality lhs = rhs in expectation
    assert abs(emp.lhs - emp.rhs) <= emp.ci_halfwidth + 0.02
    assert exact.method == "exact" and emp.method == "empirical"


def test_ci_nqd_latin_hypercube_holds_and_factorizes():
    res = check_ci_nqd(LatinHypercube(), 4, 3, 2, 0.5, 0.5, 30_000, RngStream(353),
                      confidence=0.999)
    assert res.primary.verdict != "violated"
    assert res.primary.rhs == pytest.approx(0.25)
    assert len(res.factorization) > 0
    ok = sum(1 for c in res.factorization if c.consistent)
    assert ok >= len(res.factorization) - 1


def test_ci_nqd_min_copula_exact_without_draws():
    res = check_ci_nqd(MinCopula(), 2, 1, 1, 0.75, 0.25, 1, RngStream(0))
    assert res.primary.method == "exact"
    assert res.primary.lhs == pytest.approx(0.25)
    assert res.primary.rhs == pytest.approx(0.25 * 0.75)
    assert res.primary.verdict == "violated"


# ---------------------------------------------------------------------------
# Validation


def test_box_dimension_must_match():
    with pytest.raises(ValidationError):
        check_upper_nd(LatinHypercube(), 4, 2, CornerBox0((0.5, 0.5, 0.5)), 1,
                      100, RngStream(0))


def test_t_range_validated():
    box = CornerBox0((0.5, 0.5))
    with pytest.raises(ValidationError):
        check_upper_nd(LatinHypercube(), 4, 2, box, 0, 100, RngStream(0))
    with pytest.raises(ValidationError):
        check_upper_nd(LatinHypercube(), 4, 2, box, 5, 100, RngStream(0))


def test_nan_gamma_and_nonpositive_reps_rejected():
    box = CornerBox0((0.5, 0.5))
    with pytest.raises(ValidationError, match="gamma"):
        check_upper_nd(LatinHypercube(), 4, 2, box, 2, 100, RngStream(317), gamma=float("nan"))
    # the exact path of a two-point scheme draws nothing, and still needs reps >= 1
    with pytest.raises(ValidationError, match="replication"):
        check_upper_nd(SwapScheme(), 2, 2, box, 2, 0, RngStream(317))


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.5, float("nan")])
def test_confidence_outside_the_unit_interval_is_rejected_before_any_draw(monkeypatch, confidence):
    q = CornerBox1((0.5, 0.5))
    # the exact path of a two-point scheme draws nothing, and still checks it
    with pytest.raises(ValidationError, match="confidence"):
        check_pairwise_nd(SwapScheme(), 2, 2, q, q, 1, RngStream(0), confidence=confidence)

    def no_draws(*args, **kwargs):
        raise AssertionError("replications were drawn before confidence was checked")

    monkeypatch.setattr(negdep_module, "map_chunks", no_draws)
    with pytest.raises(ValidationError, match="confidence"):
        check_pairwise_nd(LatinHypercube(), 4, 2, q, q, 100, RngStream(0), confidence=confidence)


def test_conditional_coordinate_index_validated():
    with pytest.raises(ValidationError):
        check_conditional_nqd(LatinHypercube(), 4, 2, 3, Interval((0.1,), (0.9,)),
                             Interval((0.1,), (0.9,)), 0.5, 0.5, 100, RngStream(0))
    # i = 1 must not receive conditioning boxes
    with pytest.raises(ValidationError):
        check_conditional_nqd(LatinHypercube(), 4, 2, 1, Interval((0.1,), (0.9,)),
                             None, 0.5, 0.5, 100, RngStream(0))
    # conditioning boxes must live in dimension i - 1
    with pytest.raises(ValidationError):
        check_conditional_nqd(LatinHypercube(), 4, 3, 3, Interval((0.1,), (0.9,)),
                             Interval((0.1,), (0.9,)), 0.5, 0.5, 100, RngStream(0))


def test_analytic_schemes_reject_wrong_shape():
    with pytest.raises(ValidationError):
        check_upper_nd(FourSlot(), 3, 2, CornerBox0((0.5, 0.5)), 1, 100, RngStream(0))
    with pytest.raises(ValidationError):
        check_upper_nd(MinCopula(), 2, 2, CornerBox0((0.5, 0.5)), 1, 100, RngStream(0))
