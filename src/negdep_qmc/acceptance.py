"""Self-contained acceptance suite: twelve desk-scale checks that exercise
the exact oracles, the empirical testers, the discrepancy engine, the bounds,
and the variance machinery end to end. Each criterion returns a structured
result, and run_all returns them; `negdep-qmc report` writes the summary
files.

All randomness is derived from a single seed through named stream splits, so
the whole suite is reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .bounds import corner_bound_theta, hoeffding_tail
from .discrepancy import star_discrepancy_cover, star_discrepancy_exact
from .errors import ValidationError
from .geometry import CornerBox0, CornerBox1, Interval, build_delta_cover, is_net
from .integrate import CornerIndicator, ProductCoords, simplex_max_check, variance_study
from .negdep import (
    corner_cells,
    lhs_anchored_prob_exact,
    mixed_anchored_prob_exact,
    rsj_small_prob,
    check_conditional_nqd,
    check_pairwise_nd,
    check_upper_nd,
    wilson_interval,
)
from .samplers import (
    FourSlot,
    LatinHypercube,
    Mixed,
    MinCopula,
    MonteCarlo,
    PointSet,
    RngStream,
    RsjLattice,
    ScrambledNet,
    SwapScheme,
    is_prime,
    min_copula_cdf,
    net_points,
    sample,
    sample_batch,
)

__all__ = ["CriterionResult", "DEFAULT_SEED", "ALL_CRITERIA", "run_all"]

DEFAULT_SEED = 2718281


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str
    elapsed_s: float | None = None  # seconds the criterion took, set by run_all


def _result(cid, name, checks, details) -> CriterionResult:
    return CriterionResult(cid, name, bool(all(checks)), details)


def criterion_01(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Min-copula pair: exact violation at anchors (3/4, 1/4) and the exact
    diagonal law F(q, q) = q^2."""
    tol = 1e-15
    checks = []
    f34 = min_copula_cdf(0.75, 0.25)
    upper = MinCopula().pair_prob([(0.75, 1.0)], [(0.25, 1.0)])  # P(p1 >= 3/4, p2 >= 1/4)
    rhs = 0.25 * 0.75
    checks.append(abs(f34 - 0.25) <= tol)
    checks.append(abs(upper - 0.25) <= tol)
    checks.append(upper > rhs)
    diag_err = 0.0
    for k in range(1, 10):
        q = k / 10.0
        diag_err = max(diag_err, abs(min_copula_cdf(q, q) - q * q))
    checks.append(diag_err <= tol)
    rep1, _ = check_pairwise_nd(
        MinCopula(), 2, 1, CornerBox1((0.75,)), CornerBox1((0.25,)), 1, RngStream(seed)
    )
    checks.append(rep1.method == "exact" and rep1.verdict == "violated")
    checks.append(abs(rep1.lhs - 0.25) <= tol and abs(rep1.rhs - rhs) <= tol)
    details = f"upper={upper:.17g} rhs={rhs:.17g} diag_err={diag_err:.3g} verdict={rep1.verdict}"
    return _result(1, "min-copula exact violation", checks, details)


def criterion_02(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Four-slot pair: exact conditional quadrant probability 1/3 against a
    conditional product of 1/4, derived from the slot table."""
    tol = 1e-15
    rep = check_conditional_nqd(
        FourSlot(), 2, 2, 2, CornerBox1((0.5,)), CornerBox1((0.5,)), 0.5, 0.5, 1, RngStream(seed)
    )
    checks = [
        rep.method == "exact",
        abs(rep.lhs - 1.0 / 3.0) <= tol,
        abs(rep.rhs - 0.25) <= tol,
        rep.verdict == "violated",
    ]
    details = f"lhs={rep.lhs:.17g} rhs={rep.rhs:.17g} verdict={rep.verdict}"
    return _result(2, "four-slot conditional violation", checks, details)


def criterion_03(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Swap pair: closed-form pairwise violation at anchors (1/2, 1/2) and
    exact conditional product equality across a 3x3 threshold grid."""
    checks = []
    rep1, _ = check_pairwise_nd(
        SwapScheme(), 2, 2, CornerBox1((0.5, 0.5)), CornerBox1((0.5, 0.5)), 1, RngStream(seed)
    )
    checks.append(rep1.method == "exact" and rep1.verdict == "violated")
    checks.append(abs(rep1.lhs - 0.25) <= 1e-15)
    checks.append(abs(rep1.rhs - 0.0625) <= 1e-15)
    a_box = Interval((0.2,), (0.9,))
    b_box = Interval((0.1,), (0.8,))
    max_gap = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for beta in (0.25, 0.5, 0.75):
            rep = check_conditional_nqd(
                SwapScheme(), 2, 2, 2, a_box, b_box, alpha, beta, 1, RngStream(seed)
            )
            max_gap = max(max_gap, abs(rep.lhs - rep.rhs))
    checks.append(max_gap <= 1e-12)
    details = f"pair lhs={rep1.lhs:.17g} rhs={rep1.rhs:.17g}; conditional max|lhs-rhs|={max_gap:.3g}"
    return _result(3, "swap pair violation and conditional equality", checks, details)


def criterion_04(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Small jittered rank-1 lattice: exact triple-capture probability of the
    3x3 corner block at n = 5 meets its closed-form floor, and the crossover
    where the floor beats the independent benchmark lands on the right prime."""
    checks = []
    p = rsj_small_prob(5, corner_cells(5, (3, 3)), 3)
    checks.append(p >= 0.005)

    def floor_beats_benchmark(n: int) -> bool:
        # 6/(n^2 (n-1)^2 (n-2)) > (3/n)^6, cleared of denominators in integers
        return 2 * n**4 > 243 * (n - 1) ** 2 * (n - 2)

    crossover = next(n for n in range(3, 10_000) if floor_beats_benchmark(n))
    checks.append(crossover == 118)
    checks.append(not floor_beats_benchmark(113))
    first_prime = next(n for n in range(3, 10_000) if is_prime(n) and floor_beats_benchmark(n))
    checks.append(first_prime == 127)
    details = f"p={p:.6f} (floor 0.005), integer crossover {crossover}, first prime {first_prime}"
    return _result(4, "small lattice triple capture", checks, details)


def criterion_05(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Latin hypercube anchored-box oracle against simulation: across three
    configurations and a 5-per-axis anchor grid, the empirical frequency of
    10^5 replications must sit inside the 99.9% Wilson interval in at least
    99% of cells, and the oracle must never exceed the independent benchmark."""
    reps = 100_000
    grid = [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6]
    rng = RngStream(seed).split(5)
    misses = 0
    cells = 0
    oracle_ok = True
    for cfg_idx, (n, d, t) in enumerate([(4, 2, 2), (6, 2, 3), (8, 3, 4)]):
        batch = sample_batch(LatinHypercube(), n, d, reps, rng.split(cfg_idx))
        pts = batch[:, :t, :]
        for q in product(grid, repeat=d):
            anchor = np.array(q)
            p = lhs_anchored_prob_exact(n, anchor, t)
            if p > float(np.prod(anchor)) ** t + 1e-15:
                oracle_ok = False
            count = int(np.sum(np.all(pts < anchor, axis=(1, 2))))
            lo, hi = wilson_interval(count, reps, 0.999)
            cells += 1
            if not (lo <= p <= hi):
                misses += 1
    checks = [oracle_ok, cells == 175, misses <= 1]
    details = f"{cells} cells, {misses} Wilson misses (allowed 1), oracle_ok={oracle_ok}"
    return _result(5, "latin hypercube oracle vs simulation", checks, details)


def criterion_06(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Corner-box tail bound at desk scale: with n = 256, d = 2, the
    theta = 0.9 bound must cover the exact star discrepancy in at least 90%
    of 500 replications, for Latin hypercube and for Monte Carlo."""
    bound = corner_bound_theta(256, 2, 0.9).bound_value
    rng = RngStream(seed).split(6)
    checks = []
    fracs = []
    for k, spec in enumerate([LatinHypercube(), MonteCarlo()]):
        batch = sample_batch(spec, 256, 2, 500, rng.split(k))
        covered = 0
        for r in range(batch.shape[0]):
            if star_discrepancy_exact(PointSet(batch[r])).value <= bound:
                covered += 1
        frac = covered / batch.shape[0]
        fracs.append(frac)
        checks.append(frac >= 0.9)
    details = f"bound={bound:.6f}, coverage lhs={fracs[0]:.3f} mc={fracs[1]:.3f} (need 0.9)"
    return _result(6, "corner bound at desk scale", checks, details)


def criterion_07(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Binomial tail bound: for 100 independent points and the box [0, 0.3),
    empirical P(|count - 30| >= t) never exceeds 2 exp(-2 t^2 / 100) beyond
    one-sided 3-sigma simulation slack, at t in {5, 10, 15}."""
    reps = 100_000
    batch = sample_batch(MonteCarlo(), 100, 1, reps, RngStream(seed).split(7))
    s = np.sum(batch[:, :, 0] < 0.3, axis=1) - 30.0
    checks = []
    parts = []
    for t in (5, 10, 15):
        phat = float(np.mean(np.abs(s) >= t))
        bound = hoeffding_tail(100, t)
        slack = 3.0 * math.sqrt(max(phat * (1 - phat), 0.0) / reps)
        checks.append(phat <= bound + slack)
        parts.append(f"t={t}: {phat:.5f}<={bound:.5f}")
    details = "; ".join(parts)
    return _result(7, "binomial tail bound", checks, details)


def criterion_08(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Variance reduction: Latin hypercube (d=3, n=64) and the jittered
    rank-1 lattice (d=2, n=5) never exceed Monte Carlo variance by more than
    3 standard errors, on the coordinate product and a corner indicator."""
    rng = RngStream(seed).split(8)
    cases = [
        (LatinHypercube(), ProductCoords(), 64, 3),
        (LatinHypercube(), CornerIndicator((0.3, 0.3, 0.3)), 64, 3),
        (RsjLattice(), ProductCoords(), 5, 2),
        (RsjLattice(), CornerIndicator((0.3, 0.3)), 5, 2),
    ]
    checks = []
    parts = []
    for k, (spec, f, n, d) in enumerate(cases):
        study = variance_study(spec, f, n, d, 10_000, rng.split(k))
        checks.append(study.ratio <= 1.0 + 3.0 * study.ratio_stderr)
        parts.append(f"{study.scheme}/{study.function}: ratio={study.ratio:.3f}")
    details = "; ".join(parts)
    return _result(8, "variance reduction vs monte carlo", checks, details)


def criterion_09(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Concatenation: the anchored-box law of a concatenated pair of
    independent Latin hypercube factors factorizes exactly and stays below
    the independent benchmark; the sampled concatenation agrees with the
    product oracle within a 99.9% Wilson interval."""
    tol = 1e-12
    n = 6
    max_gap = 0.0
    nd_ok = True
    for t in range(1, 5):
        for qa in product((0.25, 0.5, 0.75), repeat=2):
            for qb in ((0.3,), (0.6,), (0.9,)):
                prod_val = mixed_anchored_prob_exact(n, qa, qb, t)
                full = lhs_anchored_prob_exact(n, qa + qb, t)
                max_gap = max(max_gap, abs(prod_val - full))
                vol = float(np.prod(qa)) * float(np.prod(qb))
                if prod_val > vol**t + tol:
                    nd_ok = False
    checks = [max_gap <= tol, nd_ok]
    spec = Mixed(LatinHypercube(), 2, LatinHypercube(), 1)
    rep = check_upper_nd(
        spec, n, 3, CornerBox0((0.5, 0.5, 0.6)), 2, 200_000,
        RngStream(seed).split(9), confidence=0.999,
    )
    target = mixed_anchored_prob_exact(n, (0.5, 0.5), (0.6,), 2)
    checks.append(abs(rep.lhs - target) <= rep.ci_halfwidth)
    details = (
        f"max factorization gap {max_gap:.3g}, benchmark ok {nd_ok}, "
        f"sampled {rep.lhs:.5f} vs oracle {target:.5f} (ci {rep.ci_halfwidth:.5f})"
    )
    return _result(9, "concatenation factorization", checks, details)


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Star discrepancy self-consistency: the centered grid attains exactly
    1/(2n); cover brackets sandwich the exact value on random point sets; the
    1-d cover has exactly ceil(1/delta) nodes."""
    checks = []
    grid_err = 0.0
    for n in (2, 4, 8, 16):
        pts = PointSet(((2 * np.arange(1, n + 1) - 1) / (2 * n))[:, None])
        grid_err = max(grid_err, abs(star_discrepancy_exact(pts).value - 1 / (2 * n)))
    checks.append(grid_err <= 1e-15)
    rng = RngStream(seed).split(10)
    sandwich_ok = True
    for k in range(100):
        g = rng.split(k).gen
        n = int(g.integers(1, 33))
        d = int(g.integers(1, 3))
        delta = 0.1 if k % 2 == 0 else 0.05
        ps = PointSet(g.random((n, d)))
        exact = star_discrepancy_exact(ps).value
        lower, upper = star_discrepancy_cover(ps, delta)
        if not (lower <= exact + 1e-12 and exact <= lower + delta + 1e-12):
            sandwich_ok = False
        if abs(upper - (lower + delta)) > 1e-15:
            sandwich_ok = False
    checks.append(sandwich_ok)
    card_ok = all(
        len(build_delta_cover(1, delta)) == math.ceil(1 / delta)
        for delta in (1.0, 0.5, 0.3, 0.25, 0.1, 0.07)
    )
    checks.append(card_ok)
    details = f"grid_err={grid_err:.3g}, sandwich_ok={sandwich_ok}, cover_cardinality_ok={card_ok}"
    return _result(10, "star discrepancy self-consistency", checks, details)


def criterion_11(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Digital nets: the raw nets for (b,m,s) in {(2,3,1),(3,2,2),(5,2,3)}
    satisfy the net property before and after scrambling, and a pairwise
    sweep of the scrambled (3,2,2) net over a 4x4 anchor grid at 10^5
    replications yields no violation verdict."""
    rng = RngStream(seed).split(11)
    checks = []
    for k, (b, m, s) in enumerate([(2, 3, 1), (3, 2, 2), (5, 2, 3)]):
        checks.append(is_net(net_points(b, m, s), b, m, s))
        scrambled = sample(ScrambledNet(b, m, s), b**m, s, rng.split(k))
        checks.append(is_net(scrambled, b, m, s))
    net_ok = all(checks)
    spec = ScrambledNet(3, 2, 2)
    anchors = (0.2, 0.4, 0.6, 0.8)
    violations = 0
    for ui, u in enumerate(anchors):
        for vi, v in enumerate(anchors):
            rep1, rep0 = check_pairwise_nd(
                spec, 9, 2, CornerBox1((u, u)), CornerBox1((v, v)), 100_000,
                rng.split(100 + 4 * ui + vi),
            )
            if rep1.verdict == "violated" or rep0.verdict == "violated":
                violations += 1
    checks.append(violations == 0)
    details = f"net property ok={net_ok}, pairwise sweep violations={violations} of 16 pairs"
    return _result(11, "digital net scrambling and pairwise sweep", checks, details)


def criterion_12(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Symmetric-function maximum: the degree-t elementary symmetric
    polynomial on the scaled simplex is maximized at the centroid for every
    n_vars <= 8, t <= n_vars, and xi in {0.5, 1, 2}, each probed with 10^5
    random simplex draws."""
    rng = RngStream(seed).split(12)
    k = 0
    failures = 0
    total = 0
    for n_vars in range(1, 9):
        for t in range(1, n_vars + 1):
            for xi in (0.5, 1.0, 2.0):
                res = simplex_max_check(n_vars, t, xi, 100_000, rng.split(k))
                k += 1
                total += 1
                if not res.passes:
                    failures += 1
    checks = [failures == 0]
    details = f"{total} configurations, {failures} failures"
    return _result(12, "symmetric function simplex maximum", checks, details)


ALL_CRITERIA = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(seed: int = DEFAULT_SEED, criteria=None):
    """Run the selected criteria (None: all twelve) in id order and return
    their results, each with its elapsed_s set. An empty selection or an id
    outside 1..12 raises ValidationError before any criterion runs."""
    if criteria is None:
        criteria = range(1, 13)
    elif not (criteria and all(1 <= c <= 12 for c in criteria)):
        raise ValidationError(f"'criteria' must list ids in 1..12, got {list(criteria)}")
    results = []
    for cid in sorted(set(criteria)):
        t0 = time.perf_counter()
        result = ALL_CRITERIA[cid - 1](seed)
        results.append(replace(result, elapsed_s=time.perf_counter() - t0))
    return results
