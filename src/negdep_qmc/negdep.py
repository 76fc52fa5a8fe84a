"""Certification of negative-dependence properties of sampling schemes.

Each tester states its events once, as boxes for points 1, 2, ...: the
points fall each in its box (or, for the lower-orthant test, all outside
one box). Every box is a rectangle. One evaluator serves them all. When the
scheme has a closed-form two-point law (the min-copula pair, the four-slot
pair and the swap pair), the probabilities are exact and the interval has
zero width. Otherwise the events are counted over many independent
replications, drawn in chunks, and compared against product reference values
with a Wilson confidence interval. The verdict is three-valued: "violated"
only when lhs - ci > rhs, "holds" only when lhs + ci <= rhs, else
"inconclusive". The exact anchored-box laws of Latin hypercube, generalized
stratified and small rank-1 lattice sampling live beside their schemes in
`samplers`; they are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ValidationError
from .geometry import CornerBox0, CornerBox1, Interval, contains_points
from .samplers import (  # the scheme laws and sample_batch stay importable from negdep
    RngStream,
    SchemeSpec,
    corner_cells,  # noqa: F401
    gss_anchored_prob_exact,  # noqa: F401
    lhs_anchored_prob_exact,  # noqa: F401
    map_chunks,
    mixed_anchored_prob_exact,  # noqa: F401
    rsj_small_prob,  # noqa: F401
    sample_batch,  # noqa: F401
)

__all__ = [
    "DependenceReport",
    "FactorizationCheck",
    "CiNqdResult",
    "wilson_interval",
    "check_upper_nd",
    "check_lower_nd",
    "check_pairwise_nd",
    "check_conditional_nqd",
    "check_ci_nqd",
    "DEFAULT_CONFIDENCE",
]

DEFAULT_CONFIDENCE = 0.99
_MIN_CONDITION_HITS = 100
_FACTOR_GRID = (0.25, 0.5, 0.75)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class DependenceReport:
    """Outcome of one dependence test.

    verdict is "violated" only if lhs - ci_halfwidth > rhs and "holds" only
    if lhs + ci_halfwidth <= rhs; anything else is "inconclusive". For exact
    oracles ci_halfwidth is 0 and replications is 0.
    """

    notion: str
    scheme: str
    n: int
    d: int
    event: str
    lhs: float
    rhs: float
    ci_halfwidth: float
    verdict: str
    replications: int
    gamma: float = 1.0
    confidence: float = DEFAULT_CONFIDENCE
    method: str = "empirical"


@dataclass(frozen=True)
class FactorizationCheck:
    """One cross-coordinate product-factorization probe (a necessary condition
    for independence of per-coordinate point pairs, not a proof of it)."""

    coord_i: int
    coord_j: int
    q: float
    r: float
    s: float
    t2: float
    joint: float
    product: float
    deviation: float
    halfwidth: float
    consistent: bool


@dataclass(frozen=True)
class CiNqdResult:
    """Composite result of the coordinatewise-independent NQD test: the
    per-coordinate quadrant report plus factorization probes. Finite probes
    cannot certify full independence, so a consistent result is a necessary
    condition only."""

    primary: DependenceReport
    factorization: tuple


# ---------------------------------------------------------------------------
# Wilson intervals and verdicts


def wilson_interval(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE):
    """Wilson score interval for a binomial proportion; returns (lo, hi)."""
    if trials < 1:
        raise ValidationError("wilson interval needs at least one trial")
    if not (0.0 < confidence < 1.0):
        raise ValidationError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the score bounds are exactly 0 (resp. 1) at the sample extremes; pin
    # them so rounding residue cannot push an endpoint past a zero oracle
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _halfwidth(successes: int, trials: int, confidence: float) -> float:
    # symmetric conservative halfwidth: the larger one-sided Wilson excursion
    lo, hi = wilson_interval(successes, trials, confidence)
    phat = successes / trials
    return max(phat - lo, hi - phat)


def _verdict(lhs: float, ci: float, rhs: float) -> str:
    if lhs - ci > rhs:
        return "violated"
    if lhs + ci <= rhs:
        return "holds"
    return "inconclusive"


# ---------------------------------------------------------------------------
# Event evaluation: exact through the scheme's pair law, else counted over draws


def _exact_prob(spec, boxes, outside: bool) -> float:
    vol = boxes[0].volume()
    if len(boxes) == 1:
        return (1.0 - vol) if outside else vol
    both = spec.pair_prob(*(box.axes() for box in boxes))
    # all outside one box: inclusion-exclusion with uniform marginals
    return 1.0 - 2.0 * vol + both if outside else both


@dataclass(frozen=True)
class _Tally:
    """Event values of one test: exact probabilities (reps = 0), or event
    counts over `reps` replications."""

    values: list
    reps: int
    confidence: float

    @property
    def exact(self) -> bool:
        return self.reps == 0

    def share(self, k: int, base=None) -> float:
        """Event k's value over `base` (default: the replications, or 1 when exact)."""
        return self.values[k] / ((self.reps or 1) if base is None else base)

    def halfwidth(self, k: int, base=None) -> float:
        if self.exact:
            return 0.0
        return _halfwidth(self.values[k], self.reps if base is None else base, self.confidence)

    def versus_product(self, joint: int, a: int, b: int, base=None):
        """P(joint), P(a) P(b) and the halfwidth on their difference,
        hw(joint) + P(a) hw(b) + P(b) hw(a), all over `base` (see share)."""
        pa, pb = self.share(a, base), self.share(b, base)
        hw = self.halfwidth(joint, base) + pa * self.halfwidth(b, base)
        return self.share(joint, base), pa * pb, hw + pb * self.halfwidth(a, base)


def _tally(spec, n, d, events, reps, rng: RngStream, confidence) -> _Tally:
    """Evaluate events, each a pair (boxes, outside): points 1..len(boxes)
    fall each in its box, or with `outside` all outside the one box.

    A scheme with a pair law gets exact probabilities; otherwise the events
    are counted over `reps` chunked draws of the rows they read. On either
    path `reps` must be at least 1 and `confidence` lie in (0, 1), checked
    before anything is drawn.
    """
    if reps < 1:
        raise ValidationError("need at least one replication")
    if not (0.0 < confidence < 1.0):
        raise ValidationError("confidence must lie in (0, 1)")
    if getattr(spec, "pair_dim", None) is not None:
        spec.validate(n, d)
        return _Tally([_exact_prob(spec, *event) for event in events], 0, confidence)

    def counts(batch):
        out = []
        for boxes, outside in events:
            hit = contains_points(boxes[0], batch[:, 0, :]) != outside
            for j, box in enumerate(boxes[1:], 1):
                hit &= contains_points(box, batch[:, j, :]) != outside
            out.append(int(np.count_nonzero(hit)))
        return out

    rows = max(len(boxes) for boxes, _ in events)
    parts = map_chunks(spec, n, d, reps, rng, counts, rows)
    return _Tally([sum(col) for col in zip(*parts)], reps, confidence)


def _report(notion, spec, n, d, event, lhs, rhs, ci, tally: _Tally, gamma=1.0):
    return DependenceReport(
        notion=notion,
        scheme=spec.label(),
        n=n,
        d=d,
        event=event,
        lhs=float(lhs),
        rhs=float(rhs),
        ci_halfwidth=float(ci),
        verdict=_verdict(lhs, ci, rhs),
        replications=tally.reps,
        gamma=gamma,
        confidence=tally.confidence,
        method="exact" if tally.exact else "empirical",
    )


# ---------------------------------------------------------------------------
# Joint orthant testers


def _test_joint_nd(spec, n, d, box, t, reps, rng, gamma, confidence, complement):
    if not (1 <= t <= n):
        raise ValidationError("need 1 <= t <= n")
    if box.d != d:
        raise ValidationError("box dimension must equal d")
    if not (gamma > 0):
        raise ValidationError("gamma must be positive")
    vol = box.volume()
    notion = "lower_nd" if complement else "upper_nd"
    marginal = (1.0 - vol) if complement else vol
    rhs = gamma * marginal**t
    side = "outside" if complement else "in"
    event = f"points 1..{t} all {side} {box.label()}"
    tally = _tally(spec, n, d, [((box,) * t, complement)], reps, rng, confidence)
    lhs, ci = tally.share(0), tally.halfwidth(0)
    return _report(notion, spec, n, d, event, lhs, rhs, ci, tally, gamma)


def check_upper_nd(
    spec: SchemeSpec,
    n: int,
    d: int,
    box,
    t: int,
    reps: int,
    rng: RngStream,
    gamma: float = 1.0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> DependenceReport:
    """Test P(points 1..t all in box) <= gamma * vol(box)^t.

    Exchangeability of the schemes makes the first t rows representative of
    any t rows, so only those are drawn where the scheme has a prefix
    sampler. Analytic two-point schemes are evaluated exactly.
    """
    return _test_joint_nd(spec, n, d, box, t, reps, rng, gamma, confidence, False)


def check_lower_nd(
    spec: SchemeSpec,
    n: int,
    d: int,
    box,
    t: int,
    reps: int,
    rng: RngStream,
    gamma: float = 1.0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> DependenceReport:
    """Test P(points 1..t all outside box) <= gamma * (1 - vol(box))^t."""
    return _test_joint_nd(spec, n, d, box, t, reps, rng, gamma, confidence, True)


def check_pairwise_nd(
    spec: SchemeSpec,
    n: int,
    d: int,
    q_box: CornerBox1,
    r_box: CornerBox1,
    reps: int,
    rng: RngStream,
    confidence: float = DEFAULT_CONFIDENCE,
):
    """Test the two-point inequality P(p1 in Q, p2 in R) <= vol(Q) vol(R).

    Q and R are boxes anchored at the upper corner. Returns a pair of
    reports: the given upper-corner boxes, and the complementary test on the
    origin-anchored boxes [0, Q.lower) and [0, R.lower), which is reported
    alongside. n must be at least 2; points 1 and 2 are used.
    """
    if n < 2:
        raise ValidationError("pairwise tests need n >= 2")
    if not isinstance(q_box, CornerBox1) or not isinstance(r_box, CornerBox1):
        raise ValidationError("pairwise boxes must be anchored at the upper corner")
    if q_box.d != d or r_box.d != d:
        raise ValidationError("box dimension must equal d")
    pairs = [(q_box, r_box), (CornerBox0(q_box.lower), CornerBox0(r_box.lower))]
    tally = _tally(spec, n, d, [(pair, False) for pair in pairs], reps, rng, confidence)
    return tuple(
        _report(
            "pairwise_nd", spec, n, d, f"p1 in {q.label()}, p2 in {r.label()}",
            tally.share(k), q.volume() * r.volume(), tally.halfwidth(k), tally,
        )
        for k, (q, r) in enumerate(pairs)
    )


# ---------------------------------------------------------------------------
# Conditional and coordinatewise NQD


def _check_pair_test(n: int, d: int, i: int, *levels: float) -> None:
    if n < 2:
        raise ValidationError("pair tests need n >= 2")
    if not (1 <= i <= d):
        raise ValidationError("coordinate index i must satisfy 1 <= i <= d")
    if not all(0.0 <= level < 1.0 for level in levels):
        raise ValidationError("thresholds must lie in [0, 1)")


def _coordinate_box(d: int, i: int, level: float, head=None):
    """Coordinate i (1-based) at least `level`, coordinates 1..i-1 in `head`
    (a box in dimension i-1; None leaves them free), the rest free."""
    sides = [(0.0, 1.0)] * (i - 1) if head is None else head.axes()
    sides += [(level, 1.0)] + [(0.0, 1.0)] * (d - i)
    return Interval(*zip(*sides))


def check_conditional_nqd(
    spec: SchemeSpec,
    n: int,
    d: int,
    i: int,
    a_box,
    b_box,
    alpha: float,
    beta: float,
    reps: int,
    rng: RngStream,
    confidence: float = DEFAULT_CONFIDENCE,
) -> DependenceReport:
    """Conditional quadrant test on coordinate i (1-based).

    Conditioning on p1's first i-1 coordinates in a_box and p2's in b_box,
    tests P(p1_i >= alpha, p2_i >= beta | cond) <= P(p1_i >= alpha | cond)
    * P(p2_i >= beta | cond). i = 1 runs the unconditional per-coordinate
    test (a_box and b_box must be None). Empirical runs with fewer than 100
    conditioning hits return "inconclusive". The halfwidth on lhs - rhs sums
    three Wilson halfwidths at `confidence`: the joint's, and each marginal's
    times the other's estimate. By a union bound it covers with probability
    at least about 1 - 3(1 - confidence) (0.97 at 0.99), up to the
    second-order product of the two marginal halfwidths, which the sum omits.
    """
    _check_pair_test(n, d, i, alpha, beta)
    if i == 1 and (a_box is not None or b_box is not None):
        raise ValidationError("i = 1 is unconditional; conditioning boxes must be None")
    if i > 1:
        for name, box in (("a_box", a_box), ("b_box", b_box)):
            if box is not None and box.d != i - 1:
                raise ValidationError(f"{name} must live in dimension i-1 = {i - 1}")
    cond_desc = "unconditioned" if i == 1 else (
        f"p1[1:{i - 1}] in {a_box.label() if a_box is not None else 'full'}, "
        f"p2[1:{i - 1}] in {b_box.label() if b_box is not None else 'full'}"
    )
    event = f"coord {i}: p1 >= {alpha:g} and p2 >= {beta:g} | {cond_desc}"
    c1, c2 = _coordinate_box(d, i, 0.0, a_box), _coordinate_box(d, i, 0.0, b_box)
    t1, t2 = _coordinate_box(d, i, alpha, a_box), _coordinate_box(d, i, beta, b_box)
    events = [((c1, c2), False), ((t1, t2), False), ((t1, c2), False), ((c1, t2), False)]
    tally = _tally(spec, n, d, events, reps, rng, confidence)
    hits = tally.values[0]
    if tally.exact:
        if hits <= 0.0:
            raise ValidationError("conditioning event has probability zero")
    elif hits < _MIN_CONDITION_HITS:
        return _report(
            "conditional_nqd", spec, n, d, event + f" [only {hits} conditioning hits]",
            0.0, 0.0, 1.0, tally,
        )
    else:
        event += f" [{hits} hits]"
    lhs, rhs, ci = tally.versus_product(1, 2, 3, hits)  # (t1, t2) against (t1, c2), (c1, t2)
    return _report("conditional_nqd", spec, n, d, event, lhs, rhs, ci, tally)


def check_ci_nqd(
    spec: SchemeSpec,
    n: int,
    d: int,
    i: int,
    q: float,
    r: float,
    reps: int,
    rng: RngStream,
    confidence: float = DEFAULT_CONFIDENCE,
) -> CiNqdResult:
    """Per-coordinate quadrant test plus cross-coordinate factorization probes.

    Primary inequality: P(p1_i >= q, p2_i >= r) <= (1-q)(1-r), the reference
    being exact by uniform marginals. For every other coordinate j and each
    level g in 0.25, 0.5 and 0.75, the probe compares P(p1_i >= q, p2_i >= r,
    p1_j >= g, p2_j >= g) against the product of the two per-coordinate pair
    probabilities, with the halfwidth of `check_conditional_nqd` (zero for
    exact schemes, whose probes must agree to 1e-15). Probes are a necessary
    condition for cross-coordinate independence only: consistent probes do
    not prove it.
    """
    _check_pair_test(n, d, i, q, r)
    rhs = (1.0 - q) * (1.0 - r)
    event = f"coord {i}: p1 >= {q:g} and p2 >= {r:g}"
    probes = [(j, g) for j in range(1, d + 1) if j != i for g in _FACTOR_GRID]

    def pair(levels1, levels2):
        # p1 and p2 at least the given levels on the given coordinates (1-based)
        lowers = ([lv.get(k, 0.0) for k in range(1, d + 1)] for lv in (levels1, levels2))
        return tuple(CornerBox1(lower) for lower in lowers), False

    events = [pair({i: q}, {i: r})]
    for j, g in probes:
        events += [pair({i: q, j: g}, {i: r, j: g}), pair({j: g}, {j: g})]
    tally = _tally(spec, n, d, events, reps, rng, confidence)
    primary = _report("ci_nqd", spec, n, d, event, tally.share(0), rhs, tally.halfwidth(0), tally)
    checks = []
    for k, (j, g) in enumerate(probes):
        joint, product, hw = tally.versus_product(1 + 2 * k, 0, 2 + 2 * k)
        dev = joint - product
        tolerance = 1e-15 if tally.exact else hw
        checks.append(
            FactorizationCheck(i, j, q, r, g, g, joint, product, dev, hw, abs(dev) <= tolerance)
        )
    return CiNqdResult(primary, tuple(checks))
