"""Closed-form probabilistic bounds on the star discrepancy of negatively
dependent sampling schemes.

Every formula is evaluated as printed, with natural logarithms, except the
weighted theta-form, which solves its c-form (`weighted_bound_theta`).
Success probabilities that fall outside [0, 1] are clamped and flagged, with
the raw value preserved in the result. Two parameterizations exist for most
bounds: a free-constant form (parameter c) whose success probability is a
formula in c, and a target-confidence form (parameter theta) whose value is
solved so the success probability is exactly theta. Which parameters a
formula needs is fixed by its signature: each takes exactly its parameters
as arguments, and checks their ranges (n, d >= 1, rho >= 0, c > 0,
0 < theta < 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .discrepancy import Weights
from .errors import ValidationError

__all__ = [
    "BoundResult",
    "hoeffding_tail",
    "boxdiff_bound",
    "boxdiff_bound_theta",
    "mixed_bound_theta",
    "corner_bound",
    "corner_bound_theta",
    "corner_eta",
    "corner_eta_consistent",
    "weighted_bound",
    "weighted_bound_theta",
]


@dataclass(frozen=True)
class BoundResult:
    """A formula's value and success probability; `details` maps the name of
    its auxiliary constant (xi, eta, c_effective or base_value) to its value."""

    formula: str
    bound_value: float
    success_prob: float
    clamped: bool
    raw_success_prob: float
    details: dict = field(default_factory=dict)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _clamped(formula, value, raw_success, **details) -> BoundResult:
    clipped = min(1.0, max(0.0, raw_success))
    return BoundResult(
        formula=formula,
        bound_value=float(value),
        success_prob=float(clipped),
        clamped=bool(clipped != raw_success),
        raw_success_prob=float(raw_success),
        details=details,
    )


def _check_ranges(n: int, d: int, rho: float, c=None, theta=None) -> None:
    """n and d at least 1, rho nonnegative, and the free parameter in range:
    c positive, or theta strictly inside (0, 1)."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    if d < 1:
        raise ValidationError("d must be at least 1")
    if not (rho >= 0.0):
        raise ValidationError("rho must be nonnegative")
    if theta is not None and not (0.0 < theta < 1.0):
        raise ValidationError("theta must lie strictly inside (0, 1)")
    if c is not None and not (c > 0.0):
        raise ValidationError("c must be positive")


def hoeffding_tail(n: int, t: float, gamma: float = 1.0) -> float:
    """Tail bound 2 * gamma * exp(-2 t^2 / n) for the centered count of points
    inside a fixed box, valid under a certified dependence multiplier gamma."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not (t >= 0):
        raise ValidationError("t must be nonnegative")
    if not (gamma > 0):
        raise ValidationError("gamma must be positive")
    return 2.0 * gamma * _exp(-2.0 * t * t / n)


def boxdiff_bound(n: int, d: int, c: float, rho: float = 0.0) -> BoundResult:
    """Discrepancy <= c sqrt(d/n) with success probability
    1 - exp(-(1.6741 c^2 - 10.7042 - rho) d), for box-difference-certified
    schemes with multiplier exp(rho d)."""
    _check_ranges(n, d, rho, c=c)
    value = c * math.sqrt(d / n)
    raw = 1.0 - _exp(-(1.6741 * c * c - 10.7042 - rho) * d)
    return _clamped("boxdiff_c", value, raw)


def boxdiff_bound_theta(n: int, d: int, theta: float, rho: float = 0.0) -> BoundResult:
    """The box-difference bound solved for a target success probability:
    value 0.7729 sqrt(10.7042 + rho + ln(1/(1-theta))/d) * sqrt(d/n)."""
    _check_ranges(n, d, rho, theta=theta)
    inner = 10.7042 + rho + math.log(1.0 / (1.0 - theta)) / d
    value = 0.7729 * math.sqrt(inner) * math.sqrt(d / n)
    return _clamped("boxdiff_theta", value, theta)


def mixed_bound_theta(n: int, d: int, theta: float, rho: float = 0.0) -> BoundResult:
    """Bound for a concatenation of two certified factors: exactly twice the
    box-difference theta-form value at the same parameters."""
    base = boxdiff_bound_theta(n, d, theta, rho)
    return _clamped("mixed_theta", 2.0 * base.bound_value, theta, base_value=base.bound_value)


def corner_bound(n: int, d: int, c: float, rho: float = 0.0) -> BoundResult:
    """Discrepancy <= c sqrt(d xi / n) with xi = max(1, ln(n/d)), success
    probability 1 - 2 exp((-(1/2)(c^2 - 1) xi + rho + ln(2e(2/c + 1))) d),
    for schemes certified on corner boxes alone."""
    _check_ranges(n, d, rho, c=c)
    xi = max(1.0, math.log(n / d))
    value = c * math.sqrt(d * xi / n)
    expo = (-0.5 * (c * c - 1.0) * xi + rho + math.log(2.0 * math.e * (2.0 / c + 1.0)))
    raw = 1.0 - 2.0 * _exp(expo * d)
    return _clamped("corner_c", value, raw, xi=xi)


def corner_eta(n: int, d: int) -> float:
    """The corner-bound auxiliary constant 6e max(1, n / (2 d ln(6e)))^(1/2)."""
    if n < 1 or d < 1:
        raise ValidationError("n and d must be at least 1")
    return 6.0 * math.e * math.sqrt(max(1.0, n / (2.0 * d * math.log(6.0 * math.e))))


def corner_eta_consistent(n: int, d: int) -> bool:
    """Numeric check of the sufficient condition behind the eta choice:
    (eta/(2e) - 1) sqrt(ln(eta)) >= sqrt(2 n / d)."""
    eta = corner_eta(n, d)
    return (eta / (2.0 * math.e) - 1.0) * math.sqrt(math.log(eta)) >= math.sqrt(2.0 * n / d)


def corner_bound_theta(n: int, d: int, theta: float, rho: float = 0.0) -> BoundResult:
    """The corner-box bound solved for a target success probability:
    value sqrt(2/n) sqrt(d ln(eta) + rho d + ln(2/(1-theta)))."""
    _check_ranges(n, d, rho, theta=theta)
    eta = corner_eta(n, d)
    inner = d * math.log(eta) + rho * d + math.log(2.0 / (1.0 - theta))
    value = math.sqrt(2.0 / n) * math.sqrt(inner)
    return _clamped("corner_theta", value, theta, eta=eta)


def _weighted_max(scale: float, weights: Weights, d: int, n: int) -> float:
    """max over nonempty coordinate subsets u of scale * weight(u) * sqrt(|u|/n),
    taken over each subset size k with the largest k-subset weight."""
    weights.check(d)
    return max(scale * weights.best(k, d) * math.sqrt(k / n) for k in range(1, d + 1))


def weighted_bound(n: int, d: int, c: float, weights: Weights, rho: float = 0.0) -> BoundResult:
    """Weighted discrepancy <= max_u c weight(u) sqrt(|u|/n) with success
    probability 2 - (1 + exp(-(1.674 c^2 - 10.7042 - rho)))^d."""
    _check_ranges(n, d, rho, c=c)
    value = _weighted_max(c, weights, d, n)
    raw = 2.0 - (1.0 + _exp(-(1.674 * c * c - 10.7042 - rho))) ** d
    return _clamped("weighted_c", value, raw)


def weighted_bound_theta(
    n: int, d: int, theta: float, weights: Weights, rho: float = 0.0
) -> BoundResult:
    """The weighted bound solved for a target success probability: c is the
    `c_effective` at which `weighted_bound`'s success probability is theta,
    c^2 = (10.7042 + rho - ln((2 - theta)^(1/d) - 1)) / 1.674.

    The printed form, sqrt(|rho + 10.7 + ln((2 - theta)^(1/d) - 1)| / 1.674),
    flips the logarithm's sign and rounds 10.7042: at d = 2, theta = 0.5 it
    gives c = 2.345, where the c-form's success probability is -27.9.
    """
    _check_ranges(n, d, rho, theta=theta)
    inner = (2.0 - theta) ** (1.0 / d) - 1.0
    if inner <= 0.0:
        raise ValidationError("theta is too close to 1 for the weighted bound")
    c_eff = math.sqrt((10.7042 + rho - math.log(inner)) / 1.674)
    value = _weighted_max(c_eff, weights, d, n)
    return _clamped("weighted_theta", value, theta, c_effective=c_eff)
