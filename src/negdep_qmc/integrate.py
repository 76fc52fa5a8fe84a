"""Test integrands, variance-reduction studies, and the elementary-symmetric
maximization check.

Each integrand owns `evaluate(pts)` over the last axis of `pts`, its exact
`integral(d)` and the `label` written to the CSV `function` column. An
integrand is quasimonotone when its alternating sum over the 2^d corners of
every interval [a, b), signed to equal f(b) - f(a) in one dimension, is
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# e_t lives in samplers, beside the generalized stratified law that reads it
from .samplers import (MonteCarlo, RngStream, SchemeSpec, _esp_batch, elementary_symmetric,
                       map_chunks)

__all__ = [
    "ProductCoords",
    "SumCoords",
    "CornerIndicator",
    "NegProduct",
    "variance_study",
    "VarianceStudy",
    "simplex_max_check",
    "SimplexMaxResult",
    "elementary_symmetric",
]

_CENTROID_RTOL = 1e-12  # relative slack of the simplex samples over the centroid value


@dataclass(frozen=True)
class ProductCoords:
    """f(x) = prod_i x_i; integral 2^-d; quasimonotone."""

    label = "product_coords"

    def evaluate(self, pts):
        return np.prod(pts, axis=-1)

    def integral(self, d):
        return 0.5**d


@dataclass(frozen=True)
class SumCoords:
    """f(x) = sum_i x_i; integral d/2; quasimonotone (the corner sums
    vanish for d >= 2)."""

    label = "sum_coords"

    def evaluate(self, pts):
        return np.sum(pts, axis=-1)

    def integral(self, d):
        return d / 2


@dataclass(frozen=True)
class CornerIndicator:
    """f(x) = 1 if x >= a componentwise; integral prod(1 - a_i); quasimonotone."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not (np.all(arr >= 0) and np.all(arr <= 1)):  # NaN fails both
            raise ValidationError("corner must lie in [0,1]^d")
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def label(self) -> str:
        return "corner_indicator(" + ",".join(f"{x:g}" for x in self.a) + ")"

    def evaluate(self, pts):
        return np.all(np.asarray(pts, dtype=float) >= self.a, axis=-1).astype(float)

    def integral(self, d):
        if d != self.a.size:
            raise ValidationError(f"corner indicator has dimension {self.a.size}, not d = {d}")
        return float(np.prod(1.0 - self.a))


@dataclass(frozen=True)
class NegProduct:
    """f(x) = -prod_i x_i; monotone decreasing, not quasimonotone for d >= 1."""

    label = "neg_product"

    def evaluate(self, pts):
        return -np.prod(pts, axis=-1)

    def integral(self, d):
        return -(0.5**d)


# ---------------------------------------------------------------------------
# Variance study


@dataclass(frozen=True)
class VarianceStudy:
    scheme: str
    function: str
    n: int
    d: int
    replications: int
    var_scheme: float
    var_mc: float
    ratio: float
    ratio_stderr: float


def _estimator_values(spec, f, n, d, reps, rng: RngStream) -> np.ndarray:
    return np.concatenate(map_chunks(spec, n, d, reps, rng, lambda b: f.evaluate(b).mean(axis=1)))


def _var_of_sample_variance(x: np.ndarray) -> float:
    # large-sample: Var(s^2) ~ (m4 - s^4)/R
    r = x.size
    centered = x - x.mean()
    m4 = float(np.mean(centered**4))
    s2 = float(np.var(x, ddof=1))
    return max(0.0, (m4 - s2**2) / r)


def variance_study(
    spec: SchemeSpec, f, n: int, d: int, reps: int, rng: RngStream
) -> VarianceStudy:
    """Compare the scheme's estimator variance against Monte Carlo.

    Runs `reps` independent replications of each; the ratio's standard error
    comes from the delta method on two independent sample variances. An
    integrand of another dimension than d is refused before any draw.
    """
    if reps < 30:
        raise ValidationError("variance study needs at least 30 replications")
    f.integral(d)  # only for its check of the dimension
    est_a = _estimator_values(spec, f, n, d, reps, rng.split(0))
    est_m = _estimator_values(MonteCarlo(), f, n, d, reps, rng.split(1))
    var_a = float(np.var(est_a, ddof=1))
    var_m = float(np.var(est_m, ddof=1))
    if var_m == 0.0:
        raise ValidationError("Monte Carlo variance is zero; ratio undefined")
    ratio = var_a / var_m
    spread = _var_of_sample_variance(est_a) / var_m**2 + (
        var_a**2 / var_m**4
    ) * _var_of_sample_variance(est_m)
    return VarianceStudy(
        scheme=spec.label(),
        function=f.label,
        n=n,
        d=d,
        replications=reps,
        var_scheme=var_a,
        var_mc=var_m,
        ratio=ratio,
        ratio_stderr=math.sqrt(spread),
    )


# ---------------------------------------------------------------------------
# The simplex maximum of the elementary symmetric polynomial e_t


@dataclass(frozen=True)
class SimplexMaxResult:
    passes: bool
    n_vars: int
    t: int
    xi: float
    centroid_value: float
    max_observed: float
    trials: int


def simplex_max_check(
    n_vars: int, t: int, xi: float, trials: int, rng: RngStream
) -> SimplexMaxResult:
    """Check that e_t on the scaled simplex {x >= 0, sum x = xi} is maximized
    at the centroid, by random simplex sampling (normalized exponentials)."""
    if not (1 <= t <= n_vars):
        raise ValidationError("need 1 <= t <= n_vars")
    if n_vars > 8:
        raise ValidationError("n_vars limited to 8 at desk scale")
    if xi <= 0:
        raise ValidationError("xi must be positive")
    g = rng.gen
    e = g.exponential(1.0, size=(trials, n_vars))
    x = xi * e / e.sum(axis=1, keepdims=True)
    vals = _esp_batch(x, t)
    centroid = math.comb(n_vars, t) * (xi / n_vars) ** t
    max_obs = float(vals.max())
    return SimplexMaxResult(
        passes=max_obs <= centroid * (1.0 + _CENTROID_RTOL),
        n_vars=n_vars,
        t=t,
        xi=float(xi),
        centroid_value=centroid,
        max_observed=max_obs,
        trials=trials,
    )
