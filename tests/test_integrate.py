"""Test integrands, variance studies, and the symmetric-function simplex
maximum check."""

import math

import numpy as np
import pytest

from negdep_qmc import (
    CornerIndicator,
    LatinHypercube,
    MonteCarlo,
    NegProduct,
    ProductCoords,
    RngStream,
    SumCoords,
    ValidationError,
    elementary_symmetric,
    sample_batch,
    simplex_max_check,
    variance_study,
)
from negdep_qmc import integrate
from negdep_qmc.integrate import _esp_batch


# ---------------------------------------------------------------------------
# Integrands


def test_declared_integrals_match_quadrature():
    rng = RngStream(3)
    pts = rng.gen.random((200_000, 3))
    for f in (ProductCoords(), SumCoords(), CornerIndicator((0.3, 0.5, 0.2)), NegProduct()):
        mc = float(np.mean(f.evaluate(pts)))
        assert mc == pytest.approx(f.integral(3), abs=0.01), f.label


def test_describe_function_labels():
    assert ProductCoords().label == "product_coords"
    assert SumCoords().label == "sum_coords"
    assert CornerIndicator((0.3, 0.3)).label == "corner_indicator(0.3,0.3)"
    assert NegProduct().label == "neg_product"


@pytest.mark.parametrize("a", [(float("nan"), 0.5), (0.5, float("nan"))], ids=["nan-first", "nan-last"])
def test_a_corner_with_a_nan_coordinate_is_rejected(a):
    with pytest.raises(ValidationError, match="corner"):
        CornerIndicator(a)


def test_mean_of_lhs_estimates_is_unbiased():
    # Average of independent equal-weight estimates converges to the integral.
    rng = RngStream(5)
    reps, n, d = 3000, 8, 2
    f = ProductCoords()
    batch = sample_batch(LatinHypercube(), n, d, reps, rng)
    values = batch.prod(axis=2).mean(axis=1)
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - f.integral(d)) < 5 * se


# ---------------------------------------------------------------------------
# Variance studies


def test_variance_study_reports_reduction_for_latin_hypercube():
    study = variance_study(LatinHypercube(), ProductCoords(), 32, 2, 600, RngStream(13))
    assert study.scheme == "lhs" and study.function == "product_coords"
    assert study.var_scheme < study.var_mc
    assert study.ratio == pytest.approx(study.var_scheme / study.var_mc)
    assert study.ratio < 1.0 and study.ratio_stderr > 0.0


def test_variance_study_monte_carlo_against_itself_is_near_one():
    study = variance_study(MonteCarlo(), SumCoords(), 16, 2, 800, RngStream(17))
    assert abs(study.ratio - 1.0) < 6 * study.ratio_stderr + 0.2


def test_variance_study_rejects_tiny_replication_counts():
    with pytest.raises(ValidationError):
        variance_study(LatinHypercube(), ProductCoords(), 8, 2, 10, RngStream(0))


@pytest.mark.parametrize("a", [(0.3,), (0.3, 0.3)], ids=["shorter", "longer"])
def test_variance_study_checks_the_integrand_dimension_before_drawing(a, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the integrand's dimension")

    monkeypatch.setattr(integrate, "map_chunks", no_draws)
    with pytest.raises(ValidationError, match="dimension"):
        variance_study(LatinHypercube(), CornerIndicator(a), 16, 3, 100, RngStream(3))


# ---------------------------------------------------------------------------
# Elementary symmetric functions and the simplex maximum


def test_elementary_symmetric_known_values():
    assert elementary_symmetric([1.0, 2.0, 3.0], 0) == 1.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 1) == 6.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 2) == 11.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 3) == 6.0
    with pytest.raises(ValidationError):
        elementary_symmetric([1.0], 2)


def test_elementary_symmetric_matches_brute_force():
    from itertools import combinations

    rng = RngStream(23)
    x = rng.gen.random(6)
    for t in range(7):
        brute = sum(math.prod(c) for c in combinations(x, t)) if t else 1.0
        assert elementary_symmetric(x, t) == pytest.approx(brute, rel=1e-12)


def _esp_rows(x, t):
    """_esp_batch with the recurrence on the columns of an (M, t+1) array: the
    reference for the contiguous (t+1, M) version."""
    m, n = x.shape
    e = np.zeros((m, t + 1))
    e[:, 0] = 1.0
    for i in range(n):
        for j in range(min(t, i + 1), 0, -1):
            e[:, j] += x[:, i] * e[:, j - 1]
    return e[:, t]


@pytest.mark.parametrize("m", [1, 7, 2000])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_esp_batch_matches_the_row_major_recurrence(m, n):
    # _esp_batch takes (n, M): one variable per row, one point per column
    g = RngStream(m * 10 + n).gen
    e = g.exponential(1.0, size=(n, m))
    simplex = 0.7 * e / e.sum(axis=0)  # as simplex_max_check draws them
    wide = g.random((m, n)).T  # column-major input
    for x in (simplex, wide, 1e3 * g.standard_normal((n, m))):
        for t in range(1, n + 1):
            assert np.array_equal(_esp_batch(x, t), _esp_rows(x.T, t))


def test_simplex_max_attained_at_centroid():
    for n_vars, t, xi in [(3, 2, 1.0), (5, 3, 0.7), (8, 4, 2.0)]:
        res = simplex_max_check(n_vars, t, xi, 20_000, RngStream(n_vars * 10 + t))
        assert res.passes
        centroid = math.comb(n_vars, t) * (xi / n_vars) ** t
        assert res.centroid_value == pytest.approx(centroid)
        assert res.max_observed <= centroid * (1 + 1e-12)


def test_simplex_max_check_validates_inputs():
    with pytest.raises(ValidationError):
        simplex_max_check(4, 0, 1.0, 100, RngStream(0))
    with pytest.raises(ValidationError):
        simplex_max_check(9, 2, 1.0, 100, RngStream(0))
    with pytest.raises(ValidationError):
        simplex_max_check(4, 2, -1.0, 100, RngStream(0))


@pytest.mark.parametrize("xi, trials", [(1.0, 0), (1.0, -3), (math.inf, 100), (math.nan, 100),
                                        (-math.inf, 100)])
def test_simplex_max_check_refuses_no_trials_and_non_finite_xi(xi, trials):
    with pytest.raises(ValidationError):
        simplex_max_check(4, 2, xi, trials, RngStream(0))


def test_variance_study_refuses_a_zero_monte_carlo_variance():
    # no point reaches the corner at 1, so every estimate is 0
    with pytest.raises(ValidationError, match="Monte Carlo variance is zero"):
        variance_study(MonteCarlo(), CornerIndicator((1.0,)), 4, 1, 30, RngStream(3))
