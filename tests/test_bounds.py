"""Closed-form probabilistic bounds: parameter validation, monotonicity,
clamping, the weighted maximization, and internal consistency."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep_qmc import (
    ExplicitWeights,
    ProductWeights,
    ValidationError,
    boxdiff_bound,
    boxdiff_bound_theta,
    corner_bound,
    corner_bound_theta,
    corner_eta,
    corner_eta_consistent,
    hoeffding_tail,
    mixed_bound_theta,
    weighted_bound,
    weighted_bound_theta,
)


# ---------------------------------------------------------------------------
# Parameter plumbing


def test_params_validate_ranges():
    with pytest.raises(ValidationError):
        boxdiff_bound(0, 2, 3.0)
    with pytest.raises(ValidationError):
        corner_bound(4, 0, 3.0)
    with pytest.raises(ValidationError):
        boxdiff_bound_theta(4, 2, 0.5, rho=-0.1)
    with pytest.raises(ValidationError):
        corner_bound_theta(4, 2, 1.0)
    with pytest.raises(ValidationError):
        mixed_bound_theta(4, 2, 0.0)
    with pytest.raises(ValidationError):
        weighted_bound(4, 2, 0.0, ProductWeights((1.0, 1.0)))


def test_hoeffding_tail_values_and_monotonicity():
    assert hoeffding_tail(100, 10.0) == pytest.approx(2 * math.exp(-2.0))
    assert hoeffding_tail(100, 20.0) < hoeffding_tail(100, 10.0)
    assert hoeffding_tail(100, 10.0, gamma=3.0) == pytest.approx(6 * math.exp(-2.0))
    with pytest.raises(ValidationError):
        hoeffding_tail(0, 1.0)
    with pytest.raises(ValidationError):
        hoeffding_tail(100, -1.0)
    with pytest.raises(ValidationError, match="t must"):
        hoeffding_tail(100, float("nan"))
    with pytest.raises(ValidationError, match="gamma must"):
        hoeffding_tail(100, 1.0, gamma=float("nan"))


def test_weighted_bound_rejects_an_explicit_coordinate_above_d():
    table = {frozenset(u): 1.0 for k in (1, 2) for u in combinations(range(2), k)}
    assert weighted_bound(100, 2, 3.0, ExplicitWeights(table)).bound_value > 0.0
    with pytest.raises(ValidationError, match="above d = 2"):
        weighted_bound(100, 2, 3.0, ExplicitWeights({**table, frozenset({6}): 1.0}))


# ---------------------------------------------------------------------------
# Value structure


def test_bound_values_scale_as_inverse_sqrt_n():
    assert boxdiff_bound(400, 3, 4.0).bound_value == pytest.approx(
        boxdiff_bound(100, 3, 4.0).bound_value / 2
    )
    assert boxdiff_bound_theta(400, 3, 0.9).bound_value == pytest.approx(
        boxdiff_bound_theta(100, 3, 0.9).bound_value / 2
    )


def test_success_probability_increases_with_c():
    lo = boxdiff_bound(64, 2, 2.7).success_prob
    hi = boxdiff_bound(64, 2, 6.0).success_prob
    assert hi >= lo


def test_theta_bounds_grow_with_rho_and_theta():
    base = corner_bound_theta(256, 2, 0.9).bound_value
    more_dep = corner_bound_theta(256, 2, 0.9, rho=1.0).bound_value
    more_conf = corner_bound_theta(256, 2, 0.99).bound_value
    assert more_dep > base
    assert more_conf > base


def test_theta_bound_success_probability_is_theta():
    for fn in (boxdiff_bound_theta, corner_bound_theta):
        res = fn(128, 2, 0.75)
        assert res.success_prob == pytest.approx(0.75)
        assert not res.clamped


# Tolerances of the theta-form properties: floating-point rounding in the closed forms
MONOTONE_REL = 1e-12  # relative slack on "nondecreasing in theta, nonincreasing in n"
SOLVED_ABS = 1e-9  # absolute slack on "the c-form succeeds with probability >= theta"

THETA_FORMS = {
    "boxdiff_theta": lambda n, d, theta, rho, w: boxdiff_bound_theta(n, d, theta, rho),
    "mixed_theta": lambda n, d, theta, rho, w: mixed_bound_theta(n, d, theta, rho),
    "corner_theta": lambda n, d, theta, rho, w: corner_bound_theta(n, d, theta, rho),
    "weighted_theta": lambda n, d, theta, rho, w: weighted_bound_theta(n, d, theta, w, rho),
}


def _c_form_success(form, n, d, rho, w, res):
    """The raw success probability of the c-form at the theta-form's c, for the
    theta-forms solved from one; corner_theta rests on its own eta argument."""
    if form == "weighted_theta":
        return weighted_bound(n, d, res.details["c_effective"], w, rho).raw_success_prob
    if form == "corner_theta":
        return None
    value = res.details.get("base_value", res.bound_value)  # mixed is twice boxdiff
    return boxdiff_bound(n, d, value / math.sqrt(d / n), rho).raw_success_prob


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(THETA_FORMS)), st.integers(1, 50), st.data())
def test_theta_forms_are_monotone_and_solve_their_c_form(form, d, data):
    n1, n2 = sorted(data.draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=2)))
    theta = st.floats(1e-6, 1 - 1e-6)
    t1, t2 = sorted(data.draw(st.lists(theta, min_size=2, max_size=2)))
    rho = data.draw(st.floats(0.0, 5.0))
    w = ProductWeights(data.draw(st.lists(st.floats(0.0, 2.0), min_size=d, max_size=d)))
    bound = THETA_FORMS[form]
    for n in (n1, n2):
        low, high = bound(n, d, t1, rho, w), bound(n, d, t2, rho, w)
        assert low.bound_value <= high.bound_value * (1 + MONOTONE_REL)
        for t, res in ((t1, low), (t2, high)):
            assert res.success_prob == t and not res.clamped
            success = _c_form_success(form, n, d, rho, w, res)
            assert success is None or success >= t - SOLVED_ABS
    for t in (t1, t2):
        assert bound(n2, d, t, rho, w).bound_value <= bound(n1, d, t, rho, w).bound_value * (
            1 + MONOTONE_REL)


def test_weighted_theta_solves_the_c_form_at_the_printed_example():
    # the printed form gives c = 2.345 here, where the c-form's success probability is -27.9
    w = ProductWeights((1.0, 1.0))
    res = weighted_bound_theta(256, 2, 0.5, w)
    assert res.details["c_effective"] == pytest.approx(2.6993, abs=1e-4)
    assert weighted_bound(256, 2, res.details["c_effective"], w).raw_success_prob == pytest.approx(
        0.5, abs=SOLVED_ABS)


def test_mixed_bound_is_twice_the_single_block_bound():
    single = boxdiff_bound_theta(128, 4, 0.8, rho=0.3)
    double = mixed_bound_theta(128, 4, 0.8, rho=0.3)
    assert double.bound_value == pytest.approx(2 * single.bound_value)
    assert double.details["base_value"] == pytest.approx(single.bound_value)


def test_clamping_flags_low_c_and_preserves_raw():
    # c small enough makes the raw success probability negative: clamp to 0.
    res = boxdiff_bound(64, 2, 0.5)
    assert res.clamped
    assert res.success_prob == 0.0
    assert res.raw_success_prob < 0.0
    assert res.bound_value > 0.0  # the value itself is still reported


def test_corner_bound_reports_xi():
    res = corner_bound(1000, 2, 3.0)
    xi = res.details["xi"]
    assert xi == pytest.approx(max(1.0, math.log(1000 / 2)))
    assert res.bound_value == pytest.approx(3.0 * math.sqrt(2 * xi / 1000))


def test_corner_eta_consistency_grid():
    for n, d in [(16, 2), (100, 2), (1000, 3), (10_000, 4), (10, 10)]:
        eta = corner_eta(n, d)
        assert eta >= 6 * math.e - 1e-9
        assert corner_eta_consistent(n, d), (n, d)


def test_corner_theta_bound_reports_eta():
    res = corner_bound_theta(256, 2, 0.9)
    assert res.details["eta"] == pytest.approx(corner_eta(256, 2))
    assert res.bound_value == pytest.approx(0.3024827250254695, rel=1e-12)


# ---------------------------------------------------------------------------
# Weighted bounds


def test_weighted_bound_product_weights_picks_best_subset():
    # gamma = (2, 0.1): the singleton {0} scaled by sqrt(1/n) beats both the
    # other singleton and the pair; check against explicit enumeration.
    res = weighted_bound(100, 2, 3.0, ProductWeights((2.0, 0.1)))
    scale = 3.0 / math.sqrt(100)
    candidates = [2.0 * scale * math.sqrt(1), 0.1 * scale * math.sqrt(1),
                  0.2 * scale * math.sqrt(2)]
    assert res.bound_value == pytest.approx(max(candidates))


def test_weighted_bound_product_matches_explicit_enumeration():
    rng = np.random.default_rng(5)
    for trial in range(10):
        d = int(rng.integers(1, 6))
        gammas = rng.random(d) * 2
        n = int(rng.integers(10, 1000))
        c = float(rng.random() * 5 + 0.5)
        prod_res = weighted_bound(n, d, c, ProductWeights(tuple(gammas)))
        table = {}
        for size in range(1, d + 1):
            for u in combinations(range(d), size):
                table[frozenset(u)] = float(np.prod(gammas[list(u)]))
        expl_res = weighted_bound(n, d, c, ExplicitWeights(table))
        assert prod_res.bound_value == pytest.approx(expl_res.bound_value, rel=1e-12)


def test_weighted_theta_reports_effective_c():
    res = weighted_bound_theta(100, 3, 0.5, ProductWeights((1.0, 1.0, 1.0)))
    c_eff = res.details["c_effective"]
    assert c_eff > 0
    # the value equals the c-form value evaluated at c_effective
    same = weighted_bound(100, 3, c_eff, ProductWeights((1.0, 1.0, 1.0)))
    assert res.bound_value == pytest.approx(same.bound_value, rel=1e-12)


def test_weighted_theta_rejects_theta_too_close_to_one():
    # (2 - theta)^(1/d) - 1 <= 0 cannot happen for theta < 1... but the guard
    # also rejects underflow to a nonpositive inner term at extreme theta.
    with pytest.raises(ValidationError):
        weighted_bound_theta(100, 3, 1 - 1e-16, ProductWeights((1.0, 1.0, 1.0)))


def test_weighted_explicit_requires_every_subset():
    with pytest.raises(ValidationError):
        weighted_bound(100, 2, 3.0, ExplicitWeights({frozenset({0}): 1.0}))


def test_weighted_bound_dimension_cap_for_explicit_enumeration():
    with pytest.raises(ValidationError):
        weighted_bound(100, 21, 3.0, ExplicitWeights({frozenset({0}): 1.0}))


def test_bound_result_details_name_each_formulas_extras():
    # cli.cmd_bounds reads these keys by name into its xi/eta/c_effective columns
    w = ProductWeights((1.0, 1.0))
    assert boxdiff_bound(100, 2, 3.0).details == {}
    assert boxdiff_bound_theta(100, 2, 0.9).details == {}
    assert weighted_bound(100, 2, 3.0, w).details == {}
    assert set(corner_bound(100, 2, 3.0).details) == {"xi"}
    assert set(corner_bound_theta(100, 2, 0.9).details) == {"eta"}
    assert set(mixed_bound_theta(100, 2, 0.9).details) == {"base_value"}
    assert set(weighted_bound_theta(100, 2, 0.9, w).details) == {"c_effective"}


def test_corner_eta_refuses_an_empty_configuration():
    with pytest.raises(ValidationError, match="n and d must be at least 1"):
        corner_eta(0, 1)


def test_an_overflowing_exponential_is_infinite():
    # exp((10.7042 + 800) d) overflows a double: the raw success probability is -inf
    res = boxdiff_bound(1, 1, 1.0, rho=800.0)
    assert res.raw_success_prob == -math.inf
    assert res.success_prob == 0.0 and res.clamped
