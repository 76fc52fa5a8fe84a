"""Acceptance gate: twelve end-to-end criteria, one test each.

Every test prints a single machine-greppable line

    ACCEPTANCE <id> PASS|FAIL <name>: <details>

and fails if its criterion fails. Run with `pytest -s tests/test_acceptance.py`
to see the lines; `negdep-qmc report` produces the same results as CSV/JSON.
"""

import pytest

from negdep_qmc import ValidationError, acceptance
from negdep_qmc.acceptance import ALL_CRITERIA, DEFAULT_SEED, CriterionResult

CRITERIA = {i + 1: fn for i, fn in enumerate(ALL_CRITERIA)}


def _run(cid: int) -> CriterionResult:
    result = CRITERIA[cid](DEFAULT_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.cid:02d} {status} {result.name}: {result.details}")
    assert result.cid == cid
    return result


def test_acceptance_01_min_copula_exact_violation():
    result = _run(1)
    assert result.passed, result.details


def test_acceptance_02_four_slot_conditional_violation():
    result = _run(2)
    assert result.passed, result.details


def test_acceptance_03_swap_pair_violation_and_conditional_equality():
    result = _run(3)
    assert result.passed, result.details


def test_acceptance_04_small_lattice_triple_capture():
    result = _run(4)
    assert result.passed, result.details


def test_acceptance_05_latin_hypercube_oracle_vs_simulation():
    result = _run(5)
    assert result.passed, result.details


def test_acceptance_06_corner_bound_at_desk_scale():
    result = _run(6)
    assert result.passed, result.details


def test_acceptance_07_binomial_tail_bound():
    result = _run(7)
    assert result.passed, result.details


def test_acceptance_08_variance_reduction_vs_monte_carlo():
    result = _run(8)
    assert result.passed, result.details


def test_acceptance_09_concatenation_factorization():
    result = _run(9)
    assert result.passed, result.details


def test_acceptance_10_star_discrepancy_self_consistency():
    result = _run(10)
    assert result.passed, result.details


def test_acceptance_11_digital_net_scrambling_and_pairwise_sweep():
    result = _run(11)
    assert result.passed, result.details


def test_acceptance_12_symmetric_function_simplex_maximum():
    result = _run(12)
    assert result.passed, result.details


@pytest.mark.parametrize("criteria", [[], [0], [1, 13]], ids=["empty", "zero", "thirteen"])
def test_run_all_rejects_bad_selection_before_running(criteria, monkeypatch):
    # an empty list used to run all twelve criteria; no criterion may start here
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", ())
    with pytest.raises(ValidationError):
        acceptance.run_all(criteria=criteria)
