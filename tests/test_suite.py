"""The property suite in tier-1: it runs the paper's 11 checks, every quick
check passes, and the check of the second proof's lemmas fails on a wrong
L_c, a wrong bit-sliced kernel or a wrong symbolic D_c f."""

from pbent import constructions, suite
from pbent.suite import check_trinomial_second_derivatives, run_suite


PAPER_CHECKS = [
    "criteria_agreement", "cubic_like_certificates", "quadratic_balance_biconditional",
    "classification_ea_invariance", "wr_sound_identity", "trinomial_family",
    "trinomial_second_derivatives", "trinomial_closed_forms", "catalog", "mm_special_form",
    "dual_derivative_balance"]


def test_quick_suite_passes_every_check():
    records = run_suite(seed=0, level="quick")
    assert [name for name, _ in suite.ALL_CHECKS] == PAPER_CHECKS
    assert [r["name"] for r in records] == PAPER_CHECKS
    assert [r["name"] for r in records if not r["passed"]] == []


def test_an_empty_name_list_runs_no_check():
    assert run_suite(seed=0, level="quick", names=[]) == []


def test_second_derivative_check_sees_a_wrong_linearized_coefficient(monkeypatch):
    def d_cubed(params, c, d):
        return constructions.linearized_second_derivative_coeff(
            params, c, c.ctx.frobenius(d, 1))

    assert check_trinomial_second_derivatives(0, "quick")[0]
    monkeypatch.setattr(suite, "linearized_second_derivative_coeff", d_cubed)
    passed, detail = check_trinomial_second_derivatives(0, "quick")
    assert not passed and "ker L_c" in detail


def test_second_derivative_check_sees_a_wrong_first_derivative_form(monkeypatch):
    def c_cubed(params, c):
        return constructions.trinomial_first_derivative_form(
            params, c.ctx.frobenius(c, 1))

    monkeypatch.setattr(suite, "trinomial_first_derivative_form", c_cubed)
    passed, detail = check_trinomial_second_derivatives(0, "quick")
    assert not passed and "symbolic D_c f" in detail
