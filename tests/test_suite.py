"""The property suite in tier-1: every quick check passes, and the check of
the second proof's lemmas fails on a wrong L_c, a wrong bit-sliced kernel
or a wrong symbolic D_c f."""

from pbent import constructions, linalg, suite
from pbent.suite import check_trinomial_second_derivatives, run_suite


def test_quick_suite_passes_every_check():
    records = run_suite(seed=0, level="quick")
    assert [r["name"] for r in records] == [name for name, _ in suite.ALL_CHECKS]
    assert [r["name"] for r in records if not r["passed"]] == []


def test_an_empty_name_list_runs_no_check():
    assert run_suite(seed=0, level="quick", names=[]) == []


def test_second_derivative_check_sees_a_wrong_linearized_coefficient(monkeypatch):
    def d_cubed(params, ctx, c, d):
        return constructions.linearized_second_derivative_coeff(
            params, ctx, c, ctx.frobenius(d, 1))

    assert check_trinomial_second_derivatives(0, "quick")[0]
    monkeypatch.setattr(suite, "linearized_second_derivative_coeff", d_cubed)
    passed, detail = check_trinomial_second_derivatives(0, "quick")
    assert not passed and "ker L_c" in detail


def test_second_derivative_check_sees_a_wrong_bit_sliced_kernel(monkeypatch):
    # a kernel that loses its last basis vector no longer equals ker L_c
    monkeypatch.setattr(suite, "f3_kernel", lambda mat, n: list(linalg.f3_kernel(mat, n))[:-1])
    passed, detail = check_trinomial_second_derivatives(0, "quick")
    assert not passed and "ker L_c" in detail


def test_second_derivative_check_sees_a_wrong_first_derivative_form(monkeypatch):
    def c_cubed(params, c, ctx=None):
        return constructions.trinomial_first_derivative_form(
            params, ctx.frobenius(c, 1), ctx)

    monkeypatch.setattr(suite, "trinomial_first_derivative_form", c_cubed)
    passed, detail = check_trinomial_second_derivatives(0, "quick")
    assert not passed and "symbolic D_c f" in detail
