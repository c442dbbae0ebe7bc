import random

import pytest

from pbent.cyclo import CycInt
from pbent.errors import PreconditionError
from pbent.funcrep import (PFunction, TraceForm, _matrix_column, _vandermonde,
                           _vandermonde3_column)
from pbent.gf import get_field
from pbent.linalg import axis_passes
from pbent.walsh import (_dft3_column, _dft_generic_column, _dual_data,
                         bent_via_derivatives, bent_via_second_derivative_sum, classify,
                         dual_iteration_check, extract_certificate,
                         inverse_walsh, is_bent, second_derivative_pointwise_sums,
                         second_derivative_triple_sum,
                         single_walsh_value, walsh_fast, walsh_naive,
                         NOT_BENT, REGULAR, WEAKLY_REGULAR)

F9 = get_field(3, 2)
F27 = get_field(3, 3)
F81 = get_field(3, 4)
F25 = get_field(5, 2)


def rand_f(ctx, rng):
    return PFunction(ctx, [rng.randrange(ctx.p) for _ in range(ctx.q)])


def quad(ctx):
    return TraceForm(ctx, [(ctx.one(), 2)]).truth_table()


def test_naive_zero_function_spike():
    s = walsh_naive(PFunction.zero(F27))
    assert s.values[0] == CycInt.integer(3, 27)
    assert all(v.is_zero() for v in s.values[1:])


def test_naive_linear_character_spike():
    a = F27.gen_power(4)
    f = TraceForm(F27, [(a, 1)]).truth_table()
    s = walsh_naive(f)
    for y in range(27):
        if y == a.index:
            assert s.values[y] == CycInt.integer(3, 27)
        else:
            assert s.values[y].is_zero()


def test_naive_n1_square():
    f = PFunction(get_field(3, 1), [0, 1, 1])
    s = walsh_naive(f)
    assert s.values[0] == CycInt(3, (1, 2))                      # 1 + 2w
    assert s.values[1] == CycInt.integer(3, 2) + CycInt.omega_pow(3, 2)
    assert s.values[2] == s.values[1]


def test_fast_equals_naive_random():
    rng = random.Random(21)
    for _ in range(40):
        f = rand_f(F27, rng)
        assert walsh_fast(f).values == walsh_naive(f).values
    for _ in range(5):
        f = rand_f(F81, rng)
        assert walsh_fast(f).values == walsh_naive(f).values


def test_fast_equals_naive_p5():
    ctx = get_field(5, 2)
    rng = random.Random(22)
    for _ in range(5):
        f = rand_f(ctx, rng)
        assert walsh_fast(f).values == walsh_naive(f).values


def test_single_walsh_value_matches_spectrum():
    rng = random.Random(23)
    f = rand_f(F81, rng)
    s = walsh_naive(f)
    for y in (0, 1, 13, 80):
        assert single_walsh_value(f, y) == s.values[y]


def test_inverse_roundtrip():
    rng = random.Random(24)
    for ctx in (F81, get_field(5, 3), get_field(7, 2)):
        for _ in range(5):
            f = rand_f(ctx, rng)
            assert inverse_walsh(walsh_naive(f)) == f
            assert inverse_walsh(walsh_fast(f)) == f
    assert inverse_walsh(walsh_fast(PFunction.zero(F27))) == PFunction.zero(F27)


def test_p3_column_maps_match_generic():
    # the unrolled p = 3 column maps of the per-axis kernel against the
    # generic size-p maps run at p = 3
    rng = random.Random(25)
    for length in (1, 2, 9):
        zw_rows = [[(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(length)]
                   for _ in range(3)]
        fp_rows = [[rng.randrange(3) for _ in range(length)] for _ in range(3)]
        for sign in (-1, 1):
            assert (list(map(list, _dft3_column(sign)(zw_rows)))
                    == list(map(list, _dft_generic_column(3, sign)(zw_rows))))
        for inverse in (False, True):
            generic = _matrix_column(_vandermonde(3, inverse), 3)
            assert (list(map(list, _vandermonde3_column(inverse)(fp_rows)))
                    == list(map(list, generic(fp_rows))))


def test_axis_passes_moves_every_entry():
    # a column map that rotates the rows adds 1 to every base-p digit; at
    # p = 3, n = 8 each pass reads its rows in runs of p^6 columns
    def rotate(rows):
        return rows[-1:] + rows[:-1]

    for p, n in ((3, 8), (5, 3)):
        out = axis_passes(list(range(p ** n)), p, n, rotate)
        for x in range(p ** n):
            y = sum(((x // p ** i + 1) % p) * p ** i for i in range(n))
            assert out[y] == x


def _dual_sum_index(ctx, dual, v):
    """Index of sum_j v_j beta_j, by field-element arithmetic."""
    acc = ctx.zero()
    for vj, beta in zip(ctx.from_index(v).coeffs, dual):
        acc = acc + ctx.elem(beta).scale(vj)
    return acc.index


def test_dual_permutation_matches_dual_basis_sums():
    fields = [get_field(3, 1), F27, F81, get_field(3, 4, (1, 1, 1, 1, 1)),
              get_field(5, 3), get_field(7, 2)]
    for ctx in fields:
        dual, perm = _dual_data(ctx)
        assert perm == [_dual_sum_index(ctx, dual, v) for v in range(ctx.q)]
    ctx = get_field(3, 12)
    dual, perm = _dual_data(ctx)
    rng = random.Random(26)
    for v in rng.sample(range(ctx.q), 2000):
        assert perm[v] == _dual_sum_index(ctx, dual, v)


def test_inverse_roundtrip_table_row():
    ctx, tf = __import__("pbent").parse_function_spec("p=3 n=4 f=Tr(x^4+g^10*x^22)")
    f = tf.truth_table()
    assert inverse_walsh(walsh_fast(f)) == f


def test_inverse_rejects_non_function_spectrum():
    f = quad(F9)
    s = walsh_fast(f)
    s.values[3] = s.values[3] + CycInt.integer(3, 1)
    with pytest.raises(PreconditionError):
        inverse_walsh(s)


def test_is_bent_examples():
    assert not is_bent(walsh_fast(PFunction.zero(F81)))
    assert is_bent(walsh_fast(quad(F81)))
    lin = TraceForm(F9, [(F9.one(), 1)]).truth_table()
    assert not is_bent(walsh_fast(lin))


def test_certificate_reconstructs_spectrum():
    for ctx in (F9, F81):
        f = quad(ctx)
        s = walsh_fast(f)
        cert = extract_certificate(s)
        assert cert.is_constant_sign()
        for y in range(ctx.q):
            assert cert.reconstruct(y) == s.values[y]
    # odd n: unit through the Gauss sum
    f1 = PFunction(get_field(3, 1), [0, 1, 1])
    s1 = walsh_fast(f1)
    cert1 = extract_certificate(s1)
    assert cert1.unit_kind == "imaginary"
    for y in range(3):
        assert cert1.reconstruct(y) == s1.values[y]


def test_certificate_requires_bent():
    with pytest.raises(PreconditionError):
        extract_certificate(walsh_fast(PFunction.zero(F9)))


def test_classify_baselines():
    assert classify(quad(F9)).variant == REGULAR
    c4 = classify(quad(F81))
    assert c4.variant == WEAKLY_REGULAR and c4.sign == -1
    assert classify(quad(get_field(3, 6))).variant == REGULAR
    assert classify(PFunction.zero(F9)).variant == NOT_BENT


def test_classify_binomial_weakly_regular():
    f = TraceForm(F81, [(F81.one(), 34), (F81.one(), 2)]).truth_table()
    cls = classify(f)
    assert cls.variant == WEAKLY_REGULAR
    assert cls.dual_bent is True


def test_convolution_identity():
    # |W_f(y)|^2 = sum_w w^Tr(yw) sum_v w^(D_{-w} f(v))
    rng = random.Random(25)
    for _ in range(3):
        f = rand_f(F27, rng)
        s = walsh_naive(f)
        for y_idx in (0, 5, 20):
            total = CycInt.zero(3)
            y = F27.from_index(y_idx)
            for w_idx in range(27):
                w = F27.from_index(w_idx)
                inner = [0, 0, 0]
                d = f.derivative(-w)
                for v in d.values:
                    inner[v] += 1
                term = CycInt.from_exponent_counts(3, inner)
                total = total + term * CycInt.omega_pow(3, F27.trace(y * w))
            assert total == s.values[y_idx].norm_sq()


def test_dual_iteration():
    f4 = quad(F81)
    rep = dual_iteration_check(f4)
    assert rep["passed"]
    # even function: the double dual is the function itself
    assert f4.reflect() == f4
    rep2 = dual_iteration_check(quad(F9))
    assert rep2["passed"]
    rep6 = dual_iteration_check(quad(get_field(3, 6)))
    assert rep6["passed"]


def test_dual_iteration_preconditions():
    with pytest.raises(PreconditionError):
        dual_iteration_check(PFunction.zero(F9))
    trinom = __import__("pbent").trinomial_bent(
        __import__("pbent").TrinomialParams(1, 2, 1)).truth_table()
    with pytest.raises(PreconditionError):
        dual_iteration_check(trinom)  # bent but not weakly regular


def test_bent_via_derivatives():
    assert not bent_via_derivatives(PFunction.zero(F9))
    assert bent_via_derivatives(quad(F81))
    rng = random.Random(26)
    for _ in range(60):
        f = rand_f(F9, rng)
        assert bent_via_derivatives(f) == is_bent(walsh_fast(f))


def test_bent_via_second_derivative_sum():
    assert not bent_via_second_derivative_sum(PFunction.zero(F9))
    assert bent_via_second_derivative_sum(quad(F9))
    rng = random.Random(27)
    for _ in range(40):
        f = rand_f(F9, rng)
        assert bent_via_second_derivative_sum(f) == is_bent(walsh_fast(f))


def test_second_derivative_pointwise_form():
    f = quad(F9)
    sums = second_derivative_pointwise_sums(f)
    assert all(v == CycInt.integer(3, 9) for v in sums)
    g = PFunction.zero(F9)
    sums0 = second_derivative_pointwise_sums(g)
    assert all(v == CycInt.integer(3, 81) for v in sums0)


def test_second_derivative_sums_match_direct_sum():
    rng = random.Random(38)
    for ctx in (F9, F25):
        p, q = ctx.p, ctx.q
        for f in (rand_f(ctx, rng), quad(ctx), PFunction.zero(ctx)):
            per_x = [[0] * p for _ in range(q)]
            for c in ctx.elements():
                for d in ctx.elements():
                    for x, v in enumerate(f.second_derivative(c, d).values):
                        per_x[x][v] += 1
            direct = [CycInt.from_exponent_counts(p, row) for row in per_x]
            sums = second_derivative_pointwise_sums(f)
            assert sums == direct
            total = second_derivative_triple_sum(f)
            assert total == sum(sums, CycInt.zero(p))
            assert total == CycInt.from_exponent_counts(p, [sum(col) for col in zip(*per_x)])


def test_weakly_regular_dual_derivatives_balanced():
    f = quad(F81)
    dual = extract_certificate(walsh_fast(f)).dual
    for b in range(1, 81):
        assert dual.derivative(F81.from_index(b)).is_balanced()


def test_classification_invariant_under_affine():
    rng = random.Random(28)
    funcs = [quad(F81),
             __import__("pbent").trinomial_bent(
                 __import__("pbent").TrinomialParams(1, 0, 1)).truth_table()]
    for f in funcs:
        ctx = f.ctx
        want = classify(f).variant
        for _ in range(5):
            c = ctx.from_index(rng.randrange(ctx.q))
            lin = TraceForm(ctx, [(c, 1)], rng.randrange(3)).truth_table()
            assert classify(f + lin).variant == want
