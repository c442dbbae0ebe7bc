import random

import pytest

from pbent.cyclo import CycInt
from pbent.errors import PreconditionError
from pbent.funcrep import PFunction, TraceForm
from pbent.gf import get_field
from pbent.linalg import axis_passes
from pbent.walsh import (_dft3_column, _dft_generic_column,
                         _second_derivative_counts,
                         bent_via_derivatives, bent_via_second_derivative_sum, classify,
                         dual_iteration_check, extract_certificate, inverse_sums,
                         is_bent, second_derivative_triple_sum,
                         single_walsh_value, walsh_fast, walsh_naive, WalshSpectrum,
                         NOT_BENT, REGULAR, WEAKLY_REGULAR)
from digit_oracle import index_add
from ring_oracle import Zw, bent_value

F9 = get_field(3, 2)
F27 = get_field(3, 3)
F81 = get_field(3, 4)
F25 = get_field(5, 2)


def rand_f(ctx, rng):
    return PFunction(ctx, [rng.randrange(ctx.p) for _ in range(ctx.q)])


def quad(ctx):
    return TraceForm(ctx, [(ctx.one(), 2)]).truth_table()


def reconstruct(cert, y):
    """W(y) = sign(y) * unit * p^(n/2) * w^(dual(y)) rebuilt from a bent
    certificate, with the Gauss sum as the unit for odd n, in the ring
    oracle's arithmetic: the oracle of `extract_certificate`."""
    return bent_value(cert.ctx.p, cert.ctx.n, cert.signs[y], cert.dual.values[y])


def assert_inverts(s, f):
    """The inverse sums of the spectrum s are q * w^f(x) at every x."""
    ctx = s.ctx
    sums = inverse_sums(ctx, s.coords)
    assert sums == [(Zw.omega_pow(ctx.p, v) * ctx.q).coords for v in f.values]


def test_naive_zero_function_spike():
    s = walsh_naive(PFunction(F27, [0] * F27.q))
    assert s.coords[0] == Zw.integer(3, 27).coords
    assert not any(map(any, s.coords[1:]))


def test_naive_linear_character_spike():
    a = F27.gen_power(4)
    f = TraceForm(F27, [(a, 1)]).truth_table()
    s = walsh_naive(f).coords
    for y in range(27):
        if y == a.index:
            assert s[y] == Zw.integer(3, 27).coords
        else:
            assert not any(s[y])


def test_naive_n1_square():
    f = PFunction(get_field(3, 1), [0, 1, 1])
    s = walsh_naive(f)
    assert s.coords[0] == (1, 2)                                 # 1 + 2w
    assert s.coords[1] == (Zw.integer(3, 2) + Zw.omega_pow(3, 2)).coords
    assert s.coords[2] == s.coords[1]


def test_fast_equals_naive_random():
    rng = random.Random(21)
    for _ in range(200):
        f = rand_f(F27, rng)
        assert walsh_fast(f).coords == walsh_naive(f).coords
    for _ in range(5):
        f = rand_f(F81, rng)
        assert walsh_fast(f).coords == walsh_naive(f).coords


def test_fast_equals_naive_p5():
    ctx = get_field(5, 2)
    rng = random.Random(22)
    for _ in range(5):
        f = rand_f(ctx, rng)
        assert walsh_fast(f).coords == walsh_naive(f).coords


@pytest.mark.parametrize("p, n", [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (11, 1),
                                  (11, 2), (89, 1)])
def test_fast_equals_naive_generic_column(p, n):
    # n = 1 runs the generic column on single columns, n >= 2 on runs of
    # p^(n-1) columns; the zero function has no nonzero coordinate to add
    ctx = get_field(p, n)
    rng = random.Random(p * 10 + n)
    for f in (rand_f(ctx, rng), rand_f(ctx, rng), PFunction(ctx, [0] * ctx.q)):
        assert walsh_fast(f).coords == walsh_naive(f).coords


def test_single_walsh_value_matches_spectrum():
    rng = random.Random(23)
    f = rand_f(F81, rng)
    s = walsh_naive(f)
    for y in (0, 1, 13, 80):
        assert single_walsh_value(f, y).coords == s.coords[y]


def test_inverse_roundtrip():
    rng = random.Random(24)
    for ctx in (F81, get_field(5, 3), get_field(7, 2)):
        for _ in range(5):
            f = rand_f(ctx, rng)
            assert_inverts(walsh_naive(f), f)
            assert_inverts(walsh_fast(f), f)
    zero = PFunction(F27, [0] * F27.q)
    assert_inverts(walsh_fast(zero), zero)


@pytest.mark.parametrize("p, n", [(3, n) for n in range(1, 6)] + [(5, n) for n in range(1, 4)]
                         + [(7, 1), (7, 2)])
def test_inverse_sums_match_the_direct_double_sum(p, n):
    # on seeded signed coordinates, a fifth of them zero, not on a spectrum:
    # sum_y d(y) w^Tr(xy) at every x, with Tr(xy) from field products and
    # the sum in the ring oracle's arithmetic, grouped by Tr(xy)
    ctx = get_field(p, n)
    rng = random.Random(7 * p + n)
    zero = Zw.integer(p, 0)
    d = [zero.coords if rng.random() < 0.2 else tuple(rng.randint(-9, 9) for _ in range(p - 1))
         for _ in range(ctx.q)]
    elems = list(map(ctx.from_index, range(ctx.q)))
    expected = []
    for x in elems:
        by_trace = [zero] * p
        for y, v in zip(elems, d):
            t = ctx.trace(x * y)
            by_trace[t] = by_trace[t] + Zw(p, v)
        total = zero
        for t, v in enumerate(by_trace):
            total = total + v * Zw.omega_pow(p, t)
        expected.append(total.coords)
    assert inverse_sums(ctx, d) == expected


def test_p3_column_maps_match_generic():
    # the unrolled p = 3 DFT column map of the per-axis kernel against the
    # generic size-p map run at p = 3
    rng = random.Random(25)
    for length in (1, 2, 9):
        zw_rows = [[(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(length)]
                   for _ in range(3)]
        assert (list(map(list, _dft3_column(zw_rows)))
                == list(map(list, _dft_generic_column(3)(zw_rows))))


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


def _dual_coordinates_index(ctx, y):
    """Index of (Tr(alpha^j y))_j, by field-element products."""
    alpha_powers = [ctx.from_index(ctx.p ** j) for j in range(ctx.n)]
    return ctx.to_index([ctx.trace(a * ctx.from_index(y)) for a in alpha_powers])


def test_dual_table_reads_trace_dual_coordinates():
    fields = [get_field(3, 1), F27, F81, get_field(3, 4, (1, 1, 1, 1, 1)),
              get_field(5, 3), get_field(7, 2)]
    for ctx in fields:
        assert list(ctx.dual_table) == [_dual_coordinates_index(ctx, y) for y in range(ctx.q)]
    ctx = get_field(3, 12)
    table = ctx.dual_table
    rng = random.Random(26)
    for y in rng.sample(range(ctx.q), 2000):
        assert table[y] == _dual_coordinates_index(ctx, y)


@pytest.mark.parametrize("p, n", [(p, n) for p in (3, 5, 7) for n in range(1, 7)])
def test_field_index_tables_match_their_oracles(p, n):
    # the trace-dual table at every point of a field of up to 2,000 points,
    # at a seeded 2,000 of a larger one
    ctx = get_field(p, n)
    dual = ctx.dual_table
    assert ctx.neg_table.tolist() == [index_add(p, 0, y, -1) for y in range(ctx.q)]
    for y in random.Random(27).sample(range(ctx.q), min(ctx.q, 2000)):
        assert dual[y] == _dual_coordinates_index(ctx, y)
    inverse = [None] * ctx.q  # the inverse permutation: dual is one-to-one
    for y, v in enumerate(dual):
        inverse[v] = y
    assert None not in inverse


def test_inverse_roundtrip_table_row():
    ctx, tf = __import__("pbent").parse_function_spec("p=3 n=4 f=Tr(x^4+g^10*x^22)")
    f = tf.truth_table()
    assert_inverts(walsh_fast(f), f)


def test_is_bent_examples():
    assert not is_bent(walsh_fast(PFunction(F81, [0] * F81.q)))
    assert is_bent(walsh_fast(quad(F81)))
    lin = TraceForm(F9, [(F9.one(), 1)]).truth_table()
    assert not is_bent(walsh_fast(lin))


def test_certificate_reconstructs_spectrum():
    for ctx in (F9, F81):
        f = quad(ctx)
        s = walsh_fast(f)
        cert = extract_certificate(s)
        assert cert.is_constant_sign()
        coords = s.coords
        for y in range(ctx.q):
            assert reconstruct(cert, y).coords == coords[y]
    # odd n: unit through the Gauss sum
    f1 = PFunction(get_field(3, 1), [0, 1, 1])
    s1 = walsh_fast(f1)
    cert1 = extract_certificate(s1)
    assert cert1.unit_kind == "imaginary"
    coords = s1.coords
    for y in range(3):
        assert reconstruct(cert1, y).coords == coords[y]


def test_certificate_requires_bent():
    with pytest.raises(PreconditionError):
        extract_certificate(walsh_fast(PFunction(F9, [0] * F9.q)))


def test_classify_baselines():
    assert classify(quad(F9)).variant == REGULAR
    c4 = classify(quad(F81))
    assert c4.variant == WEAKLY_REGULAR and c4.sign == -1
    assert classify(quad(get_field(3, 6))).variant == REGULAR
    assert classify(PFunction(F9, [0] * F9.q)).variant == NOT_BENT


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
            total = Zw.integer(3, 0)
            y = F27.from_index(y_idx)
            for w_idx in range(27):
                w = F27.from_index(w_idx)
                inner = [0, 0, 0]
                d = f.derivative(-w)
                for v in d.values:
                    inner[v] += 1
                term = Zw.from_exponent_counts(3, inner)
                total = total + term * Zw.omega_pow(3, F27.trace(y * w))
            assert total == Zw(3, s.coords[y_idx]).norm_sq()


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
        dual_iteration_check(PFunction(F9, [0] * F9.q))
    trinom = __import__("pbent").trinomial_bent(
        __import__("pbent").TrinomialParams(1, 2, 1)).truth_table()
    with pytest.raises(PreconditionError):
        dual_iteration_check(trinom)  # bent but not weakly regular


def test_bent_via_derivatives():
    assert not bent_via_derivatives(PFunction(F9, [0] * F9.q))
    assert bent_via_derivatives(quad(F81))
    rng = random.Random(26)
    for _ in range(60):
        f = rand_f(F9, rng)
        assert bent_via_derivatives(f) == is_bent(walsh_fast(f))


def test_bent_via_second_derivative_sum():
    assert not bent_via_second_derivative_sum(PFunction(F9, [0] * F9.q))
    assert bent_via_second_derivative_sum(quad(F9))
    rng = random.Random(27)
    for _ in range(40):
        f = rand_f(F9, rng)
        assert bent_via_second_derivative_sum(f) == is_bent(walsh_fast(f))


def test_second_derivative_triple_sum_values():
    # bent: the sum is q at every x, q^2 in all; zero: q^2 at every x
    assert second_derivative_triple_sum(quad(F9)) == (81, 0)
    zero = PFunction(F9, [0] * F9.q)
    assert second_derivative_triple_sum(zero) == (729, 0)


def test_second_derivative_sums_match_direct_sum():
    rng = random.Random(38)
    for ctx in (F9, F25):
        p, q = ctx.p, ctx.q
        for f in (rand_f(ctx, rng), quad(ctx), PFunction(ctx, [0] * ctx.q)):
            per_x = [[0] * p for _ in range(q)]
            for c in map(ctx.from_index, range(q)):
                for d in map(ctx.from_index, range(q)):
                    for x, v in enumerate(f.second_derivative(c, d).values):
                        per_x[x][v] += 1
            columns = [sum(col) for col in zip(*per_x)]
            assert _second_derivative_counts(f) == columns
            assert second_derivative_triple_sum(f) == CycInt.from_exponent_counts(p, columns).coords


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


def test_a_bent_spectrum_is_its_own_certificate():
    import pbent
    assert not hasattr(pbent, "BentCertificate")
    for f in (quad(F81), PFunction(get_field(3, 1), [0, 1, 1])):
        s = walsh_fast(f)
        assert s._dual is None
        assert extract_certificate(s) is s
        dual = s._dual
        assert dual is not None and s.dual is dual and extract_certificate(s).dual is dual


def test_certificate_members_of_a_spectrum_that_is_not_bent_are_refused():
    s = walsh_fast(PFunction(F9, [0] * F9.q))
    for read in (lambda: s.dual, lambda: s.signs, s.sign_histogram, s.is_constant_sign):
        with pytest.raises(PreconditionError):
            read()


def test_spectrum_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError):
        WalshSpectrum(get_field(3, 1), [(0, 0)] * 2, "fast")


def test_classification_equality_reads_variant_sign_and_dual_flag():
    from pbent.walsh import NON_WEAKLY_REGULAR, Classification
    assert classify(quad(F9)) == classify(quad(F9))
    assert Classification(WEAKLY_REGULAR, -1, True) == Classification(WEAKLY_REGULAR, -1, True)
    assert Classification(WEAKLY_REGULAR, -1, True) != Classification(WEAKLY_REGULAR, 1, True)
    assert Classification(REGULAR, 1, True) != Classification(WEAKLY_REGULAR, 1, True)
    assert (Classification(NON_WEAKLY_REGULAR, dual_bent=True)
            != Classification(NON_WEAKLY_REGULAR, dual_bent=False))
    assert Classification(NOT_BENT) != NOT_BENT
