import random
import time

import pytest

from pbent.errors import InternalInconsistency, PreconditionError
from pbent.funcrep import (ANF, PFunction, RelativeTraceForm, TraceForm, anf_to_truth,
                           coset_leaders, coset_size, eval_univariate,
                           parse_function_spec, p_weight,
                           to_relative_trace_form, truth_to_anf,
                           truth_to_univariate, ParseError)
from pbent.gf import FieldCtx, FieldError, get_field
from pbent.walsh import walsh_fast
from ring_oracle import Zw

F3 = get_field(3, 1)
F27 = get_field(3, 3)
F81 = get_field(3, 4)
F125 = get_field(5, 3)
F49 = get_field(7, 2)


def rand_f(ctx, rng):
    return PFunction(ctx, [rng.randrange(ctx.p) for _ in range(ctx.q)])


def test_eval_trace_form_identity_on_prime_field():
    tf = TraceForm(F3, [(F3.one(), 1)])
    assert tf.truth_table().values == [0, 1, 2]


def test_eval_trace_form_constant():
    for ctx in (F27, F81):
        tf = TraceForm(ctx, [(ctx.one(), 0)])
        assert tf.truth_table().values == [ctx.n % 3] * ctx.q


def test_trace_form_merges_and_validates():
    tf = TraceForm(F27, [(F27.one(), 4), (F27.one(), 4)])
    assert tf.terms == ((F27.scalar(2), 4),)
    # three copies of coefficient 1 merge to coefficient 0 and vanish
    tf2 = TraceForm(F27, [(F27.one(), 4), (F27.one(), 4), (F27.one(), 4)])
    assert tf2.terms == ()
    with pytest.raises(ValueError):
        TraceForm(F27, [(F27.one(), 27)])


def test_truth_to_univariate_constant_and_trace():
    const = PFunction(F27, [2] * 27)
    coeffs = truth_to_univariate(const)
    assert coeffs[0] == F27.scalar(2)
    assert all(c.is_zero() for c in coeffs[1:])

    tr = TraceForm(F27, [(F27.one(), 1)]).truth_table()
    coeffs = truth_to_univariate(tr)
    for i, c in enumerate(coeffs):
        if i in (1, 3, 9):
            assert c == F27.one()
        else:
            assert c.is_zero()


def test_univariate_roundtrip_random():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_f(F27, rng)
        assert eval_univariate(truth_to_univariate(f)) == f


def test_relative_trace_form_known_support():
    f = TraceForm(F27, [(F27.one(), 8), (F27.one(), 14)]).truth_table()
    form = to_relative_trace_form(f)
    assert [j for j, _ in form.entries] == [8, 14]
    assert all(a == F27.one() for _, a in form.entries)
    assert form.top_coeff == 0
    assert form.truth_table() == f


def test_relative_trace_form_zero_function():
    form = to_relative_trace_form(PFunction(F27, [0] * F27.q))
    assert form.entries == () and form.top_coeff == 0


def test_relative_trace_form_roundtrip_random():
    rng = random.Random(8)
    for _ in range(8):
        f = rand_f(F27, rng)
        assert to_relative_trace_form(f).truth_table() == f


def frobenius_sum_table(form):
    """Oracle: sum_j Tr_{o(j)}(a_j x^j) + top * x^(q-1), point by point, each
    relative trace as the explicit sum of the o(j) Frobenius conjugates."""
    ctx = form.ctx
    vals = []
    for idx in range(ctx.q):
        x = ctx.from_index(idx)
        acc = form.top_coeff if idx else 0
        for j, a in form.entries:
            y = t = a * ctx.power(x, j) if j else a
            for _ in range(coset_size(j, ctx.p, ctx.order) - 1):
                y = ctx.frobenius(y, 1)
                t = t + y
            assert not any(t.coeffs[1:])
            acc += t.coeffs[0]
        vals.append(acc % ctx.p)
    return vals


def test_relative_trace_form_table_matches_frobenius_sums():
    rng = random.Random(15)
    for ctx in (F27, F81, F125, F49):
        leaders = coset_leaders(ctx.p, ctx.order)
        for _ in range(4):
            entries = []
            for j in rng.sample(leaders, min(5, len(leaders))):
                # Tr^n_s of a random element lands in the leader's subfield
                a = ctx.rel_trace(ctx.from_index(rng.randrange(ctx.q)),
                                  coset_size(j, ctx.p, ctx.order))
                entries.append((j, a))
            form = RelativeTraceForm(ctx, entries, rng.randrange(ctx.p))
            assert form.truth_table().values == frobenius_sum_table(form)
    # x -> x^13 on F_27: coset size 1 and p = 3 divides n/s = 3, where the
    # scalar (n/s)^-1 would not invert the relative trace
    assert coset_size(13, 3, 26) == 1
    for a in (F27.one(), F27.scalar(2)):
        form = RelativeTraceForm(F27, [(13, a)], 1)
        assert form.truth_table().values == frobenius_sum_table(form)


def test_eval_univariate_refuses_a_list_that_is_not_conjugate_closed():
    coeffs = [F27.zero()] * 27
    coeffs[1] = F27.from_index(3)  # alpha alone, without alpha^3 and alpha^9
    with pytest.raises(InternalInconsistency):
        eval_univariate(coeffs)
    coeffs[3], coeffs[9] = F27.frobenius(coeffs[1], 1), F27.frobenius(coeffs[1], 2)
    assert eval_univariate(coeffs) == TraceForm(F27, [(coeffs[1], 1)]).truth_table()


def coset_leader(e, p, modulus):
    """The minimal member of e's cyclotomic class, by walking the class:
    the oracle of `coset_leaders`."""
    best = e
    cur = (e * p) % modulus
    while cur != e:
        if cur < best:
            best = cur
        cur = (cur * p) % modulus
    return best


def univariate_degree(coeffs, p):
    """Max p-weight over exponents with a nonzero univariate coefficient:
    a degree oracle independent of the ANF."""
    return max((p_weight(i, p) for i, c in enumerate(coeffs) if not c.is_zero()),
               default=0)


def test_coset_utilities():
    assert coset_leader(8, 3, 26) == 8
    assert coset_leader(24, 3, 26) == 8   # {8, 24, 20}
    assert coset_size(0, 3, 26) == 1
    assert coset_size(13, 3, 26) == 1     # 13*3 = 39 = 13 mod 26
    assert coset_size(8, 3, 26) == 3
    assert coset_size(10, 3, 80) == 2     # {10, 30}
    # every exponent maps to the minimal member of its class
    for e in range(26):
        cls = {e}
        cur = (e * 3) % 26
        while cur != e:
            cls.add(cur)
            cur = (cur * 3) % 26
        assert coset_leader(e, 3, 26) == min(cls)
    for p, modulus in ((3, 26), (3, 80), (5, 124), (7, 48), (3, 728)):
        assert coset_leaders(p, modulus) == tuple(
            e for e in range(modulus) if coset_leader(e, p, modulus) == e)


def test_algebraic_degree_examples():
    assert TraceForm(F81, [(F81.one(), 5)]).truth_table().algebraic_degree() == 3
    assert TraceForm(F81, [(F81.one(), 2)]).truth_table().algebraic_degree() == 2
    assert TraceForm(F81, [(F81.one(), 1)]).truth_table().algebraic_degree() == 1
    assert PFunction(F81, [0] * F81.q).algebraic_degree() == 0


def test_univariate_degree_equals_anf_degree():
    rng = random.Random(9)
    for ctx in (F27, F125, F49):
        for _ in range(6):
            f = rand_f(ctx, rng)
            assert univariate_degree(truth_to_univariate(f), ctx.p) == f.algebraic_degree()


def test_anf_basics():
    assert truth_to_anf(PFunction(F27, [0] * F27.q)).coeffs == [0] * 27
    sq = PFunction(F3, [0, 1, 1])
    anf = truth_to_anf(sq)
    assert anf.coeffs == [0, 0, 1]  # x_1^2
    assert anf.degree() == 2
    rng = random.Random(10)
    for ctx in (F27, F125, F49, get_field(11, 2), get_field(13, 2)):
        for _ in range(10):
            f = rand_f(ctx, rng)
            assert anf_to_truth(truth_to_anf(f)) == f


def test_anf_degree_is_the_p_weight_scan():
    # the weight tables against p_weight at every nonzero coefficient, on
    # ANFs from dense to a single term, and on the zero ANF
    rng = random.Random(11)
    for ctx in (F3, F27, F81, F125, F49, get_field(11, 2), get_field(13, 1)):
        p = ctx.p
        assert ANF(ctx, [0] * ctx.q).degree() == 0
        for density in (1.0, 0.3, 0.05, 1 / ctx.q):
            coeffs = [rng.randrange(1, p) if rng.random() < density else 0
                      for _ in range(ctx.q)]
            scan = max((p_weight(i, p) for i, c in enumerate(coeffs) if c), default=0)
            assert ANF(ctx, coeffs).degree() == scan


def test_derivative_examples():
    f = TraceForm(F81, [(F81.one(), 2)]).truth_table()
    assert f.derivative(F81.zero()) == PFunction(F81, [0] * F81.q)
    c = F81.gen_power(5)
    lin = TraceForm(F81, [(c, 1)]).truth_table()
    for a_idx in (1, 7, 80):
        a = F81.from_index(a_idx)
        d = lin.derivative(a)
        assert d.values == [F81.trace(c * a)] * 81
        expected = TraceForm(F81, [(a.scale(2), 1)], F81.trace(a * a)).truth_table()
        assert f.derivative(a) == expected


def test_second_derivative():
    rng = random.Random(11)
    f = TraceForm(F81, [(F81.one(), 2)]).truth_table()
    for _ in range(5):
        a = F81.from_index(rng.randrange(81))
        b = F81.from_index(rng.randrange(81))
        dd = f.second_derivative(a, b)
        assert len(set(dd.values)) == 1  # quadratic: second derivative constant
        assert dd == f.second_derivative(b, a)
    z = F81.zero()
    assert f.second_derivative(z, z) == PFunction(F81, [0] * F81.q)


def test_derivative_degree_drop():
    rng = random.Random(12)
    for _ in range(10):
        f = rand_f(F27, rng)
        if f.algebraic_degree() == 0:
            continue
        a = F27.from_index(rng.randrange(1, 27))
        assert f.derivative(a).algebraic_degree() <= f.algebraic_degree() - 1


def test_is_balanced():
    assert PFunction(F3, [0, 1, 2]).is_balanced()
    assert not PFunction(F3, [1, 1, 1]).is_balanced()
    f = TraceForm(F81, [(F81.one(), 2)]).truth_table()
    for a_idx in range(1, 81):
        assert f.derivative(F81.from_index(a_idx)).is_balanced()


def test_balance_iff_w0_exhaustive_f9():
    ctx = get_field(3, 2)
    for code in range(3 ** 9):
        vals = []
        m = code
        for _ in range(9):
            m, r = divmod(m, 3)
            vals.append(r)
        f = PFunction(ctx, vals)
        counts = f.value_counts()
        w0 = Zw.from_exponent_counts(3, counts)
        assert f.is_balanced() == w0.is_zero()


def test_balance_iff_w0_random_f81():
    rng = random.Random(13)
    for _ in range(30):
        f = rand_f(F81, rng)
        assert f.is_balanced() == (not any(walsh_fast(f).coords[0]))


def test_translate_reflect():
    rng = random.Random(14)
    f = rand_f(F81, rng)
    a = F81.from_index(17)
    g = f.translate(a)
    for idx in (0, 5, 44):
        assert g.values[idx] == f.values[(F81.from_index(idx) + a).index]
    h = f.reflect()
    for idx in (0, 5, 44):
        assert h.values[idx] == f.values[F81.neg_table[idx]]


def test_parse_function_spec():
    ctx, tf = parse_function_spec("p=3 n=6 f=Tr(g^7*x^98)")
    assert ctx.n == 6
    assert tf.terms == ((ctx.gen_power(7), 98),)

    ctx2, tf2 = parse_function_spec("p=3 n=3 f=Tr(x^8+x^14)")
    assert [e for _, e in tf2.terms] == [8, 14]

    ctx3, tf3 = parse_function_spec("p=3 n=4 mod=[2,1,0,0,1] f=Tr(x^5-x^7+g^20*x^10)+2")
    assert tf3.constant == 2
    assert len(tf3.terms) == 3
    assert tf3.terms[1][0] == ctx3.scalar(-1)

    ctx4, tf4 = parse_function_spec("p=3 n=2 f=Tr( 2 * x ^ 4 ) + 1")
    assert tf4.terms == ((ctx4.scalar(2), 4),) and tf4.constant == 1

    with pytest.raises(ParseError):
        parse_function_spec("p=3 n=2 Tr(x)")
    for body in ("Tr(", "Tr(x", "Tr(x^2)junk", "Tr(x^2+)", "Tr(y^2)", "Tr(+)", "Tr(-)",
                 "Tr((x))", "Tr(x^)", "Tr(*x)", "Tr(xx)", "Tr(x)+1+2", "Tr(x^2++x)", "Tr(x))",
                 "Tr(x)(x)", "Tr(x)+", "Tr(g^*x)", "Tr(x^2*)", "Tr(x^-1)", "tr(x)", "",
                 "Tr(x^9)",  # above q - 1 = 8: the exponent-range check of TraceForm
                 "Tr(x)+%s" % ("1" * 5000)):  # more digits than int() converts
        with pytest.raises(ParseError):
            parse_function_spec("p=3 n=2 f=" + body)
        with pytest.raises(PreconditionError):  # even p is refused before the body is read
            parse_function_spec("p=2 n=1 f=" + body)
    _, tf5 = parse_function_spec("p=3 n=2 f=Tr()")  # the empty sum is the zero form
    assert tf5.terms == () and tf5.truth_table().values == [0] * 9
    # whitespace inside tokens, a coefficient without *, a leading sign, a - tail
    ctx6, tf6 = parse_function_spec("p=3 n=2 f= T r ( - g ^ 1 x - 2 * x ^ 2 ) - 1 ")
    assert tf6.terms == ((ctx6.gen_power(1).scale(-1), 1), (ctx6.scalar(-2), 2))
    assert tf6.constant == 2


def test_parse_function_spec_reads_20000_terms_within_2_s():
    terms = "+".join("g^%d*x^%d" % (i % 80, i % 9) for i in range(20000))
    t0 = time.perf_counter()
    _, tf = parse_function_spec("p=3 n=2 f=Tr(%s)" % terms)
    t1 = time.perf_counter()
    # a bad last term: the valid prefix ends at its sign, after "Tr(" and the other terms
    with pytest.raises(ParseError, match="position %d " % (3 + terms.rindex("+"))):
        parse_function_spec("p=3 n=2 f=Tr(%s^)" % terms)
    t2 = time.perf_counter()
    assert len(tf.terms) == 9
    assert t1 - t0 < 2 and t2 - t1 < 2, (t1 - t0, t2 - t1)


def test_spec_string_round_trips_through_the_parser():
    rng = random.Random(24)
    for p in (3, 5):
        ctx = get_field(p, 2)
        field = "p=%d n=2" % p
        forms = [TraceForm(ctx, []), TraceForm(ctx, [], 1)]
        for _ in range(20):
            terms = [(ctx.from_index(rng.randrange(ctx.q)), rng.randrange(ctx.q))
                     for _ in range(rng.randrange(1, 4))]
            forms.append(TraceForm(ctx, terms, rng.randrange(p)))
        for form in forms:
            _, parsed = parse_function_spec(field + " f=" + form.spec_string())
            assert parsed.truth_table() == form.truth_table(), form.spec_string()


def test_spec_string_builds_the_tables_it_reads():
    ctx = FieldCtx(3, 9)  # fresh: no tables yet
    assert TraceForm(ctx, [(ctx.scalar(2), 2)]).spec_string() == "Tr(g^9841*x^2)"


def test_p_weight():
    assert p_weight(5, 3) == 3   # 5 = 1*3 + 2
    assert p_weight(34, 3) == 4  # 27 + 2*3 + 1
    assert p_weight(0, 3) == 0


def test_constructors_check_the_length_of_a_generator():
    # the input is reduced in one pass and then counted, so an iterator of
    # the wrong length is refused as a list is
    with pytest.raises(ValueError, match="p\\^n entries"):
        PFunction(F27, (v for v in range(26)))
    with pytest.raises(ValueError, match="p\\^n coefficients"):
        ANF(F27, (v for v in range(28)))
    assert PFunction(F27, (v for v in range(27))).values == [v % 3 for v in range(27)]
    assert ANF(F27, iter([-1] * 27)).coeffs == [2] * 27


def test_functions_and_trace_forms_refuse_another_context():
    # x^4 + x - 1 and the Conway modulus: equal fields, two contexts
    a, b = get_field(3, 4, (2, 1, 0, 0, 1)), F81
    fa = TraceForm(a, [(a.one(), 2)]).truth_table()
    fb = TraceForm(b, [(b.one(), 2)]).truth_table()
    assert (fa + fa).ctx is a and fa != fb
    for left, right in ((fa, fb), (fb, fa)):
        with pytest.raises(FieldError):
            left + right
        with pytest.raises(FieldError):
            left - right
    for ctx, other in ((a, b), (b, a)):
        with pytest.raises(FieldError):
            TraceForm(ctx, [(other.primitive, 2)])
        with pytest.raises(FieldError):
            TraceForm(ctx, [(ctx.one(), 2), (other.primitive, 4)])


def test_eval_univariate_refuses_a_constant_that_is_not_scalar():
    coeffs = [F27.zero()] * 27
    coeffs[0] = F27.from_index(3)  # alpha
    with pytest.raises(InternalInconsistency,
                       match="^constant or top univariate coefficient not scalar$"):
        eval_univariate(coeffs)


def test_relative_trace_form_of_x_squared_on_f3_is_its_top_term():
    # x^2 = x^(q-1) on F_3: no entries, the top coefficient counted as nonlinear
    form = to_relative_trace_form(PFunction(F3, [0, 1, 1]))
    assert form.entries == () and form.top_coeff == 1
    assert form.nonlinear_term_count() == 1


@pytest.mark.parametrize("count", [0, 5, 26, 28])
def test_eval_univariate_refuses_a_list_of_other_than_q_coefficients(count):
    with pytest.raises(PreconditionError, match="needs the q coefficients"):
        eval_univariate([F27.zero()] * count)


def test_function_call_and_negation_read_the_table():
    f = rand_f(F27, random.Random(7))
    assert [f(x) for x in map(F27.from_index, range(27))] == f.values
    g = -f
    assert g.ctx is F27 and g.values == [(-v) % 3 for v in f.values]
    assert g + f == PFunction(F27, [0] * 27) and -g == f


def test_anf_equality_reads_context_and_reduced_coefficients():
    f = rand_f(F81, random.Random(3))
    a = truth_to_anf(f)
    assert a == truth_to_anf(PFunction(F81, list(f.values)))
    assert a == ANF(F81, [c + 3 for c in a.coeffs])  # reduced mod p
    changed = list(a.coeffs)
    changed[5] = (changed[5] + 1) % 3
    assert a != ANF(F81, changed)
    other = get_field(3, 4, (2, 1, 0, 0, 1))
    assert other is not F81 and a != ANF(other, a.coeffs)
    assert a != f
