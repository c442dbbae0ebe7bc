import itertools
import random

import pytest

from pbent import constructions, gf
from pbent.constructions import (TrinomialParams, add_quadratic, bent_concatenation,
                                 linearized_second_derivative_coeff,
                                 lemma2_witness, mm_special_form,
                                 nonvanishing_quadratic_search,
                                 quadratic_part_function, trinomial_bent,
                                 trinomial_closed_form_walsh,
                                 trinomial_first_derivative_form)
from pbent.cyclo import CycInt, unit_power_forms
from pbent.errors import PreconditionError
from pbent.funcrep import (ANF, PFunction, TraceForm, anf_to_truth,
                           to_relative_trace_form)
from pbent.gf import FieldCtx, get_field
from pbent.walsh import (bent_via_derivatives, classify, extract_certificate, is_bent,
                         walsh_fast, walsh_naive, NON_WEAKLY_REGULAR, REGULAR,
                         WEAKLY_REGULAR)

F3 = get_field(3, 1)
F9 = get_field(3, 2)


def quad(ctx):
    return TraceForm(ctx, [(ctx.one(), 2)]).truth_table()


def trinomial_dual(params):
    """The dual of a family member, read off its spectral certificate."""
    f = trinomial_bent(params).truth_table()
    return extract_certificate(walsh_fast(f)).dual


# -- trinomial family -------------------------------------------------------------


def test_params_validation():
    TrinomialParams(1, 0, 1)
    TrinomialParams(1, 2, 3)
    TrinomialParams(2, 1, 1)
    with pytest.raises(PreconditionError):
        TrinomialParams(1, 1, 1)   # j must be even for odd k
    with pytest.raises(PreconditionError):
        TrinomialParams(2, 2, 1)   # j must be odd for even k
    with pytest.raises(PreconditionError):
        TrinomialParams(1, 2, 2)   # t must be odd
    with pytest.raises(PreconditionError):
        TrinomialParams(1, 4, 1)   # j out of [0, 4k)
    with pytest.raises(PreconditionError):
        TrinomialParams(0, 0, 1)


def test_b_coefficient_relations():
    for k, j, t in ((1, 0, 1), (1, 2, 1), (1, 2, 3), (2, 1, 1), (2, 3, 1)):
        params = TrinomialParams(k, j, t)
        ctx = params.context()
        b = params.b_coefficient(ctx)
        assert ctx.frobenius(b, k) == -b
        assert ctx.rel_trace(b, k).is_zero()
        zeta = params.zeta(ctx)
        assert ctx.frobenius(zeta, 2 * k) == zeta
        assert ctx.power(zeta, 3 ** (2 * k) - 1) == ctx.one()


def test_trinomial_k1_term_structure():
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    tf = trinomial_bent(params, ctx)
    zeta_sq = ctx.power(params.zeta(ctx), 2)
    assert tf.terms == ((ctx.one(), 5), (ctx.scalar(-1), 7), (zeta_sq, 10))


def test_trinomial_instances_cubic_bent_nwr():
    for k, j, t in ((1, 0, 1), (1, 2, 1), (1, 0, 3), (2, 1, 1)):
        params = TrinomialParams(k, j, t)
        f = trinomial_bent(params).truth_table()
        assert f.algebraic_degree() == 3
        cls = classify(f)
        assert cls.variant == NON_WEAKLY_REGULAR, (k, j, t, cls)


def test_trinomial_k2_second_derivative_route():
    # both certification routes agree on the n = 8 member
    from pbent.derivanalysis import cubic_like_certificate
    f = trinomial_bent(TrinomialParams(2, 1, 1)).truth_table()
    assert cubic_like_certificate(f).complete


def test_lemma2_witness_subfield_cases():
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    b = params.b_coefficient(ctx)
    # every c in F_9^* has a witness inside F_9^*
    for c_idx in ctx.subfield_indexes(2):
        if c_idx == 0:
            continue
        c = ctx.from_index(c_idx)
        d = lemma2_witness(c, params)
        z = b * ctx.power(c, 9) + ctx.frobenius(b, -2) * ctx.frobenius(c, -2)
        assert ctx.trace(z * d) != 0
        assert ctx.frobenius(d, 2) == d
    with pytest.raises(PreconditionError):
        lemma2_witness(ctx.zero(), params)
    # a direction outside the covered cases: c not in F_9 with Tr_k^n(bc) = 0
    l = next(x for x in map(ctx.from_index, range(81)) if ctx.frobenius(x, 2) != x)
    c_out = b.inverse() * (l - ctx.frobenius(l, 1))
    assert ctx.rel_trace(b * c_out, 1).is_zero()
    with pytest.raises(PreconditionError):
        lemma2_witness(c_out, params)


def test_lemma2_witness_full_field_case():
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    b = params.b_coefficient(ctx)
    count = 0
    for c_idx in range(1, 81):
        c = ctx.from_index(c_idx)
        if ctx.frobenius(c, 2) == c or ctx.rel_trace(b * c, 1).is_zero():
            continue
        d = lemma2_witness(c, params)
        z = b * ctx.power(c, 9) + ctx.frobenius(b, -2) * ctx.frobenius(c, -2)
        assert ctx.trace(z * d) != 0
        count += 1
    assert count > 0


def test_first_derivative_form():
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    f = trinomial_bent(params, ctx).truth_table()
    assert trinomial_first_derivative_form(params, ctx.zero()).terms == ()
    rng = random.Random(41)
    for _ in range(8):
        c = ctx.from_index(rng.randrange(81))
        sym = trinomial_first_derivative_form(params, c).truth_table()
        assert sym == f.derivative(c)
    # for c in the prime field the derivative collapses to an affine form
    b = params.b_coefficient(ctx)
    for c_val in (1, 2):
        c = ctx.scalar(c_val)
        lin_coeff = b * ctx.power(c, 9) + ctx.frobenius(b, -2) * ctx.frobenius(c, -2)
        collapsed = TraceForm(ctx, [(b * ctx.power(c, 10), 0), (lin_coeff, 1)])
        assert collapsed.truth_table() == f.derivative(c)


def test_second_derivative_structure_for_zero_trace_directions():
    # directions c = b^-1 (l - l^(3^k)) with l outside F_9: the linearized
    # coefficient vanishes on F_3 + F_3 * (l^(3^3k) + l), and the constant
    # value follows the K formula
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    k, j = 1, 2
    f = trinomial_bent(params, ctx).truth_table()
    b = params.b_coefficient(ctx)
    rng = random.Random(42)
    tested = 0
    while tested < 6:
        l = ctx.from_index(rng.randrange(81))
        if ctx.frobenius(l, 2) == l:
            continue
        tested += 1
        c = b.inverse() * (l - ctx.frobenius(l, k))
        r = ctx.frobenius(l, 3 * k) + l
        assert linearized_second_derivative_coeff(params, c, r).is_zero()
        for s_val in (1, 2):
            d = r.scale(s_val)
            dd = f.second_derivative(c, d)
            kk = ((ctx.frobenius(c, 2 * k) - c) ** (3 ** k + 1)
                  + b * ctx.power(c, 3 ** j)
                  + ctx.frobenius(b, -j) * ctx.frobenius(c, -j)) * r
            want = (ctx.trace(ctx.rel_trace_unit(k) * ctx.rel_trace(kk, k)) * s_val) % 3
            assert dd.values == [want] * 81


def test_closed_form_parameter_restrictions():
    ctx = TrinomialParams(1, 2, 1).context()
    y = ctx.one()
    with pytest.raises(PreconditionError):
        trinomial_closed_form_walsh(TrinomialParams(2, 1, 1), y)
    with pytest.raises(PreconditionError):
        trinomial_closed_form_walsh(TrinomialParams(1, 2, 3), y, ctx)


def test_closed_form_matches_spectrum():
    for j in (0, 2):
        params = TrinomialParams(1, j, 1)
        ctx = params.context()
        f = trinomial_bent(params, ctx).truth_table()
        spec = walsh_naive(f).coords
        for idx in range(81):
            got = trinomial_closed_form_walsh(params, ctx.from_index(idx), ctx)
            assert got.coords == spec[ctx.neg_table[idx]], (j, idx)


def test_trinomial_dual_degree_k1():
    params = TrinomialParams(1, 2, 1)
    f = trinomial_bent(params).truth_table()
    assert f.algebraic_degree() == 3
    assert trinomial_dual(params).algebraic_degree() == 4
    # the canonical relative trace form of the dual has nine nonlinear
    # entries for j = 2k and eight for j = 0
    for j, count in ((2, 9), (0, 8)):
        dual = trinomial_dual(TrinomialParams(1, j, 1))
        assert to_relative_trace_form(dual).nonlinear_term_count() == count, j


def test_special_form_decomposition_k1():
    # in coordinates (x0, x1, x2, x3') with x3' = -b a^20 (x1 + x2 - x3),
    # the function splits as G(x1, x2, x3') + x0 * x3'
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    f = trinomial_bent(params, ctx).truth_table()
    a = ctx.primitive
    b = params.b_coefficient(ctx)
    ba20 = b * ctx.power(a, 20)
    inv = ba20.inverse()
    pows = [ctx.one(), a, a * a, a * a * a]
    for x1v in range(3):
        for x2v in range(3):
            for x3pv in range(3):
                x1 = ctx.scalar(x1v)
                x2 = ctx.scalar(x2v)
                x3p = ctx.scalar(x3pv)
                x3 = x1 + x2 + inv * x3p
                seen = set()
                for x0v in range(3):
                    x = (pows[3] * x3 + pows[2] * x2 + pows[1] * x1
                         + ctx.scalar(x0v))
                    val = (f.values[x.index] - x0v * x3pv) % 3
                    seen.add(val)
                assert len(seen) == 1  # independent of x0


# -- concatenation constructions ---------------------------------------------------


def _product_pairing_walsh(f, inner_ctx, outer_ctx, s_idx, t_idx):
    """Direct W(s, t) under the pairing Tr_in(xs) + Tr_out(yt)."""
    counts = [0] * 3
    qi = inner_ctx.q
    s = inner_ctx.from_index(s_idx)
    t = outer_ctx.from_index(t_idx)
    for y in range(outer_ctx.q):
        tr_y = outer_ctx.trace(outer_ctx.from_index(y) * t)
        for x in range(qi):
            tr_x = inner_ctx.trace(inner_ctx.from_index(x) * s)
            counts[(f.values[y * qi + x] - tr_x - tr_y) % 3] += 1
    return CycInt.from_exponent_counts(3, counts)


def test_mm_special_form_bent_and_dual():
    g = PFunction(F3, [0, 1, 1])
    for pi in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
        f, rep = mm_special_form([g, g, g], pi)
        assert rep["bent"]
        assert is_bent(walsh_fast(f))
        assert rep["slices_dual_bent"]
        dual = rep["dual"]
        # oracle: W(s, t1, t2) under the pairing Tr(xs) + y1 t1 + y2 t2
        for s_idx in range(3):
            for t1 in range(3):
                for t2 in range(3):
                    counts = [0] * 3
                    for y2 in range(3):
                        for y1 in range(3):
                            for x in range(3):
                                tr = (F3.trace(F3.from_index(x) * F3.from_index(s_idx))
                                      + y1 * t1 + y2 * t2)
                                counts[(f.values[(y2 * 3 + y1) * 3 + x] - tr) % 3] += 1
                    w = CycInt.from_exponent_counts(3, counts)
                    code = unit_power_forms(3, 3)[1].get(w.coords)
                    assert code is not None
                    combined_idx = s_idx + 3 * (t1 + 3 * t2)
                    assert code * 2 % 3 == dual.values[combined_idx]  # j = 2k mod 3


def test_mm_special_form_validation():
    g = PFunction(F3, [0, 1, 1])
    with pytest.raises(PreconditionError):
        mm_special_form([g, g, g], [0, 1, 1])  # not a permutation
    with pytest.raises(PreconditionError):
        mm_special_form([g, g], [0, 1, 2])  # wrong slice count
    lin = PFunction(F3, [0, 1, 2])
    with pytest.raises(PreconditionError):
        mm_special_form([g, lin, g], [0, 1, 2])  # non-bent slice


def test_construction1_matches_special_form_and_sign_mixing():
    g_plus = quad(F9)
    f_uniform, _ = mm_special_form([g_plus] * 3, range(3))
    f_mm, _ = mm_special_form([g_plus] * 3, [0, 1, 2])
    assert f_uniform == f_mm
    assert classify(f_uniform).variant in (REGULAR, WEAKLY_REGULAR)

    # flip one slice's sign: quadratic with a nonsquare coefficient
    signs = {}
    for m in range(1, 9):
        gm = TraceForm(F9, [(F9.gen_power(m), 2)]).truth_table()
        signs[m] = extract_certificate(walsh_fast(gm)).signs[0]
    flip = next(m for m, s in signs.items()
                if s != extract_certificate(walsh_fast(g_plus)).signs[0])
    g_minus = TraceForm(F9, [(F9.gen_power(flip), 2)]).truth_table()
    f_mixed, _ = mm_special_form([g_plus, g_plus, g_minus], range(3))
    assert classify(f_mixed).variant == NON_WEAKLY_REGULAR


def test_bent_concatenation_valid_family():
    # slices f_y(x) = x^2 + y x on F_3 share the unit and concatenate bent
    inner, outer = F3, F3
    slices = []
    for y in range(3):
        vals = [(x * x + y * x) % 3 for x in range(3)]
        slices.append(PFunction(inner, vals))
    f, rep = bent_concatenation(slices)
    assert rep["applicable"] and rep["bent"]
    assert is_bent(walsh_fast(f))
    dual = rep["dual"]
    for s_idx in range(3):
        for t_idx in range(3):
            w = _product_pairing_walsh(f, inner, outer, s_idx, t_idx)
            code = unit_power_forms(3, 2)[1].get(w.coords)
            assert code is not None and code * 2 % 3 == dual.values[t_idx * 3 + s_idx]


def test_bent_concatenation_identical_slices_not_bent():
    # f(x, y) = g(x) ignores y: sections of the dual are constant, not bent
    g = PFunction(F3, [0, 1, 1])
    f, rep = bent_concatenation([g] * 9)
    assert rep["applicable"]
    assert rep["bent"] is False
    assert not is_bent(walsh_fast(f))


def test_bent_concatenation_error_and_inapplicable():
    g = PFunction(F3, [0, 1, 1])
    lin = PFunction(F3, [0, 1, 2])
    with pytest.raises(PreconditionError):
        bent_concatenation([g, g, lin])
    with pytest.raises(PreconditionError,
                       match=r"^slice count 2: a concatenation needs p\^m slices, m >= 1$"):
        bent_concatenation([g] * 2)
    # units depending on y: mix opposite-sign quadratic slices on F_9
    g_plus = quad(F9)
    m = next(m for m in range(1, 9)
             if extract_certificate(walsh_fast(
                 TraceForm(F9, [(F9.gen_power(m), 2)]).truth_table())).signs[0]
             != extract_certificate(walsh_fast(g_plus)).signs[0])
    g_minus = TraceForm(F9, [(F9.gen_power(m), 2)]).truth_table()
    f, rep = bent_concatenation([g_plus, g_plus, g_minus])
    assert not rep["applicable"]
    assert "bent" not in rep


def _concatenation_oracle(slices, inner, outer):
    """f and the dual of `bent_concatenation`, one index at a time."""
    qi, qo = inner.q, outer.q
    combined = get_field(inner.p, inner.n + outer.n)
    values = [0] * combined.q
    for y_idx in range(qo):
        for x_idx in range(qi):
            values[y_idx * qi + x_idx] = slices[y_idx].values[x_idx]
    certs = [extract_certificate(walsh_fast(sl)) for sl in slices]
    if any(len({certs[y].signs[s_idx] for y in range(qo)}) > 1 for s_idx in range(qi)):
        return values, None  # units depend on y: no dual
    phis = [walsh_fast(PFunction(outer, [certs[y].dual.values[s_idx] for y in range(qo)]))
            for s_idx in range(qi)]
    dual_vals = None
    if all(is_bent(sp) for sp in phis):
        dual_vals = [0] * combined.q
        for t_idx in range(qo):
            for s_idx in range(qi):
                dual_vals[t_idx * qi + s_idx] = extract_certificate(phis[s_idx]).dual.values[t_idx]
    return values, dual_vals


def _special_form_oracle(gs, pi, inner, d):
    """f and the dual of `mm_special_form`, one index at a time, with the
    pairing Tr_d(y1 pi(y2)) from field products."""
    p = inner.p
    ctx_d = get_field(p, d)
    qd, qi = ctx_d.q, inner.q
    combined = get_field(p, inner.n + 2 * d)
    values = [0] * combined.q
    for y2 in range(qd):
        for y1 in range(qd):
            pairing = ctx_d.trace(ctx_d.from_index(y1) * ctx_d.from_index(pi[y2]))
            for x_idx in range(qi):
                values[(y2 * qd + y1) * qi + x_idx] = (gs[y2].values[x_idx] + pairing) % p
    pi_inv = [pi.index(t) for t in range(qd)]
    dual_vals = [0] * combined.q
    for t2 in range(qd):
        for t1 in range(qd):
            c_idx = pi_inv[t1]
            pairing = ctx_d.trace(ctx_d.from_index(c_idx) * ctx_d.from_index(t2))
            gstar = extract_certificate(walsh_fast(gs[c_idx])).dual.values
            for s_idx in range(qi):
                dual_vals[(t2 * qd + t1) * qi + s_idx] = (gstar[s_idx] - pairing) % p
    return values, dual_vals


def _distinct_quadratic_slices(ctx, count, rng):
    """count distinct slices Tr(a x^2 + b x) + k, a != 0: bent with bent duals."""
    triples = [(a, b, k) for a in range(1, ctx.q) for b in range(ctx.q) for k in range(ctx.p)]
    return [TraceForm(ctx, [(ctx.from_index(a), 2), (ctx.from_index(b), 1)], k).truth_table()
            for a, b, k in rng.sample(triples, count)]


@pytest.mark.parametrize("p, n, d", [(3, 2, 2), (5, 1, 1), (3, 1, 2)])
def test_builders_match_their_index_formulas(p, n, d):
    rng = random.Random(p * 100 + n * 10 + d)
    inner, outer = get_field(p, n), get_field(p, d)
    gs = _distinct_quadratic_slices(inner, outer.q, rng)
    pi = list(range(outer.q))
    while pi == sorted(pi):
        rng.shuffle(pi)
    f, rep = mm_special_form(gs, pi)
    values, dual_vals = _special_form_oracle(gs, pi, inner, d)
    assert rep["slices_dual_bent"]
    assert f.values == values and rep["dual"].values == dual_vals
    f, rep = bent_concatenation(gs)
    values, dual_vals = _concatenation_oracle(gs, inner, outer)
    assert f.values == values
    if dual_vals is None:
        assert "dual" not in rep
    else:
        assert rep["dual"].values == dual_vals


def test_bent_concatenation_of_distinct_slices_matches_its_index_formulas():
    # distinct slices Tr(x^2 + c_y x) + k_y on F_9 with one unit pattern,
    # whose dual sections are bent on F_9
    inner = outer = F9
    specs = [(0, 0), (1, 2), (5, 2), (2, 0), (3, 1), (0, 0), (6, 0), (4, 0), (7, 1)]
    slices = [TraceForm(F9, [(F9.one(), 2)] + ([(F9.gen_power(m), 1)] if y else []), k)
              .truth_table() for y, (m, k) in enumerate(specs)]
    assert len(set(slices)) == len(slices)
    f, rep = bent_concatenation(slices)
    assert rep["applicable"] and rep["bent"]
    assert is_bent(walsh_fast(f))
    values, dual_vals = _concatenation_oracle(slices, inner, outer)
    assert f.values == values and rep["dual"].values == dual_vals


# -- quadratic addition -------------------------------------------------------------


def test_add_quadratic_zero_q():
    f = quad(F9)
    g, rep = add_quadratic(f, [F9.zero(), F9.zero()])
    assert g == f and rep == {"spectrally_bent": True}


def test_add_quadratic_n1_example():
    f = PFunction(F3, [0, 1, 1])
    g, rep = add_quadratic(f, [F3.one()])
    assert rep == {"spectrally_bent": True}
    assert g.values == [0, 2, 2]


def test_add_quadratic_requires_weakly_regular():
    trinom = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    ctx = trinom.ctx
    with pytest.raises(PreconditionError):
        add_quadratic(trinom, [ctx.zero()] * 4)


def test_add_quadratic_condition_is_exact_on_a_cancelling_quadratic():
    # q = 2x^2 never vanishes on F_3^*, yet f + q collapses to zero; the
    # condition reads W_{D_c f}(-L(c)) at every c != 0, nonzero here, so it
    # does not hold
    f = PFunction(F3, [0, 1, 1])
    g, rep = add_quadratic(f, [F3.scalar(2)])
    assert bent_via_derivatives(g) is False
    assert rep["spectrally_bent"] is False
    assert g.values == [0, 0, 0]


def test_add_quadratic_checks_the_coefficient_count_before_classifying(monkeypatch):
    import pbent.constructions

    def never(f):
        raise AssertionError("f classified before the coefficient count was checked")

    monkeypatch.setattr(pbent.constructions, "classify", never)
    with pytest.raises(PreconditionError, match="need n quadratic coefficients"):
        add_quadratic(quad(F9), [F9.one()])


def test_add_quadratic_reads_no_derivative(monkeypatch):
    # the verdict is g's spectrum: no D_c g is built
    def never(self, c):
        raise AssertionError("derivative built")

    monkeypatch.setattr(PFunction, "derivative", never)
    ctx = get_field(3, 4)
    g, rep = add_quadratic(quad(ctx), [ctx.one()] + [ctx.zero()] * 3)
    assert rep == {"spectrally_bent": True}
    assert g == TraceForm(ctx, [(ctx.scalar(2), 2)]).truth_table()


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2)])
def test_add_quadratic_condition_matches_the_spectral_verdict(p, n):
    """The paper's criterion against the spectral verdict, on seeded weakly
    regular f (a bent quadratic plus a linear term) and pure quadratics q,
    some coefficients zero.

    D_c g(x) = D_c f(x) + Tr(L(c) x) + q(c), with L(c) = sum_j ((a_j c)^(p^(n-j))
    + a_j c^(p^j)), gives W_{D_c g}(0) = w^q(c) W_{D_c f}(-L(c)).  So every
    D_c g with c != 0 is balanced (`bent_via_derivatives(g)`) exactly when
    W_{D_c f}(-L(c)) = 0 for every c != 0, and g = f + q is bent exactly
    then.
    """
    ctx = get_field(p, n)
    rng = random.Random(10 * p + n)

    def coeffs():
        return [ctx.from_index(rng.randrange(ctx.q)) if rng.random() < 0.7 else ctx.zero()
                for _ in range(n)]

    verdicts = []
    while len(verdicts) < 48:
        f = (quadratic_part_function(coeffs())
             + TraceForm(ctx, [(ctx.from_index(rng.randrange(ctx.q)), 1)]).truth_table())
        if classify(f).variant not in (REGULAR, WEAKLY_REGULAR):
            continue
        g, rep = add_quadratic(f, coeffs())
        assert bent_via_derivatives(g) == rep["spectrally_bent"] == is_bent(walsh_fast(g))
        verdicts.append(rep["spectrally_bent"])
    assert True in verdicts and False in verdicts


def test_nonvanishing_quadratic_search():
    r1 = nonvanishing_quadratic_search(3, 1)
    assert r1 is not None
    q1 = quadratic_part_function(r1)
    assert all(q1.values[c] != 0 for c in range(1, 3))

    r2 = nonvanishing_quadratic_search(3, 2)
    assert r2 is not None
    q2 = quadratic_part_function(r2)
    assert all(q2.values[c] != 0 for c in range(1, 9))

    assert nonvanishing_quadratic_search(3, 3) is None
    assert nonvanishing_quadratic_search(3, 5) is None


def test_no_quadratic_on_f27_is_nonvanishing():
    # the oracle of the None above: every nonzero coefficient vector on
    # F_27 gives a quadratic with a nonzero root
    F27 = get_field(3, 3)
    for vec in itertools.product(range(27), repeat=3):
        if any(vec):
            q = quadratic_part_function([F27.from_index(i) for i in vec])
            assert not all(q.values[1:]), vec


def test_paper_style_diagonal_forms_are_nonvanishing():
    # x1^2 on F_3 and x1^2 + x2^2 on F_9, built via their ANF
    anf1 = ANF(F3, [0, 0, 1])
    q1 = anf_to_truth(anf1)
    assert all(q1.values[c] != 0 for c in range(1, 3))
    coeffs = [0] * 9
    coeffs[2] = 1   # x1^2
    coeffs[6] = 1   # x2^2
    q2 = anf_to_truth(ANF(F9, coeffs))
    assert all(q2.values[c] != 0 for c in range(1, 9))


# -- the field is read from the arguments -------------------------------------------
# The Conway F_81 (`get_field(3, 4)`) is not the family's default realization
# (x^4 + x - 1), so a helper that computed in the default field would be
# wrong here.

CONWAY_F81 = get_field(3, 4)


def test_first_derivative_form_on_the_conway_field():
    params = TrinomialParams(1, 2, 1)
    assert CONWAY_F81 is not params.context()
    f = trinomial_bent(params, CONWAY_F81).truth_table()
    for c in map(CONWAY_F81.from_index, range(1, 81)):
        sym = trinomial_first_derivative_form(params, c)
        assert sym.ctx is CONWAY_F81 and sym.truth_table() == f.derivative(c), c.index


@pytest.mark.parametrize("j", [0, 2])
def test_closed_form_on_the_conway_field(j):
    params = TrinomialParams(1, j, 1)
    spec = walsh_naive(trinomial_bent(params, CONWAY_F81).truth_table()).coords
    for idx in range(81):
        got = trinomial_closed_form_walsh(params, CONWAY_F81.from_index(idx))
        assert got.coords == spec[CONWAY_F81.neg_table[idx]], (j, idx)


def test_closed_form_refuses_a_ctx_other_than_ys():
    params = TrinomialParams(1, 0, 1)
    y = CONWAY_F81.one()
    assert trinomial_closed_form_walsh(params, y, CONWAY_F81) is not None
    with pytest.raises(PreconditionError):
        trinomial_closed_form_walsh(params, y, params.context())


def test_closed_form_setup_is_cached_per_context(monkeypatch):
    # an equal field built after a cache reset gets a setup of its own
    old = get_field(3, 4, (2, 1, 0, 0, 1))
    constructions._closed_form_setup(1, 0, 1, old)
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    new = get_field(3, 4, (2, 1, 0, 0, 1))
    assert new is not old
    assert all(z.ctx is new for z in constructions._closed_form_setup(1, 0, 1, new))


def test_lemma2_witness_on_the_conway_field():
    params = TrinomialParams(1, 2, 1)
    ctx = CONWAY_F81
    b = params.b_coefficient(ctx)
    witnesses = 0
    for c in map(ctx.from_index, range(1, 81)):
        covered = ctx.frobenius(c, 2) == c or (ctx.frobenius(c, 1) != c
                                                and not ctx.rel_trace(b * c, 1).is_zero())
        if not covered:
            with pytest.raises(PreconditionError):
                lemma2_witness(c, params)
            continue
        d = lemma2_witness(c, params)
        z = b * ctx.power(c, 9) + ctx.frobenius(b, -2) * ctx.frobenius(c, -2)
        assert d.ctx is ctx and ctx.trace(z * d) != 0, c.index
        witnesses += 1
    assert witnesses == 56


def test_linearized_coefficient_on_the_conway_field():
    # L_c(d) = 0 exactly when D_{c,d} f is constant, on c's field
    params = TrinomialParams(1, 2, 1)
    ctx = CONWAY_F81
    f = trinomial_bent(params, ctx).truth_table()
    rng = random.Random(7)
    for _ in range(30):
        c, d = (ctx.from_index(rng.randrange(1, 81)) for _ in range(2))
        constant = len(set(f.second_derivative(c, d).values)) == 1
        assert linearized_second_derivative_coeff(params, c, d).is_zero() == constant


def test_slices_on_two_contexts_are_refused():
    # x^2 on the pinned F_3 and on a context of the same field built apart
    g, other = quad(F3), quad(FieldCtx(3, 1, F3.modulus))
    with pytest.raises(PreconditionError, match="field context"):
        bent_concatenation([g, g, other])
    with pytest.raises(PreconditionError, match="field context"):
        mm_special_form([g, other, g], [0, 1, 2])


@pytest.mark.parametrize("field", [(3, 8), (5, 4)])
def test_trinomial_helpers_refuse_a_field_other_than_f_3_4k(field):
    ctx = get_field(*field)
    params = TrinomialParams(1, 2, 1)
    c, d = ctx.from_index(5), ctx.from_index(7)
    calls = [lambda: lemma2_witness(c, params),
             lambda: trinomial_first_derivative_form(params, c),
             lambda: linearized_second_derivative_coeff(params, c, d),
             lambda: params.b_coefficient(ctx),
             lambda: trinomial_closed_form_walsh(TrinomialParams(1, 0, 1), c)]
    for call in calls:
        with pytest.raises(PreconditionError, match=r"^context must realize F_3\^\(4k\)$"):
            call()


def test_quadratic_part_function_refuses_an_empty_list():
    with pytest.raises(PreconditionError):
        quadratic_part_function([])


@pytest.mark.parametrize("j", [0, 6])
def test_closed_form_at_k3_matches_one_point_values(j):
    # n = 12, a few points of each kind: y_0 = 0, the degenerate y_0 =
    # s_j s_k B^-2 and generic y_0; y_0 = Tr^n_k(y) is set through u, Tr^n_k(u) = 1
    from pbent.walsh import single_walsh_value
    params = TrinomialParams(3, j, 13)
    ctx = params.context()
    f = trinomial_bent(params, ctx).truth_table()
    _, big_b, b_inv, u = constructions._closed_form_setup(3, j, 13, ctx)
    s_j, s_k = (1 if j == 0 else -1), -1
    degenerate = (b_inv * b_inv).scale(s_j * s_k)
    assert (big_b * degenerate).scale(s_k) == b_inv.scale(s_j)  # the x_1^2 coefficient is 0
    rng = random.Random(j)
    draws = (ctx.from_index(rng.randrange(1, ctx.q)) for _ in itertools.count())
    generic = (z for z in draws if ctx.rel_trace(z, 3) not in (ctx.zero(), degenerate))
    points = list(itertools.islice(generic, 2))
    for y0 in (ctx.zero(), ctx.zero(), degenerate):
        z = next(draws)
        points.append(z + (y0 - ctx.rel_trace(z, 3)) * u)
        assert ctx.rel_trace(points[-1], 3) == y0
    for y in points:
        got = trinomial_closed_form_walsh(params, y)
        assert got.coords == single_walsh_value(f, (-y).index).coords, (j, y.index)
