import collections
import functools
import itertools
import json
import math
import random

import pytest

from pbent import derivanalysis, walsh
from pbent.constructions import TrinomialParams, lemma2_witness, trinomial_bent
from pbent.cyclo import signed_powers, unit_power_forms
from pbent.derivanalysis import (SAMPLED_PAIRS, CubicLikeCertificate,
                                 _constant_derivatives, _first_witness_low_degree,
                                 _first_witness_scan, _trilinear_form,
                                 cubic_like_certificate,
                                 derivative_linear_space,
                                 quadratic_balance_witness, wr_identity_check)
from pbent.errors import InternalInconsistency, PreconditionError
from pbent.funcrep import (ANF, PFunction, TraceForm, anf_to_truth, p_weight,
                           parse_function_spec)
from pbent.gf import get_field
from pbent.walsh import classify, extract_certificate, inverse_sums, is_bent, walsh_fast
from digit_oracle import index_add
from ring_oracle import Zw, bent_value

F3 = get_field(3, 1)
F9 = get_field(3, 2)
F27 = get_field(3, 3)
F81 = get_field(3, 4)


def quad(ctx):
    return TraceForm(ctx, [(ctx.one(), 2)]).truth_table()


def random_low_degree(ctx, rng, max_weight=3):
    coeffs = [rng.randrange(3) if p_weight(i, 3) <= max_weight else 0
              for i in range(ctx.q)]
    return anf_to_truth(ANF(ctx, coeffs))


def test_cubic_like_quadratic_bent_complete():
    cert = cubic_like_certificate(quad(F81))
    assert cert.complete
    assert len(cert.witnesses) == 80
    f = quad(F81)
    for a_idx, (b_idx, const) in list(cert.witnesses.items())[:10]:
        dd = f.second_derivative(F81.from_index(a_idx), F81.from_index(b_idx))
        assert dd.values == [const] * 81 and const != 0


def test_cubic_like_zero_function_incomplete():
    cert = cubic_like_certificate(PFunction(F81, [0] * F81.q))
    assert not cert.complete
    assert cert.witnesses == {}


def test_cubic_like_trinomial_complete():
    f = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    cert = cubic_like_certificate(f)
    assert cert.complete


def _paths_agree(f, directions):
    """Both witness paths on each direction; returns the common hits."""
    tri = _trilinear_form(f)
    hits = [_first_witness_low_degree(f, tri, a) for a in directions]
    assert hits == [_first_witness_scan(f, a) for a in directions]
    return hits


def _trilinear_form_oracle(f):
    """The trilinear form with each pick's index reduced by `index_add`
    over the picked basis vectors: the oracle of `_trilinear_form`."""
    p, n = f.ctx.p, f.ctx.n
    e = [p ** i for i in range(n)]
    tri = [[0] * (n * n) for _ in range(n)]
    for ijk in itertools.combinations_with_replacement(range(n), 3):
        val = 0
        for picks in itertools.product((0, 1), repeat=3):
            x = functools.reduce(lambda i, j: index_add(p, i, j),
                                 (e[d] for pick, d in zip(picks, ijk) if pick), 0)
            val += (-1) ** (3 - sum(picks)) * f.values[x]
        for i, j, k in itertools.permutations(ijk):
            tri[i][j * n + k] = val % p
    return tri


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trilinear_form_reads_sums_of_basis_vectors(p, n):
    # seeded tables of any degree: every triple i <= j <= k, i = j = k
    # included, whose three picks of e_i carry into 0 for p = 3 alone
    ctx = get_field(p, n)
    rng = random.Random(100 * p + n)
    f = PFunction(ctx, [rng.randrange(p) for _ in range(ctx.q)])
    assert _trilinear_form(f) == _trilinear_form_oracle(f)


def test_witness_paths_agree():
    # the trilinear-form path must return the same first witness as the scan
    rng = random.Random(31)
    for _ in range(12):
        _paths_agree(random_low_degree(F27, rng), (1, 5, 13))
    for spec in ("p=3 n=6 f=Tr(x^2)", "p=5 n=3 f=Tr(x^2)",
                 "p=5 n=3 f=Tr(x^6+g^1*x^2)"):
        ctx, tf = parse_function_spec(spec)
        hits = _paths_agree(tf.truth_table(), rng.sample(range(1, ctx.q), 8))
        assert None not in hits


def test_witness_paths_agree_on_incomplete_cubic():
    # 26 of the 728 directions have a witness; both paths must also agree
    # on directions that have none
    ctx, tf = parse_function_spec("p=3 n=6 f=Tr(x^13+g^3*x^4)")
    f = tf.truth_table()
    assert f.algebraic_degree() == 3
    cert = cubic_like_certificate(f)
    assert not cert.complete and len(cert.witnesses) == 26
    rng = random.Random(35)
    bare = [a for a in range(1, ctx.q) if a not in cert.witnesses]
    directions = rng.sample(sorted(cert.witnesses), 3) + rng.sample(bare, 3)
    hits = _paths_agree(f, directions)
    assert hits[:3] == [cert.witnesses[a] for a in directions[:3]]
    assert hits[3:] == [None] * 3


def test_cubic_like_quadratic_n8_complete():
    ctx, tf = parse_function_spec("p=3 n=8 f=Tr(x^2)")
    f = tf.truth_table()
    cert = cubic_like_certificate(f)
    assert cert.complete and len(cert.witnesses) == ctx.q - 1
    for a_idx in random.Random(36).sample(range(1, ctx.q), 5):
        assert cert.witnesses[a_idx] == _first_witness_scan(f, a_idx)


ORACLE_INPUTS = [(1, 2, 1), (2, 1, 1), (2, 3, 5),
                 "p=3 n=4 f=Tr(x^34+x^2)", "p=3 n=4 f=Tr(x^4+g^10*x^22)",
                 "p=5 n=3 f=Tr(x^6+g^1*x^2)", "p=7 n=2 f=Tr(x^2+g^1*x^8)"]


def _oracle_input(case):
    """A trinomial's (k, j, t), or a function spec."""
    if isinstance(case, tuple):
        params = TrinomialParams(*case)
        return trinomial_bent(params, params.context()).truth_table()
    return parse_function_spec(case)[1].truth_table()


@pytest.mark.parametrize("case", ORACLE_INPUTS, ids=str)
def test_certificate_matches_per_direction_oracle(case):
    # every direction against the per-direction search; a mirror that kept
    # lambda for -a, or a Gray step on the wrong digit, fails here
    f = _oracle_input(case)
    q, p = f.ctx.q, f.ctx.p
    cert = cubic_like_certificate(f)
    if q <= 729:
        oracle = {a: _first_witness_scan(f, a) for a in range(1, q)}
    else:  # n = 8: scanning all 6,560 directions takes minutes, so a sample is scanned
        tri = _trilinear_form(f)
        oracle = {a: _first_witness_low_degree(f, tri, a) for a in range(1, q)}
        for a in random.Random(q).sample(range(1, q), 24):
            assert oracle[a] == _first_witness_scan(f, a)
    assert cert.witnesses == {a: hit for a, hit in oracle.items() if hit is not None}
    assert cert.complete == (None not in oracle.values())
    # the mirror pairs a with -a, so both carry the same b and opposite constants
    for a, (b, lam) in cert.witnesses.items():
        assert cert.witnesses[f.ctx.neg_table[a]] == (b, -lam % p)


@pytest.mark.parametrize("case", ORACLE_INPUTS[:1] + ORACLE_INPUTS[3:]
                         + ["p=3 n=6 f=Tr(x^13+g^3*x^4)", "p=3 n=1 f=Tr(x^2)"], ids=str)
def test_certificate_searches_each_pair_once(case, monkeypatch):
    # one elimination (p = 3, degree <= 3), kernel search (p >= 5) or scan
    # (degree > 3) per pair a, -a: (q - 1) / 2 of them
    f = _oracle_input(case)
    calls = collections.Counter()
    for path in ("f3_kernel", "_first_witness_low_degree", "_first_witness_scan"):
        def counted(*args, _fn=getattr(derivanalysis, path), _path=path):
            calls[_path] += 1
            return _fn(*args)
        monkeypatch.setattr(derivanalysis, path, counted)
    cubic_like_certificate(f)
    path = ("_first_witness_scan" if f.algebraic_degree() > 3 else
            "f3_kernel" if f.ctx.p == 3 else "_first_witness_low_degree")
    assert calls == {path: (f.ctx.q - 1) // 2}


def random_quadratic(ctx, rng):
    p = ctx.p
    return anf_to_truth(ANF(ctx, [rng.randrange(p) if p_weight(i, p) <= 2 else 0
                                  for i in range(ctx.q)]))


def test_constant_derivatives_match_brute_force():
    rng = random.Random(37)
    for p, n in ((3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        ctx = get_field(p, n)
        first_digit_square = [0] * ctx.q
        first_digit_square[2] = 1  # x_1^2: every b with b_1 = 0 is constant
        inputs = [PFunction(ctx, [rng.randrange(p) for _ in range(ctx.q)]),
                  random_quadratic(ctx, rng), random_quadratic(ctx, rng),
                  anf_to_truth(ANF(ctx, first_digit_square)),
                  PFunction(ctx, [0] * ctx.q),
                  TraceForm(ctx, [(ctx.gen_power(1), 1)]).truth_table()]
        for f in inputs:
            oracle = []
            for b in range(ctx.q):
                vals = set(f.derivative(ctx.from_index(b)).values)
                if len(vals) == 1:
                    oracle.append((b, vals.pop()))
            assert list(_constant_derivatives(f)) == oracle
        assert len(list(_constant_derivatives(inputs[3]))) == ctx.q // p
        assert len(list(_constant_derivatives(inputs[4]))) == ctx.q
        assert [c for _, c in _constant_derivatives(inputs[5])].count(0) == ctx.q // p


@pytest.mark.parametrize("p, n", [(3, 4), (3, 5), (5, 3), (7, 2)])
def test_constant_derivatives_match_add_index_scan(p, n):
    # the digit-sum tables against x + b from `index_add`, point by point;
    # odd n puts the top digit in planes of its own
    ctx = get_field(p, n)
    rng = random.Random(p * 10 + n)
    inputs = [random_quadratic(ctx, rng), random_quadratic(ctx, rng),
              PFunction(ctx, [rng.randrange(p) for _ in range(ctx.q)]),
              TraceForm(ctx, [(ctx.gen_power(1), 1)]).truth_table()]
    inputs.append(inputs[0].derivative(ctx.from_index(rng.randrange(1, ctx.q))))
    for digit in (0, n - 1):  # x_digit^2: constant exactly where b_digit = 0
        square = [0] * ctx.q
        square[2 * p ** digit] = 1
        inputs.append(anf_to_truth(ANF(ctx, square)))
    for f in inputs:
        vals = f.values
        oracle = [(b, (vals[b] - vals[0]) % p) for b in range(ctx.q)
                  if all((vals[index_add(p, x, b)] - vals[x]) % p == (vals[b] - vals[0]) % p
                         for x in range(ctx.q))]
        assert list(_constant_derivatives(f)) == oracle
    assert [len(list(_constant_derivatives(f))) for f in inputs[-3:]] == [ctx.q, ctx.q // p,
                                                                         ctx.q // p]


def test_first_witness_scan_matches_second_derivative_oracle():
    # degree 4, so cubic_like_certificate takes the scan for these
    for spec in ("p=3 n=4 f=Tr(x^34+x^2)", "p=3 n=4 f=Tr(x^4+g^10*x^22)"):
        ctx, tf = parse_function_spec(spec)
        f = tf.truth_table()
        assert f.algebraic_degree() == 4
        for a in range(1, ctx.q):
            expected = None
            for b in range(1, ctx.q):
                vals = set(f.second_derivative(ctx.from_index(a), ctx.from_index(b)).values)
                if len(vals) == 1 and 0 not in vals:
                    expected = (b, vals.pop())
                    break
            assert _first_witness_scan(f, a) == expected


def test_certificate_complete_iff_bent_low_degree():
    rng = random.Random(32)
    for _ in range(40):
        f = random_low_degree(F27, rng)
        assert cubic_like_certificate(f).complete == is_bent(walsh_fast(f))


@pytest.mark.parametrize("p, n, seed, found", [(3, 2, None, (18, 18)), (5, 2, 2, (8, 8)),
                                               (3, 3, 0, (2, 2))])
def test_cubics_are_bent_exactly_when_cubic_like(p, n, seed, found):
    # cubics built from their ANF terms of degree 2 and 3: all 243 at p = 3,
    # n = 2, seeded slices of 500 at p = 5, n = 2 and p = 3, n = 3; a cubic
    # is bent exactly when its certificate is complete, and the weakly
    # regular ones have no sound violation in the battery; `found` counts
    # (bent, weakly regular)
    ctx = get_field(p, n)
    monomials = [sum(e * p ** i for i, e in enumerate(exps))
                 for exps in itertools.product(range(p), repeat=n) if sum(exps) in (2, 3)]
    if seed is None:
        codes = itertools.product(range(p), repeat=len(monomials))
    else:
        rng = random.Random(seed)
        codes = ([rng.randrange(p) for _ in monomials] for _ in range(500))
    bent = weakly_regular = 0
    for code in codes:
        coeffs = [0] * ctx.q
        for m, c in zip(monomials, code):
            coeffs[m] = c
        f = anf_to_truth(ANF(ctx, coeffs))
        cert = cubic_like_certificate(f)
        assert is_bent(walsh_fast(f)) == cert.complete, code
        bent += cert.complete
        if cert.complete and classify(f).variant in (walsh.REGULAR, walsh.WEAKLY_REGULAR):
            weakly_regular += 1
            assert wr_identity_check(f, certificate=cert).sound_clean, code
    assert (bent, weakly_regular) == found


def test_derivative_linear_space():
    lin = TraceForm(F9, [(F9.gen_power(3), 1)]).truth_table()
    assert len(derivative_linear_space(lin)) == 9
    assert len(derivative_linear_space(quad(F9))) == 1  # only zero
    rng = random.Random(33)
    for _ in range(20):
        f = random_low_degree(F27, rng, max_weight=2)
        space = derivative_linear_space(f)
        idxs = {a.index for a in space}
        assert len(idxs) in (1, 3, 9, 27)
        for a in list(space)[:5]:
            for b in list(space)[:5]:
                assert (a + b).index in idxs
                assert a.scale(2).index in idxs


def test_quadratic_balance_witness():
    unbal = PFunction(F3, [0, 1, 1])
    assert quadratic_balance_witness(unbal) is None
    lin = TraceForm(F9, [(F9.one(), 1)]).truth_table()
    w = quadratic_balance_witness(lin)
    assert w is not None and F9.trace(F9.one() * w) != 0
    rng = random.Random(34)
    deep = random_low_degree(F27, rng, max_weight=4)
    while deep.algebraic_degree() <= 2:
        deep = random_low_degree(F27, rng, max_weight=4)
    with pytest.raises(PreconditionError):
        quadratic_balance_witness(deep)


def test_balance_witness_biconditional_exhaustive():
    monomials = [0, 1, 3, 2, 6, 4]  # 1, x1, x2, x1^2, x2^2, x1x2
    for code in range(3 ** 6):
        digs = []
        m = code
        for _ in range(6):
            m, r = divmod(m, 3)
            digs.append(r)
        coeffs = [0] * 9
        for mono, c in zip(monomials, digs):
            coeffs[mono] = c
        f = anf_to_truth(ANF(F9, coeffs))
        assert (quadratic_balance_witness(f) is not None) == f.is_balanced()


def test_wr_identity_sound_on_weakly_regular():
    for f in (quad(F9), quad(F27), quad(get_field(5, 2)), quad(get_field(7, 2)), quad(F81),
              TraceForm(F81, [(F81.one(), 34), (F81.one(), 2)]).truth_table()):
        rep = wr_identity_check(f)
        assert rep.exhaustive and rep.sound_clean and not rep.violations, rep


def test_wr_identity_trinomial_violations():
    params = TrinomialParams(1, 2, 1)
    f = trinomial_bent(params).truth_table()
    rep = wr_identity_check(f)
    assert rep.exhaustive
    assert not rep.sound_clean
    assert len(rep.violations) > 0


@pytest.mark.parametrize("p, n, kinds", [
    (3, 2, {walsh.REGULAR: 108, walsh.WEAKLY_REGULAR: 54}),
    (5, 1, {walsh.REGULAR: 10, walsh.WEAKLY_REGULAR: 10}),
], ids=["p3_n2", "p5_n1"])
def test_wr_identity_census_every_weakly_regular_bent_function_is_clean(p, n, kinds):
    # every function with f(0) = 0, that is every function up to an additive
    # constant: the bent ones are all weakly regular here, and not one pair
    # of theirs is reported, so every reported violation is sound
    ctx = get_field(p, n)
    found = collections.Counter()
    for tail in itertools.product(range(p), repeat=ctx.q - 1):
        f = PFunction(ctx, (0,) + tail)
        if is_bent(walsh_fast(f)):
            found[classify(f).variant] += 1
            rep = wr_identity_check(f)
            assert rep.exhaustive and rep.sound_clean, (tail, rep)
    assert found == kinds
    # the control: the (1, 2, 1) trinomial is non-weakly regular and reported
    g = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    assert wr_identity_check(g).to_json()["sound_violation_count"] > 0


def test_wr_report_lists_the_violations_by_row_then_b():
    # the sporadic function: its rows miss in walk order and in ascending b,
    # row c = 0 first at b = 3; to_json holds their count and the first 32
    ctx, tf = parse_function_spec("p=3 n=4 f=Tr(x^4+g^10*x^22)")
    rep = wr_identity_check(tf.truth_table())
    got = [(v["c"], v["b"]) for v in rep.violations]
    assert rep.violations[0] == {"b": 3, "c": 0} and got == sorted(got)
    assert len(got) == 3690 and rep.to_json()["sound_violation_count"] == 3690
    assert rep.to_json()["violations"] == rep.violations[:32]


def test_wr_identity_requires_bent():
    with pytest.raises(PreconditionError):
        wr_identity_check(PFunction(F9, [0] * F9.q))


def test_trinomial_derivative_spike_location():
    # for c in F_3^*, W_{D_c f} is a single spike of magnitude 3^n at
    # e = b c^(3^j) + b^(3^-j) c^(3^-j), which is nonzero
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    f = trinomial_bent(params, ctx).truth_table()
    b = params.b_coefficient(ctx)
    for c_val in (1, 2):
        c = ctx.scalar(c_val)
        e = b * ctx.power(c, 9) + ctx.frobenius(b, -2) * ctx.frobenius(c, -2)
        assert not e.is_zero()
        spec = walsh_fast(f.derivative(c))
        for y in range(81):
            if y == e.index:
                assert Zw(3, spec.coords[y]).norm_sq() == Zw.integer(3, 81 ** 2)
            else:
                assert not any(spec.coords[y])
        # the spike sits away from its mirror image
        assert spec.coords[ctx.neg_table[e.index]] != spec.coords[e.index]


def _pair_battery_oracle(f, pairs):
    """The per-pair battery that the row-wise `wr_identity_check` replaced,
    kept as its oracle: the dual phase identity W_{D_c f}(b) = w^Tr(bc)
    W_{D_b f*}(-c) in the ring `Zw`, with W_{D_c f} and W_{D_b f*} from a
    transform of each derivative and Tr(bc) from a field product."""
    ctx = f.ctx
    p = ctx.p
    fstar = extract_certificate(walsh_fast(f)).dual
    cache = {}

    def deriv(base, idx):
        key = (base is f, idx)
        if key not in cache:
            cache[key] = walsh_fast(base.derivative(ctx.from_index(idx))).coords
        return cache[key]

    violations = []
    for b, c in pairs:
        tr = ctx.trace(ctx.from_index(b) * ctx.from_index(c))
        lhs = Zw(p, deriv(f, c)[b])
        if lhs != Zw(p, deriv(fstar, b)[index_add(p, 0, c, -1)]) * Zw.omega_pow(p, tr):
            violations.append({"b": b, "c": c})
    return violations


def _assert_json_from_dicts(rep, violations):
    """`rep.to_json()` is byte-identical to the report that the full list of
    violation dicts gives under the formulas of the dict-list report."""
    expected = {
        "pairs_checked": rep.pair_count,
        "exhaustive": rep.exhaustive,
        "violation_count": len(violations),
        "sound_violation_count": len(violations),
        "violations": violations[:32],
    }
    assert json.dumps(rep.to_json(), indent=2) == json.dumps(expected, indent=2)
    assert rep.sound_clean == (not violations)


@pytest.mark.parametrize("make", [
    lambda: trinomial_bent(TrinomialParams(1, 2, 1)).truth_table(),
    lambda: trinomial_bent(TrinomialParams(1, 0, 1)).truth_table(),
    lambda: parse_function_spec("p=3 n=4 f=Tr(x^34+x^2)")[1].truth_table(),
    lambda: parse_function_spec("p=3 n=4 f=Tr(x^4+g^10*x^22)")[1].truth_table(),
    lambda: parse_function_spec("p=3 n=3 f=Tr(x^8+x^14)")[1].truth_table(),
    lambda: quad(F81),
    lambda: quad(get_field(5, 2)),
    lambda: quad(get_field(7, 2)),
], ids=["trinomial_121", "trinomial_101", "x34_x2", "sporadic_x4_x22", "x8_x14",
        "quadratic_p3_n4", "quadratic_p5_n2", "quadratic_p7_n2"])
def test_wr_rows_match_pair_oracle_exhaustive(make):
    # the sporadic function's dual is not bent, so its rows take the product
    # path; x^8 + x^14 is non-weakly regular with a bent dual, and its 108
    # sound violations come from the nonzero phase differences
    f = make()
    q = f.ctx.q
    rep = wr_identity_check(f)
    assert rep.exhaustive and rep.pair_count == q * q
    pairs = [(b, c) for c in range(q) for b in range(q)]
    expected = _pair_battery_oracle(f, pairs)
    assert rep.violations == expected
    _assert_json_from_dicts(rep, expected)


@pytest.mark.parametrize("p, n", [(3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_phase_difference_matches_product_sums(p, n):
    # a bent-shaped W = s U w^j with seeded signs and exponents, U the unit
    # of (p, n), and a seeded local(y) in the place of D_c f(-y): row by row,
    # the inverse sums of the signed powers minus w^local, plus those of
    # w^local, are the product sums of W(y - c) conj(W(y)) divided by p^n,
    # and `_phase_misses` gives the same misses from either side: the
    # signed powers against w^local (divisor 1), or the products against
    # p^n w^local (divisor p^n)
    ctx = get_field(p, n)
    q = ctx.q
    rng = random.Random(10 * p + n)
    signs = [rng.choice((1, -1)) for _ in range(q)]
    exps = [rng.randrange(p) for _ in range(q)]
    w = [bent_value(p, n, s, j).coords for s, j in zip(signs, exps)]
    codes = [(2 * j + p * (s < 0)) % (2 * p) for s, j in zip(signs, exps)]
    assert w == [unit_power_forms(p, n)[0][k] for k in codes]
    powers = signed_powers(p)
    local = [Zw.omega_pow(p, v).coords for v in (rng.randrange(p) for _ in range(q))]
    scaled = [tuple(q * v for v in x) for x in local]
    local_sums = inverse_sums(ctx, local)
    for c in range(q):
        shift = [index_add(p, y, c, -1) for y in range(q)]
        prod = [(Zw(p, w[shift[y]]) * Zw(p, w[y]).conj()).coords for y in range(q)]
        assert derivanalysis._correlation_products(w, shift, p) == prod
        product_sums = inverse_sums(ctx, prod)
        signed = [powers[(codes[shift[y]] - codes[y]) % (2 * p)] for y in range(q)]
        sums = inverse_sums(ctx, [tuple(a - b for a, b in zip(x, v))
                                  for x, v in zip(signed, local)])
        assert [tuple(q * (a + b) for a, b in zip(x, y))
                for x, y in zip(sums, local_sums)] == product_sums
        misses = [b for b in range(q) if product_sums[b] != tuple(q * v for v in local_sums[b])]
        assert misses and misses == [b for b in range(q) if any(sums[b])]
        assert derivanalysis._phase_misses(signed, local, ctx, c, 1) == misses
        assert derivanalysis._phase_misses(prod, scaled, ctx, c, q) == misses
        assert derivanalysis._phase_misses(signed, list(signed), ctx, c, 1) == []


def test_phase_misses_divides_exactly():
    # one nonzero entry 1 at y = 0: its inverse sums are 1 at every b, a
    # miss everywhere, and not divisible by p^n
    ctx = F9
    lhs = [(1, 0)] + [(0, 0)] * (ctx.q - 1)
    rhs = [(0, 0)] * ctx.q
    assert derivanalysis._phase_misses(lhs, rhs, ctx, 0, 1) == list(range(ctx.q))
    with pytest.raises(InternalInconsistency):
        derivanalysis._phase_misses(lhs, rhs, ctx, 0, ctx.q)


def random_anf(ctx, rng, degree):
    """A seeded function whose ANF has random coefficients on the monomials
    of p-weight <= degree, drawn until its degree is exactly `degree`."""
    p = ctx.p
    while True:
        f = anf_to_truth(ANF(ctx, [rng.randrange(p) if p_weight(i, p) <= degree else 0
                                   for i in range(ctx.q)]))
        if f.algebraic_degree() == degree:
            return f


@pytest.mark.parametrize("p, seed", [(5, 1), (7, 1)])
def test_wr_rows_match_pair_oracle_on_bent_cubics(p, seed):
    # the first bent one among seeded ANF cubics at n = 2, weakly regular:
    # no row has a phase miss; each row -c is read from row c, and its
    # witness is checked through D_-c f = -D_c f(. - c)
    ctx = get_field(p, 2)
    rng = random.Random(seed)
    f = random_anf(ctx, rng, 3)
    while not is_bent(walsh_fast(f)):
        f = random_anf(ctx, rng, 3)
    q = ctx.q
    rep = wr_identity_check(f, certificate=cubic_like_certificate(f))
    assert rep.exhaustive and rep.sound_clean and classify(f).bent
    expected = _pair_battery_oracle(f, [(b, c) for c in range(q) for b in range(q)])
    assert rep.violations == expected == []
    _assert_json_from_dicts(rep, expected)


def _battery_rows(q, seed):
    if q * q <= SAMPLED_PAIRS:
        return list(range(q))
    return random.Random(seed).sample(range(q), math.ceil(SAMPLED_PAIRS / q))


@pytest.mark.parametrize("spec,seed", [("p=3 n=5 f=Tr(x^2)", 4),
                                       ("p=5 n=3 f=Tr(g^1*x^2)", 3)])
def test_wr_rows_match_pair_oracle_sampled(spec, seed):
    ctx, tf = parse_function_spec(spec)
    f = tf.truth_table()
    q = ctx.q
    rep = wr_identity_check(f, seed=seed)
    assert rep.exhaustive is False and rep.pair_count == SAMPLED_PAIRS
    # the battery's own pairs: ceil(SAMPLED_PAIRS / q) seeded distinct rows
    # c, every b of each, cut at SAMPLED_PAIRS
    rows = _battery_rows(q, seed)
    assert len(set(rows)) == len(rows)
    pairs = [(b, c) for c in rows for b in range(q)][:SAMPLED_PAIRS]
    expected = _pair_battery_oracle(f, pairs)
    assert rep.violations == expected == []
    _assert_json_from_dicts(rep, expected)


def test_wr_rows_fill_sampled_pairs(monkeypatch):
    # a shrunk sample: 9^2 = 81 pairs are fewer than the sample, so all are
    # checked; 27^2 = 729 are sampled by ceil(100 / 27) = 4 rows, the last
    # one cut after 19 b, on the non-weakly regular Tr(x^8 + x^14): at seed
    # 5 its last row misses both before and past the cut
    monkeypatch.setattr(derivanalysis, "SAMPLED_PAIRS", 100)
    rep = wr_identity_check(quad(F9))
    assert rep.exhaustive and rep.pair_count == 81
    f = parse_function_spec("p=3 n=3 f=Tr(x^8+x^14)")[1].truth_table()
    rep = wr_identity_check(f, seed=5)
    assert not rep.exhaustive and rep.pair_count == 100
    rows = random.Random(5).sample(range(27), 4)
    pairs = [(b, c) for c in rows for b in range(27)][:100]
    assert rep.violations and rep.violations == _pair_battery_oracle(f, pairs)
    full = _pair_battery_oracle(f, [(b, rows[-1]) for b in range(27)])
    assert {v["b"] < 19 for v in full} == {True, False}
    assert {v["c"] for v in rep.violations} <= set(rows)
    _assert_json_from_dicts(rep, rep.violations)


@pytest.mark.parametrize("pairs, seed", [(500, 3), (1000, 2)])
def test_wr_rows_of_minus_c_match_pair_oracle_sampled(pairs, seed, monkeypatch):
    # a row -c walked after row c reads its misses from row c, negated; at
    # 500 pairs, seed 3 walks 60 = -30 in full, which misses nowhere, as row
    # 30 does, and at 1000 pairs, seed 2 walks 20 = -10 in full and cuts its
    # last row, 65 = -46, after 28 b, both with misses
    monkeypatch.setattr(derivanalysis, "SAMPLED_PAIRS", pairs)
    f = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    ctx = f.ctx
    rows = random.Random(seed).sample(range(81), math.ceil(pairs / 81))
    later = [c for i, c in enumerate(rows) if ctx.neg_table[c] in rows[:i]]
    assert later[0] != rows[-1] and (rows[-1] in later) == (seed == 2)
    cert = cubic_like_certificate(f)
    rep = wr_identity_check(f, seed=seed, certificate=cert)
    assert not rep.exhaustive and rep.pair_count == pairs
    expected = _pair_battery_oracle(f, [(b, c) for c in rows for b in range(81)][:pairs])
    assert rep.violations == expected
    missed = {v["c"] for v in rep.violations}.intersection(later)
    assert missed == ({20, 65} if seed == 2 else set())
    _assert_json_from_dicts(rep, expected)
    # the witness check still runs on a row read from row c
    c = later[0]
    bad = dict(cert.witnesses)
    bad[c] = (bad[c][0], bad[c][1] % 2 + 1)
    with pytest.raises(InternalInconsistency):
        wr_identity_check(f, seed=seed, certificate=CubicLikeCertificate(bad, True))


def test_quad_like_implication():
    # the battery checks D_{c,d} f = lambda on every witnessed row it walks:
    # a true lemma-2 witness and a complete certificate pass it
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    f = trinomial_bent(params, ctx).truth_table()
    c = ctx.scalar(1)
    d = lemma2_witness(c, params)
    lam = f.second_derivative(c, d).values[0]
    assert lam != 0 and set(f.second_derivative(c, d).values) == {lam}
    lemma = CubicLikeCertificate({c.index: (d.index, lam)}, False)
    assert wr_identity_check(f, certificate=lemma).violations == wr_identity_check(f).violations
    wr_identity_check(f, certificate=cubic_like_certificate(f))

    g = quad(F9)
    cert = cubic_like_certificate(g)
    assert cert.complete
    assert wr_identity_check(g, certificate=cert).sound_clean


@pytest.mark.parametrize("spec", ["p=3 n=2 f=Tr(x^2)", "p=3 n=4 f=Tr(x^34+x^2)",
                                  "p=5 n=2 f=Tr(x^2)", "p=3 n=5 f=Tr(x^2)"])
def test_quad_like_implication_corrupted_witness_raises(spec):
    # D_{c,d} f is the constant lambda, so any other lambda fails at every
    # point, on an exhaustive row (n <= 4, degree 4 at x^34 + x^2) and on a
    # sampled row walked in full (n = 5)
    ctx, tf = parse_function_spec(spec)
    f = tf.truth_table()
    cert = cubic_like_certificate(f)
    rep = wr_identity_check(f, seed=1, certificate=cert)
    c = next(c for c in _battery_rows(ctx.q, 1)[:-1] if c in cert.witnesses)
    d, lam = cert.witnesses[c]
    bad = dict(cert.witnesses)
    bad[c] = (d, lam % (ctx.p - 1) + 1)
    assert bad[c] != (d, lam)
    with pytest.raises(InternalInconsistency, match="at c=%d," % c):
        wr_identity_check(f, seed=1, certificate=CubicLikeCertificate(bad, True))
    assert rep.sound_clean


@pytest.mark.parametrize("make", [
    lambda: trinomial_bent(TrinomialParams(1, 2, 1)).truth_table(),
    lambda: parse_function_spec("p=3 n=4 f=Tr(x^34+x^2)")[1].truth_table(),
], ids=["trinomial_121", "x34_x2"])
def test_witness_check_raises_on_a_direction_that_is_no_witness(make):
    # a corrupted d: a direction whose D_d D_c f is not constant at all, with
    # the true lambda kept; a quadratic has no such d, every D_d D_c f of it
    # being constant
    f = make()
    ctx = f.ctx
    cert = cubic_like_certificate(f)
    c, d = next((c, d) for c in cert.witnesses for d in range(1, ctx.q) if len(set(
        f.second_derivative(ctx.from_index(c), ctx.from_index(d)).values)) > 1)
    bad = dict(cert.witnesses)
    bad[c] = (d, cert.witnesses[c][1])
    with pytest.raises(InternalInconsistency, match="at c=%d," % c):
        wr_identity_check(f, seed=1, certificate=CubicLikeCertificate(bad, True))


@pytest.mark.parametrize("seed", [0, 12])
def test_witness_implication_reads_the_cut_part_of_the_last_sampled_row(seed):
    # 42 rows of 243 b fill SAMPLED_PAIRS, the last one cut after 37 b; its
    # witness is checked at all 243 points all the same.  At seed 12 that
    # row is read from row -c, walked earlier, and its check reads
    # D_-c f = -D_c f(. - c)
    ctx, tf = parse_function_spec("p=3 n=5 f=Tr(x^2)")
    f = tf.truth_table()
    rows = _battery_rows(ctx.q, seed)
    c = rows[-1]
    assert SAMPLED_PAIRS - (len(rows) - 1) * ctx.q == 37
    assert (ctx.neg_table[c] in rows) == (seed == 12)
    cert = cubic_like_certificate(f)
    assert wr_identity_check(f, seed=seed, certificate=cert).sound_clean
    d, lam = cert.witnesses[c]
    bad = dict(cert.witnesses)
    bad[c] = (d, lam % 2 + 1)
    with pytest.raises(InternalInconsistency, match=r"at c=%d, witness \(d, lambda\) = \(%d, %d\)"
                       % (c, d, lam % 2 + 1)):
        wr_identity_check(f, seed=seed, certificate=CubicLikeCertificate(bad, True))
