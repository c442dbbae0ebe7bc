import collections
import functools
import itertools
import json
import math
import random
from array import array
from itertools import compress

import pytest

from pbent import derivanalysis, walsh
from pbent.catalog import list_catalog
from pbent.constructions import (TrinomialParams, lemma2_witness, mm_special_form,
                                 trinomial_bent)
from pbent.cyclo import signed_powers, unit_power_forms
from pbent.derivanalysis import (SAMPLED_PAIRS, CubicLikeCertificate,
                                 _constant_derivatives, _first_witness_low_degree,
                                 _first_witness_scan, _lane_witnesses, _trilinear_form,
                                 _trilinear_slice,
                                 cubic_like_certificate,
                                 derivative_linear_space,
                                 quadratic_balance_witness, verify_cubic_like,
                                 wr_identity_check)
from pbent.errors import InternalInconsistency, PreconditionError
from pbent.funcrep import (ANF, PFunction, TraceForm, anf_to_truth, p_weight,
                           parse_function_spec)
from pbent.gf import get_field
from pbent.linalg import mat_kernel
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


def _edited(cert, c, b=None, lam=None):
    """A copy of `cert` whose witness of c has the given b and lambda."""
    bs, lams = cert.b[:], cert.lam[:]
    bs[c] = bs[c] if b is None else b
    lams[c] = lams[c] if lam is None else lam
    return CubicLikeCertificate(bs, lams)


def test_cubic_like_quadratic_bent_complete():
    cert = cubic_like_certificate(quad(F81))
    assert cert.complete
    assert len(cert.lam) == 81 and cert.lam.count(0) == 1
    f = quad(F81)
    for a_idx in list(compress(range(81), cert.lam))[:10]:
        b_idx, const = cert.b[a_idx], cert.lam[a_idx]
        dd = f.second_derivative(F81.from_index(a_idx), F81.from_index(b_idx))
        assert dd.values == [const] * 81 and const != 0


def test_cubic_like_zero_function_incomplete():
    cert = cubic_like_certificate(PFunction(F81, [0] * F81.q))
    assert not cert.complete
    assert cert.b == cert.lam == array("i", [0]) * 81


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
    assert not cert.complete and ctx.q - cert.lam.count(0) == 26
    rng = random.Random(35)
    bare = [a for a in range(1, ctx.q) if not cert.lam[a]]
    directions = rng.sample(list(compress(range(ctx.q), cert.lam)), 3) + rng.sample(bare, 3)
    hits = _paths_agree(f, directions)
    assert hits[:3] == [(cert.b[a], cert.lam[a]) for a in directions[:3]]
    assert hits[3:] == [None] * 3


def test_cubic_like_quadratic_n8_complete():
    ctx, tf = parse_function_spec("p=3 n=8 f=Tr(x^2)")
    f = tf.truth_table()
    cert = cubic_like_certificate(f)
    assert cert.complete and len(cert.lam) == ctx.q and cert.lam.count(0) == 1
    for a_idx in random.Random(36).sample(range(1, ctx.q), 5):
        assert (cert.b[a_idx], cert.lam[a_idx]) == _first_witness_scan(f, a_idx)


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
    # lambda for -a (p >= 5), or a lane read wrong (p = 3), fails here
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
    assert list(zip(cert.b, cert.lam)) == [(0, 0)] + [oracle[a] or (0, 0) for a in range(1, q)]
    assert cert.complete == (None not in oracle.values())
    # the mirror pairs a with -a, so both carry the same b and opposite constants
    for a, minus_a in enumerate(f.ctx.neg_table):
        assert (cert.b[minus_a], cert.lam[minus_a]) == (cert.b[a], -cert.lam[a] % p)


def _sparse_low_degree(p, n, seed):
    """Seeded ANF terms of p-weight <= 3, each drawn with probability 0.3."""
    ctx, rng = get_field(p, n), random.Random(seed)
    return anf_to_truth(ANF(ctx, [rng.randrange(p) if p_weight(i, p) <= 3 and rng.random() < 0.3
                                  else 0 for i in range(ctx.q)]))


@pytest.mark.parametrize("make, complete", [
    (lambda: _oracle_input((1, 2, 1)), True),
    (lambda: _oracle_input("p=3 n=6 f=Tr(x^13+g^3*x^4)"), False),
    (lambda: _oracle_input("p=5 n=3 f=Tr(x^6+g^1*x^2)"), True),
    (lambda: _sparse_low_degree(5, 2, 14), False),
    (lambda: _oracle_input("p=7 n=2 f=Tr(x^2+g^1*x^8)"), True),
    (lambda: _sparse_low_degree(7, 2, 8), False),
    (lambda: _oracle_input("p=3 n=4 f=Tr(x^34+x^2)"), False),
], ids=["trinomial_121", "p3_incomplete", "p5", "p5_incomplete", "p7", "p7_incomplete",
        "p3_degree4_scan"])
def test_certificate_json_matches_per_direction_oracles(make, complete):
    # the printed map against a dict of per-direction oracle hits, in index
    # order: `_first_witness_low_degree` at degree <= 3, `_first_witness_scan`
    # above it; an incomplete certificate lists only its witnessed directions
    f = make()
    p, q, neg = f.ctx.p, f.ctx.q, f.ctx.neg_table
    if f.algebraic_degree() <= 3:
        hit = functools.partial(_first_witness_low_degree, f, _trilinear_form(f))
    else:
        hit = functools.partial(_first_witness_scan, f)
    hits = {a: hit(a) for a in range(1, q)}
    witnesses = {str(a): list(h) for a, h in hits.items() if h}
    assert witnesses and complete == (len(witnesses) == q - 1)
    cert = cubic_like_certificate(f)
    out = cert.to_json()
    assert out == {"complete": complete, "witness_count": len(witnesses),
                   "witnesses": witnesses, "implies_bent": complete}
    assert list(out) == ["complete", "witness_count", "witnesses", "implies_bent"]
    assert list(out["witnesses"]) == list(witnesses)
    assert cert.complete == (cert.lam.count(0) == 1)
    for a in range(q):
        assert (cert.b[neg[a]], cert.lam[neg[a]]) == (cert.b[a], -cert.lam[a] % p), a


@pytest.mark.parametrize("case", ORACLE_INPUTS[:1] + ORACLE_INPUTS[3:]
                         + ["p=3 n=6 f=Tr(x^13+g^3*x^4)", "p=3 n=1 f=Tr(x^2)"], ids=str)
def test_certificate_searches_each_pair_once(case, monkeypatch):
    # one `_lane_witnesses` call for every direction (p = 3, degree <= 3);
    # otherwise one kernel search (p >= 5) or scan (degree > 3) per pair
    # a, -a: (q - 1) / 2 of them
    f = _oracle_input(case)
    calls = collections.Counter()
    for path in ("_lane_witnesses", "_first_witness_low_degree", "_first_witness_scan"):
        def counted(*args, _fn=getattr(derivanalysis, path), _path=path):
            calls[_path] += 1
            return _fn(*args)
        monkeypatch.setattr(derivanalysis, path, counted)
    cubic_like_certificate(f)
    if f.algebraic_degree() > 3:
        assert calls == {"_first_witness_scan": (f.ctx.q - 1) // 2}
    elif f.ctx.p == 3:
        assert calls == {"_lane_witnesses": 1}
    else:
        assert calls == {"_first_witness_low_degree": (f.ctx.q - 1) // 2}


def sparse_cubic(ctx, rng, terms):
    """`terms` random ANF terms of 3-weight 3 (all of them if there are
    fewer), with random nonzero coefficients."""
    coeffs = [0] * ctx.q
    cubic = [i for i in range(ctx.q) if p_weight(i, 3) == 3]
    for i in rng.sample(cubic, min(terms, len(cubic))):
        coeffs[i] = rng.randrange(1, 3)
    return anf_to_truth(ANF(ctx, coeffs))


@pytest.mark.parametrize("n", range(1, 9))
def test_lane_witnesses_match_per_direction_oracle(n):
    # seeded cubics of a few terms and of all terms of 3-weight <= 3: every
    # direction's lanes against `_first_witness_low_degree`, and the pair
    # a, -a as (b, lambda), (b, -lambda), which the lanes do not build in.
    # For 2 <= n <= 6 the matrices T(a, ., .) take every rank 0..n; at
    # n = 1 the degree is at most 2, so T = 0.
    ctx = get_field(3, n)
    rng = random.Random(60 + n)
    neg, ranks = ctx.neg_table, set()
    for terms in (1, 2, 4, None) if n <= 6 else (3, None):
        f = random_low_degree(ctx, rng) if terms is None else sparse_cubic(ctx, rng, terms)
        tri = _trilinear_form(f)
        bs, lams = _lane_witnesses(f, tri)
        for a in range(ctx.q):
            assert (bs[a], lams[a]) == (_first_witness_low_degree(f, tri, a) or (0, 0)), a
            assert (bs[neg[a]], lams[neg[a]]) == (bs[a], -lams[a] % 3), a
            if n <= 6:
                ranks.add(n - len(mat_kernel(_trilinear_slice(tri, a, 3), 3)))
    if n <= 6:
        assert ranks == (set(range(n + 1)) if n > 1 else {0})


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


@pytest.mark.parametrize("p, n", [(3, 4), (3, 5), (5, 3), (7, 2), (89, 1)])
def test_constant_derivatives_match_add_index_scan(p, n):
    # the sieve at the basis vectors and the check of what it keeps, against
    # x + b from `index_add`, point by point; the cubic D_a f is the first
    # of a quartic f's seeded directions a on which the sieve keeps some b
    # that is no linear structure, which the check must drop
    ctx = get_field(p, n)
    rng = random.Random(p * 10 + n)

    def oracle(f, points):  # (b, D_b f(0)) where D_b f(x) = D_b f(0) at every x in points
        vals = f.values
        return [(b, (vals[b] - vals[0]) % p) for b in range(ctx.q)
                if all((vals[index_add(p, x, b)] - vals[x]) % p == (vals[b] - vals[0]) % p
                       for x in points)]
    quartic = anf_to_truth(ANF(ctx, [rng.randrange(p) if p_weight(i, p) <= 4 else 0
                                     for i in range(ctx.q)]))
    basis, every = [p ** i for i in range(n)], range(ctx.q)
    cubic = next(g for g in map(quartic.derivative, map(ctx.from_index,
                                                        rng.sample(range(1, ctx.q), ctx.q - 1)))
                 if len(oracle(g, basis)) > len(oracle(g, every)))
    assert cubic.algebraic_degree() >= 3
    inputs = [random_quadratic(ctx, rng), random_quadratic(ctx, rng),
              PFunction(ctx, [rng.randrange(p) for _ in range(ctx.q)]),
              TraceForm(ctx, [(ctx.gen_power(1), 1)]).truth_table(), cubic]
    inputs.append(inputs[0].derivative(ctx.from_index(rng.randrange(1, ctx.q))))
    for digit in (0, n - 1):  # x_digit^2: constant exactly where b_digit = 0
        square = [0] * ctx.q
        square[2 * p ** digit] = 1
        inputs.append(anf_to_truth(ANF(ctx, square)))
    for f in inputs:
        assert list(_constant_derivatives(f)) == oracle(f, every)
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
    # is bent exactly when its certificate is complete, every witness of it
    # checks out, and the weakly regular ones have no sound violation in the
    # battery; `found` counts (bent, weakly regular)
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
        verify_cubic_like(f, cert)
        assert is_bent(walsh_fast(f)) == cert.complete, code
        bent += cert.complete
        if cert.complete and classify(f).variant in (walsh.REGULAR, walsh.WEAKLY_REGULAR):
            weakly_regular += 1
            assert wr_identity_check(f).sound_clean, code
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


def _no_inverse(*args):
    raise AssertionError("an inverse transform ran")


@pytest.mark.parametrize("p, n, kinds", [
    (3, 2, {walsh.REGULAR: 108, walsh.WEAKLY_REGULAR: 54}),
    (5, 1, {walsh.REGULAR: 10, walsh.WEAKLY_REGULAR: 10}),
], ids=["p3_n2", "p5_n1"])
def test_wr_identity_census_every_weakly_regular_bent_function_is_clean(p, n, kinds,
                                                                        monkeypatch):
    # every function with f(0) = 0, that is every function up to an additive
    # constant: the bent ones are all weakly regular here, and not one pair
    # of theirs is reported, so every reported violation is sound; every
    # row is clean, so no battery runs an inverse transform
    ctx = get_field(p, n)
    found = collections.Counter()
    with monkeypatch.context() as patched:
        patched.setattr(derivanalysis, "inverse_sums", _no_inverse)
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
        spec = walsh_fast(f.derivative(c)).coords
        for y in range(81):
            if y == e.index:
                assert Zw(3, spec[y]).norm_sq() == Zw.integer(3, 81 ** 2)
            else:
                assert not any(spec[y])
        # the spike sits away from its mirror image
        assert spec[ctx.neg_table[e.index]] != spec[e.index]


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


def _differences(lhs, rhs):
    """The y where the two sides differ, and lhs[y] - rhs[y] at each."""
    ys = [y for y, (x, v) in enumerate(zip(lhs, rhs)) if x != v]
    return ys, [tuple(a - b for a, b in zip(lhs[y], rhs[y])) for y in ys]


@pytest.mark.parametrize("p, n", [(3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_phase_difference_matches_product_sums(p, n):
    # a bent-shaped W = s U w^j with seeded signs and exponents, U the unit
    # of (p, n), and a seeded local(y) in the place of D_c f(-y): row by row,
    # the inverse sums of the signed powers minus w^local, plus those of
    # w^local, are the product sums of W(y - c) conj(W(y)) divided by p^n,
    # and `_phase_misses` gives the same misses from either side: the
    # signed powers against w^local (divisor 1), or the products against
    # p^n w^local (divisor p^n).  The products read by code pair, each
    # pair multiplied once across the rows, are the oracle's
    ctx = get_field(p, n)
    q = ctx.q
    rng = random.Random(10 * p + n)
    signs = [rng.choice((1, -1)) for _ in range(q)]
    exps = [rng.randrange(p) for _ in range(q)]
    w = [bent_value(p, n, s, j).coords for s, j in zip(signs, exps)]
    codes = [(2 * j + p * (s < 0)) % (2 * p) for s, j in zip(signs, exps)]
    assert w == [unit_power_forms(p, n)[0][k] for k in codes]
    powers = signed_powers(p)
    forms, known = unit_power_forms(p, n)[0], {}
    local = [Zw.omega_pow(p, v).coords for v in (rng.randrange(p) for _ in range(q))]
    scaled = [tuple(q * v for v in x) for x in local]
    local_sums = inverse_sums(ctx, local)
    for c in range(q):
        shift = [index_add(p, y, c, -1) for y in range(q)]
        prod = [(Zw(p, w[shift[y]]) * Zw(p, w[y]).conj()).coords for y in range(q)]
        pairs = [(codes[shift[y]], codes[y]) for y in range(q)]
        assert derivanalysis._pair_products(forms, pairs, known, p) == prod
        product_sums = inverse_sums(ctx, prod)
        signed = [powers[(codes[shift[y]] - codes[y]) % (2 * p)] for y in range(q)]
        sums = inverse_sums(ctx, [tuple(a - b for a, b in zip(x, v))
                                  for x, v in zip(signed, local)])
        assert [tuple(q * (a + b) for a, b in zip(x, y))
                for x, y in zip(sums, local_sums)] == product_sums
        misses = [b for b in range(q) if product_sums[b] != tuple(q * v for v in local_sums[b])]
        assert misses and misses == [b for b in range(q) if any(sums[b])]
        assert derivanalysis._phase_misses(_differences(signed, local), ctx, c, 1) == misses
        assert derivanalysis._phase_misses(_differences(prod, scaled), ctx, c, q) == misses
        assert derivanalysis._phase_misses(_differences(signed, signed), ctx, c, 1) == []


def test_phase_misses_divides_exactly():
    # one nonzero entry 1 at y = 0: its inverse sums are 1 at every b, a
    # miss everywhere, and not divisible by p^n
    ctx = F9
    assert derivanalysis._phase_misses(([0], [(1, 0)]), ctx, 0, 1) == list(range(ctx.q))
    with pytest.raises(InternalInconsistency):
        derivanalysis._phase_misses(([0], [(1, 0)]), ctx, 0, ctx.q)


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
    # no row has a phase miss, and every witness checks out
    ctx = get_field(p, 2)
    rng = random.Random(seed)
    f = random_anf(ctx, rng, 3)
    while not is_bent(walsh_fast(f)):
        f = random_anf(ctx, rng, 3)
    q = ctx.q
    verify_cubic_like(f, cubic_like_certificate(f))
    rep = wr_identity_check(f)
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
    rep = wr_identity_check(f, seed=seed)
    assert not rep.exhaustive and rep.pair_count == pairs
    expected = _pair_battery_oracle(f, [(b, c) for c in rows for b in range(81)][:pairs])
    assert rep.violations == expected
    missed = {v["c"] for v in rep.violations}.intersection(later)
    assert missed == ({20, 65} if seed == 2 else set())
    _assert_json_from_dicts(rep, expected)
    # the witness of a row read from row c is checked all the same
    c, cert = later[0], cubic_like_certificate(f)
    assert cert.lam[c]
    bad = _edited(cert, c, lam=cert.lam[c] % 2 + 1)
    with pytest.raises(InternalInconsistency, match="at a=%d," % c):
        verify_cubic_like(f, bad)


def _inverse_rows(f, monkeypatch, **kwargs):
    """The battery's report, and the rows c, in walk order, that ran an
    inverse transform: each inverse run is credited to the row whose
    `_phase_misses` call it ran in."""
    ran, current = [], []
    phase_misses, inverse = derivanalysis._phase_misses, derivanalysis.inverse_sums

    def tagged(diffs, ctx, c, divisor):
        current[:] = [c]
        return phase_misses(diffs, ctx, c, divisor)

    def credited(ctx, d):
        ran.extend(current)
        return inverse(ctx, d)

    monkeypatch.setattr(derivanalysis, "_phase_misses", tagged)
    monkeypatch.setattr(derivanalysis, "inverse_sums", credited)
    return wr_identity_check(f, **kwargs), ran


def _special_form_n6():
    """A sampled non-weakly regular input at n = 6 with a bent dual: the
    d = 1 special form of a quadratic and two (1, 2, 1) trinomials."""
    t = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    return mm_special_form([quad(t.ctx), t, t], [1, 0, 2])[0]


@pytest.mark.parametrize("make", [
    lambda: trinomial_bent(TrinomialParams(1, 2, 1)).truth_table(),
    lambda: parse_function_spec("p=3 n=3 f=Tr(x^8+x^14)")[1].truth_table(),
    _special_form_n6,
], ids=["trinomial_121", "x8_x14", "special_form_n6_sampled"])
def test_rows_run_an_inverse_transform_exactly_where_they_miss(make, monkeypatch):
    # a bent dual, not weakly regular: a row walked in its own right runs
    # one inverse transform if the pair oracle finds a miss in it, and none
    # if it finds none (its phase classes agree at every y); a row -c walked
    # after row c runs none
    f = make()
    ctx = f.ctx
    assert walsh_fast(extract_certificate(walsh_fast(f)).dual).bent
    assert classify(f).variant == walsh.NON_WEAKLY_REGULAR
    rep, ran = _inverse_rows(f, monkeypatch)
    walked, own = set(), []
    for c, _ in rep.rows:
        if ctx.neg_table[c] not in walked:
            own.append(c)
        walked.add(c)
    missed = {v["c"] for v in _pair_battery_oracle(f, [(b, c) for c in own for b in range(ctx.q)])}
    assert ran == [c for c in own if c in missed]
    assert 0 < len(ran) < len(own)
    assert rep.exhaustive == (ctx.q * ctx.q <= SAMPLED_PAIRS)


def test_weakly_regular_battery_runs_no_inverse_transform(monkeypatch):
    # every row of a weakly regular f is clean, at p = 89 too, where the
    # battery is exhaustive; every witness, of every direction but 0, checks
    # out through lanes of two bytes
    monkeypatch.setattr(derivanalysis, "inverse_sums", _no_inverse)
    f = parse_function_spec("p=89 n=1 f=Tr(x^2)")[1].truth_table()
    cert = cubic_like_certificate(f)
    verify_cubic_like(f, cert)
    rep = wr_identity_check(f)
    assert rep.exhaustive and rep.sound_clean and len(cert.lam) == 89 and cert.lam.count(0) == 1


def _no_gather(*args):
    raise AssertionError("a phase row was gathered")


def _no_spectrum(*args):
    raise AssertionError("a spectrum was built")


@pytest.mark.parametrize("spec", ["p=3 n=4 f=Tr(x^2)", "p=5 n=2 f=Tr(x^2)", "p=89 n=1 f=Tr(x^2)"])
def test_weakly_regular_battery_gathers_nothing(spec, monkeypatch):
    # a weakly regular f, read off the signs of its own spectrum, has one
    # phase class: its battery builds no spectrum, the dual's included, and
    # no row reaches `_phase_misses`.  Its witnesses are checked outside
    # the battery: a corrupted one raises on a direction c < -c and on -c
    ctx, tf = parse_function_spec(spec)
    f = tf.truth_table()
    cert = cubic_like_certificate(f)
    walsh_fast(f)
    with monkeypatch.context() as patched:
        patched.setattr(walsh.WalshSpectrum, "__init__", _no_spectrum)
        patched.setattr(derivanalysis, "_phase_misses", _no_gather)
        rep = wr_identity_check(f)
    assert rep.exhaustive and rep.sound_clean and cert.complete
    c = next(c for c in range(1, ctx.q) if c < ctx.neg_table[c])
    for row in (c, ctx.neg_table[c]):
        bad = _edited(cert, row, lam=cert.lam[row] % (ctx.p - 1) + 1)
        with pytest.raises(InternalInconsistency, match="at a=%d," % row):
            verify_cubic_like(f, bad)
    # the control: a non-weakly regular f, its dual's spectrum memoized by
    # `classify`, has more than one class and gathers
    g = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    classify(g)
    monkeypatch.setattr(walsh.WalshSpectrum, "__init__", _no_spectrum)
    monkeypatch.setattr(derivanalysis, "_phase_misses", _no_gather)
    with pytest.raises(AssertionError, match="gathered"):
        wr_identity_check(g)


@pytest.mark.parametrize("spec", ["p=3 n=6 f=Tr(x^2)", "p=5 n=2 f=Tr(x^2)",
                                  "p=3 n=4 f=Tr(x^34+x^2)"]
                         + [e.spec for e in list_catalog()
                            if e.expected_variant in (walsh.REGULAR, walsh.WEAKLY_REGULAR)])
def test_weakly_regular_dual_has_one_phase_class(spec):
    # the oracle of the battery's reading: for a weakly regular f the codes
    # k of the dual's own transform give one phase class v(y) = k(y) -
    # 2 f(-y) mod 2p, so every row is clean without that transform
    ctx, tf = parse_function_spec(spec)
    f = tf.truth_table()
    assert classify(f).variant in (walsh.REGULAR, walsh.WEAKLY_REGULAR)
    codes = walsh_fast(extract_certificate(walsh_fast(f)).dual).codes
    phase = {(k - 2 * f.values[m]) % (2 * ctx.p) for k, m in zip(codes, ctx.neg_table)}
    assert len(phase) == 1, phase


@pytest.mark.parametrize("n_f, n_cert", [(4, 2), (2, 4)])
def test_witness_check_refuses_a_certificate_of_another_size(n_f, n_cert, monkeypatch):
    # the witness arrays must be q long; the refusal comes before any
    # index sum is read
    f = quad(get_field(3, n_f))
    cert = cubic_like_certificate(quad(get_field(3, n_cert)))
    assert cert.complete and len(cert.lam) == 3 ** n_cert

    def unread(*args):
        raise AssertionError("an index sum was read")
    monkeypatch.setattr(derivanalysis, "index_sums", unread)
    with pytest.raises(PreconditionError, match="certificate"):
        verify_cubic_like(f, cert)


def test_mirrored_witness_is_taken_as_checked_only_when_negated():
    # the (1, 2, 1) trinomial: the certificate stores -c's witness as c's
    # mirrored, (b[c], -lambda), as D_b D_-c f(x) = -D_b D_c f(x - c), and
    # it passes; (b[c], +lambda) is no witness of -c and raises, another
    # true witness of -c passes, and a direction that is no witness, with
    # the mirrored lambda, raises
    f = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    ctx = f.ctx
    cert = cubic_like_certificate(f)
    assert cert.complete
    verify_cubic_like(f, cert)
    checked = 0
    for c in [c for c in range(1, ctx.q) if c < ctx.neg_table[c]]:
        m, d, lam = ctx.neg_table[c], cert.b[c], cert.lam[c]
        assert (cert.b[m], cert.lam[m]) == (d, -lam % 3)
        constants = {e: set(f.second_derivative(ctx.from_index(m), ctx.from_index(e)).values)
                     for e in range(1, ctx.q)}
        if all(len(vs) == 1 for vs in constants.values()):
            continue  # c in F_3^*: every D_e D_-c f is constant
        checked += 1
        with pytest.raises(InternalInconsistency, match="at a=%d," % m):
            verify_cubic_like(f, _edited(cert, m, lam=lam))
        other = next(e for e, vs in constants.items() if e != d and len(vs) == 1 and 0 not in vs)
        verify_cubic_like(f, _edited(cert, m, b=other, lam=constants[other].pop()))
        wrong = next(e for e, vs in constants.items() if len(vs) > 1)
        with pytest.raises(InternalInconsistency, match="at a=%d," % m):
            verify_cubic_like(f, _edited(cert, m, b=wrong))
    assert checked == 39


@pytest.mark.parametrize("pairs, seed", [(None, 0), (1000, 2)], ids=["exhaustive", "sampled"])
def test_corrupted_witness_raises_on_every_kind_of_row(pairs, seed, monkeypatch):
    # the (1, 2, 1) trinomial walked whole, and on 13 rows at seed 2: the
    # witness of a clean row (no inverse run), of a row with misses (one
    # inverse run) and of a row -c read from row c each raise in the
    # witness check once their lambda is corrupted
    if pairs:
        monkeypatch.setattr(derivanalysis, "SAMPLED_PAIRS", pairs)
    f = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    ctx = f.ctx
    cert = cubic_like_certificate(f)
    rep = wr_identity_check(f, seed=seed)
    assert rep.exhaustive == (pairs is None) and cert.complete
    rows = [c for c, _ in rep.rows]
    misses = dict(rep.rows[:-1])  # the last row may be cut
    mirrored = [c for i, c in enumerate(rows) if ctx.neg_table[c] in rows[:i]]
    own = [c for c in misses if c and c not in mirrored]
    kinds = (next(c for c in own if not misses[c]), next(c for c in own if misses[c]),
             next(c for c in mirrored if c in misses))
    for c in kinds:
        assert cert.lam[c]
        bad = _edited(cert, c, lam=cert.lam[c] % 2 + 1)
        with pytest.raises(InternalInconsistency, match="at a=%d," % c):
            verify_cubic_like(f, bad)


def test_quad_like_implication():
    # the witness check reads D_{c,d} f = lambda at every witnessed
    # direction: a true lemma-2 witness alone, and a complete certificate,
    # pass it
    params = TrinomialParams(1, 2, 1)
    ctx = params.context()
    f = trinomial_bent(params, ctx).truth_table()
    c = ctx.scalar(1)
    d = lemma2_witness(c, params)
    lam = f.second_derivative(c, d).values[0]
    assert lam != 0 and set(f.second_derivative(c, d).values) == {lam}
    bs, lams = array("i", [0]) * ctx.q, array("i", [0]) * ctx.q
    bs[c.index], lams[c.index] = d.index, lam
    lemma = CubicLikeCertificate(bs, lams)
    assert not lemma.complete
    verify_cubic_like(f, lemma)
    verify_cubic_like(f, cubic_like_certificate(f))

    g = quad(F9)
    cert = cubic_like_certificate(g)
    assert cert.complete
    verify_cubic_like(g, cert)
    assert wr_identity_check(g).sound_clean


@pytest.mark.parametrize("spec", ["p=3 n=2 f=Tr(x^2)", "p=3 n=4 f=Tr(x^34+x^2)",
                                  "p=5 n=2 f=Tr(x^2)", "p=3 n=5 f=Tr(x^2)"])
def test_quad_like_implication_corrupted_witness_raises(spec):
    # D_{c,d} f is the constant lambda, so any other lambda fails at every
    # point: on a direction of an exhaustive battery (n <= 4, degree 4 at
    # x^34 + x^2, read at every point) and of a sampled row walked in full
    # (n = 5)
    ctx, tf = parse_function_spec(spec)
    f = tf.truth_table()
    cert = cubic_like_certificate(f)
    c = next(c for c in _battery_rows(ctx.q, 1)[:-1] if cert.lam[c])
    lam = cert.lam[c]
    bad = _edited(cert, c, lam=lam % (ctx.p - 1) + 1)
    assert (bad.b[c], bad.lam[c]) != (cert.b[c], lam)
    verify_cubic_like(f, cert)
    with pytest.raises(InternalInconsistency, match="at a=%d," % c):
        verify_cubic_like(f, bad)
    assert wr_identity_check(f, seed=1).sound_clean


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
    c, d = next((c, d) for c in compress(range(ctx.q), cert.lam) for d in range(1, ctx.q)
                if len(set(f.second_derivative(ctx.from_index(c), ctx.from_index(d)).values)) > 1)
    with pytest.raises(InternalInconsistency, match="at a=%d," % c):
        verify_cubic_like(f, _edited(cert, c, b=d))


@pytest.mark.parametrize("seed", [0, 12])
def test_witness_implication_reads_the_cut_part_of_the_last_sampled_row(seed):
    # 42 rows of 243 b fill SAMPLED_PAIRS, the last one cut after 37 b; the
    # witness of its direction is checked in full all the same.  At seed 12
    # that row is read from row -c, walked earlier, and its corrupted
    # witness is checked in its own right, not taken from -c's
    ctx, tf = parse_function_spec("p=3 n=5 f=Tr(x^2)")
    f = tf.truth_table()
    rows = _battery_rows(ctx.q, seed)
    c = rows[-1]
    assert SAMPLED_PAIRS - (len(rows) - 1) * ctx.q == 37
    assert (ctx.neg_table[c] in rows) == (seed == 12)
    cert = cubic_like_certificate(f)
    assert wr_identity_check(f, seed=seed).sound_clean
    verify_cubic_like(f, cert)
    d, lam = cert.b[c], cert.lam[c]
    assert lam
    bad = _edited(cert, c, lam=lam % 2 + 1)
    with pytest.raises(InternalInconsistency, match=r"at a=%d, witness \(b, lambda\) = \(%d, %d\)"
                       % (c, d, lam % 2 + 1)):
        verify_cubic_like(f, bad)


def _second_derivative(f, a, b):
    """D_a D_b f at every point, through `index_add`: the per-direction
    oracle of `verify_cubic_like`."""
    p, vals = f.ctx.p, f.values
    ab = index_add(p, a, b)
    return [(vals[index_add(p, x, ab)] - vals[index_add(p, x, a)] - vals[index_add(p, x, b)]
             + vals[x]) % p for x in range(f.ctx.q)]


@pytest.mark.parametrize("p, n", [(p, n) for p in (3, 5, 7) for n in range(1, 9)
                                  if p ** n <= 3 ** 8])
def test_witness_check_matches_per_direction_oracle(p, n):
    # a complete map (the bent Tr(x^2)) and, for n > 1, an incomplete one
    # with witnesses (seeded sparse ANF of p-weight <= 3; at n = 1 every
    # map of degree <= 3 is complete or empty):
    # seeded directions against `_first_witness_low_degree` and D_a D_b f
    # at every point, and each with its b moved or its lambda moved, or
    # given a witness where it has none; the check raises, naming the
    # direction, exactly where the oracle's D_a D_b f is not the constant
    ctx = get_field(p, n)
    q, rng = ctx.q, random.Random(1000 * p + n)
    maps = [quad(ctx)]
    for seed in range(40 if n > 1 else 0):
        f = _sparse_low_degree(p, n, seed)
        if 0 < ctx.q - cubic_like_certificate(f).lam.count(0) < q - 1:
            maps.append(f)
            break
    assert len(maps) == (1 if n == 1 else 2)
    for f in maps:
        cert = cubic_like_certificate(f)
        assert cert.complete == (f is maps[0])
        verify_cubic_like(f, cert)
        tri = _trilinear_form(f)
        for a in rng.sample(range(1, q), min(q - 1, 6)):
            b, lam = cert.b[a], cert.lam[a]
            assert (b, lam) == (_first_witness_low_degree(f, tri, a) or (0, 0))
            if lam:
                assert set(_second_derivative(f, a, b)) == {lam}
            for b2, lam2 in ((index_add(p, b, p ** rng.randrange(n)), lam or 1),
                             (b, lam % (p - 1) + 1), (rng.randrange(q), rng.randrange(1, p))):
                bad = _edited(cert, a, b=b2, lam=lam2)
                if set(_second_derivative(f, a, b2)) == {lam2}:
                    verify_cubic_like(f, bad)
                else:
                    with pytest.raises(InternalInconsistency, match="at a=%d," % a):
                        verify_cubic_like(f, bad)


def _corruptions_seen_at_one_point(f, points):
    """For each x of `points`, a direction a and a witness (b, lambda)
    whose D_a D_b f is lambda != 0 at every other point of `points` and
    not at x, if f has one."""
    ctx, found = f.ctx, {}
    for a, b in itertools.product(range(1, ctx.q), repeat=2):
        dd = f.second_derivative(ctx.from_index(a), ctx.from_index(b)).values
        for x in points:
            rest = {dd[y] for y in points if y != x}
            if x not in found and len(rest) == 1 and 0 not in rest and dd[x] not in rest:
                found[x] = a, b, rest.pop()
        if len(found) == len(points):
            break
    return found


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
def test_witness_check_reads_every_point(p, n):
    # a seeded cubic's D_a D_b f is affine: a witness wrong at one of 0,
    # e_0, ..., e_(n-1) alone is caught, each point by its own lane
    ctx = get_field(p, n)
    f = random_anf(ctx, random.Random(0), 3)
    points = [0] + [p ** i for i in range(n)]
    found = _corruptions_seen_at_one_point(f, points)
    assert sorted(found) == points
    cert = cubic_like_certificate(f)
    for x, (a, b, lam) in found.items():
        with pytest.raises(InternalInconsistency, match="at a=%d," % a):
            verify_cubic_like(f, _edited(cert, a, b=b, lam=lam))


def test_witness_check_reads_every_point_above_degree_3():
    # at degree 4, D_a D_b f need not be affine: a witness right at 0 and
    # at every basis vector but wrong elsewhere is caught, as the check then
    # reads every point
    f = parse_function_spec("p=3 n=4 f=Tr(x^34+x^2)")[1].truth_table()
    ctx = f.ctx
    assert f.algebraic_degree() == 4
    points = [0] + [3 ** i for i in range(ctx.n)]
    cert = cubic_like_certificate(f)
    for a, b in itertools.product(range(1, ctx.q), repeat=2):
        dd = f.second_derivative(ctx.from_index(a), ctx.from_index(b)).values
        if len({dd[x] for x in points}) == 1 and dd[0] and len(set(dd)) > 1:
            break
    with pytest.raises(InternalInconsistency, match="at a=%d," % a):
        verify_cubic_like(f, _edited(cert, a, b=b, lam=dd[0]))


@pytest.mark.parametrize("p, n", [(3, 2), (3, 5), (5, 1), (5, 3)])
def test_quadratic_sieve_matches_the_checked_scan(p, n):
    # for degree <= 2 the sieve at the basis vectors is exact: E_f and the
    # balance witness, which skip the q-point check, equal the checked scan
    # on seeded quadratics, the zero function and x_0^2 (E_f of p^(n-1) b)
    ctx = get_field(p, n)
    rng = random.Random(10 * p + n)
    square = [0] * ctx.q
    square[2] = 1
    inputs = [random_quadratic(ctx, rng) for _ in range(6)]
    inputs += [PFunction(ctx, [0] * ctx.q), anf_to_truth(ANF(ctx, square))]
    for f in inputs:
        assert f.algebraic_degree() <= 2
        checked = list(_constant_derivatives(f))
        assert list(_constant_derivatives(f, quadratic=True)) == checked
        assert derivative_linear_space(f) == [ctx.from_index(b) for b, _ in checked]
        witness = next((b for b, c in checked if c), None)
        assert quadratic_balance_witness(f) == (None if witness is None
                                                else ctx.from_index(witness))
