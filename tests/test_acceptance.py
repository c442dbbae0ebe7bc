"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  All checks are exact integer assertions; the stated runtime budgets
are asserted where the criterion names one.

Criterion 5 and the optional n = 12 reference test check their values
against the closed-form Walsh oracle as well as the fast transform.  The
dual's nine-entry canonical trace form is also pinned in
test_constructions.py; test_derivanalysis.py pins that derivative
transforms of quadratic bent functions are one-point spikes, which breaks
the symmetry and vanishing checks while both dual identities hold.
"""

import random
import time
from contextlib import contextmanager

import pytest

import pbent as pb
from pbent.cyclo import unit_power_forms
from pbent.funcrep import p_weight
from ring_oracle import Zw

F3 = pb.get_field(3, 1)
F9 = pb.get_field(3, 2)
F27 = pb.get_field(3, 3)
F81 = pb.get_field(3, 4)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("[criterion %02d] FAIL %s" % (num, desc))
        raise
    print("[criterion %02d] PASS %s" % (num, desc))


def rand_f(ctx, rng):
    return pb.PFunction(ctx, [rng.randrange(ctx.p) for _ in range(ctx.q)])


def dual_value(w, p, n):
    """The dual value j of a bent coefficient s * unit * p^(n/2) * w^j,
    read from its code k: j = k (p+1)/2 mod p."""
    return unit_power_forms(p, n)[1][w.coords] * (p + 1) // 2 % p


def trinomial_dual(params, ctx):
    """The dual of a family member, read off its spectral certificate."""
    f = pb.trinomial_bent(params, ctx).truth_table()
    return pb.extract_certificate(pb.walsh_fast(f)).dual


def test_01_trinomial_k1_both_routes():
    with criterion(1, "trinomial k=1: cubic non-weakly regular by both routes, < 5 s"):
        t0 = time.perf_counter()
        for j in (0, 2):
            params = pb.TrinomialParams(1, j, 1)
            f = pb.trinomial_bent(params).truth_table()
            assert f.algebraic_degree() == 3
            # spectral route
            spectrum = pb.walsh_fast(f)
            assert pb.is_bent(spectrum)
            cls = pb.classify(f)
            assert cls.variant == pb.NON_WEAKLY_REGULAR
            # second-order-derivative route: completeness certifies bentness,
            # dual-phase violations certify non-weak-regularity
            cert = pb.cubic_like_certificate(f)
            assert cert.complete
            rep = pb.wr_identity_check(f)
            assert not rep.sound_clean
        assert time.perf_counter() - t0 < 5.0


def test_02_trinomial_k2_fast():
    with criterion(2, "trinomial k=2 (n=8) via the fast transform, < 5 min"):
        t0 = time.perf_counter()
        params = pb.TrinomialParams(2, 1, 1)
        f = pb.trinomial_bent(params).truth_table()
        assert f.algebraic_degree() == 3
        spectrum = pb.walsh_fast(f)
        assert pb.is_bent(spectrum)
        assert pb.classify(f).variant == pb.NON_WEAKLY_REGULAR
        assert time.perf_counter() - t0 < 300.0


def test_03_table1_reproduction():
    with criterion(3, "all five sporadic rows reproduce with matching flags"):
        expected_flags = {
            "sporadic_n3_x8_x14": True,
            "sporadic_n4_x4_g10x22": False,
            "sporadic_n6_g7x98": False,
            "sporadic_n6_g7x14_g35x70": False,
            "sporadic_n6_g1x20_g41x92": True,
        }
        for label, flag in expected_flags.items():
            entry = next(e for e in pb.list_catalog() if e.label == label)
            res = pb.verify_entry(entry)
            assert res["status"] == "match", (label, res)
            assert res["classification"].variant == pb.NON_WEAKLY_REGULAR
            assert res["classification"].dual_bent is flag


def test_04_binomial_weakly_regular():
    with criterion(4, "Tr_4(x^34 + x^2) is weakly regular bent"):
        f = pb.TraceForm(F81, [(F81.one(), 34), (F81.one(), 2)]).truth_table()
        cls = pb.classify(f)
        assert cls.bent
        assert cls.variant == pb.WEAKLY_REGULAR


def test_05_example_dual_degree_and_terms():
    with criterion(5, "k=1 dual: degree 4 and exactly 9 nonlinear terms"):
        params = pb.TrinomialParams(1, 2, 1)
        ctx = params.context()
        f = pb.trinomial_bent(params, ctx).truth_table()
        assert f.algebraic_degree() == 3
        dual = trinomial_dual(params, ctx)
        assert dual.algebraic_degree() == 4
        form = pb.to_relative_trace_form(dual)
        count = form.nonlinear_term_count()
        assert count == 9, "nonlinear term count %d != 9" % count
        # the same dual read off the closed form W_f(z) = closed(-z)
        oracle = pb.PFunction(ctx, [
            dual_value(pb.trinomial_closed_form_walsh(params, -ctx.from_index(z), ctx),
                       3, ctx.n)
            for z in range(ctx.q)])
        assert oracle == dual
        assert pb.to_relative_trace_form(oracle).nonlinear_term_count() == 9


def test_06_closed_forms_match_spectrum():
    with criterion(6, "closed-form Walsh values equal the spectrum at all 81 points"):
        for j in (0, 2):
            params = pb.TrinomialParams(1, j, 1)
            ctx = params.context()
            f = pb.trinomial_bent(params, ctx).truth_table()
            spec = pb.walsh_naive(f)
            signs = set()
            for idx in range(81):
                got = pb.trinomial_closed_form_walsh(params, ctx.from_index(idx), ctx)
                assert got.coords == spec.coords[ctx.neg_table[idx]]
                signs.add((-1) ** unit_power_forms(3, 4)[1][got.coords])  # k odd: -1
            assert signs == {1, -1}


def test_07_wr_identity_suite_quadratic_baselines():
    with criterion(7, "derivative-transform dual identities clean on Tr_n(x^2), n in {2,4}"):
        # the battery checks the dual phase identity, which weak regularity implies
        for ctx in (F9, F81):
            f = pb.TraceForm(ctx, [(ctx.one(), 2)]).truth_table()
            rep = pb.wr_identity_check(f)
            assert rep.exhaustive
            assert rep.pair_count >= (500 if ctx.n == 4 else 81)
            assert rep.sound_clean, "%d sound violations on n=%d" % (len(rep.violations), ctx.n)
        # control: the same battery certifies the non-WR trinomial
        g = pb.trinomial_bent(pb.TrinomialParams(1, 2, 1)).truth_table()
        assert not pb.wr_identity_check(g).sound_clean


def test_08_quadratic_balance_biconditional():
    with criterion(8, "balanced iff constant-nonzero-derivative witness, all 3^6 patterns"):
        monomials = [0, 1, 3, 2, 6, 4]
        checked = 0
        for code in range(3 ** 6):
            digs = []
            m = code
            for _ in range(6):
                m, r = divmod(m, 3)
                digs.append(r)
            coeffs = [0] * 9
            for mono, c in zip(monomials, digs):
                coeffs[mono] = c
            f = pb.anf_to_truth(pb.ANF(F9, coeffs))
            witness = pb.quadratic_balance_witness(f)
            assert (witness is not None) == f.is_balanced()
            if witness is not None:
                d = f.derivative(witness)
                assert d.values[0] != 0 and len(set(d.values)) == 1
            checked += 1
        assert checked == 729


def test_09_cubic_biconditional_random():
    with criterion(9, "bent iff complete certificate on 200 random cubics over F_3^3"):
        rng = random.Random(2024)
        agree = 0
        while agree < 200:
            coeffs = [rng.randrange(3) if p_weight(i, 3) <= 3 else 0
                      for i in range(27)]
            f = pb.anf_to_truth(pb.ANF(F27, coeffs))
            if f.algebraic_degree() != 3:
                continue
            assert pb.cubic_like_certificate(f).complete == pb.is_bent(pb.walsh_fast(f))
            agree += 1


def test_10_transform_correctness():
    with criterion(10, "fast == naive on 200 random functions and all catalog entries"):
        rng = random.Random(77)
        for _ in range(200):
            f = rand_f(F27, rng)
            sn = pb.walsh_naive(f)
            sf = pb.walsh_fast(f)
            assert sn.coords == sf.coords
        for entry in pb.list_catalog():
            _, tf = pb.parse_function_spec(entry.spec)
            f = tf.truth_table()
            assert pb.walsh_naive(f).coords == pb.walsh_fast(f).coords
        # Parseval is asserted inside every spectrum constructor; recheck one
        f = rand_f(F27, rng)
        total = Zw.integer(3, 0)
        for c in pb.walsh_fast(f).coords:
            total = total + Zw(3, c).norm_sq()
        assert total == Zw.integer(3, 27 * 27)


def test_11_bentness_criteria_agreement():
    with criterion(11, "spectral, derivative and second-derivative-sum criteria agree"):
        rng = random.Random(55)
        for _ in range(200):
            f = rand_f(F9, rng)
            spectral = pb.is_bent(pb.walsh_fast(f))
            assert spectral == pb.bent_via_derivatives(f)
            assert spectral == pb.bent_via_second_derivative_sum(f)


def test_12_nonvanishing_quadratic_and_addition():
    with criterion(12, "nonvanishing quadratics for n <= 2, bent sums, None at n = 3"):
        found1 = pb.nonvanishing_quadratic_search(3, 1)
        assert found1 is not None
        q1 = pb.quadratic_part_function(found1)
        assert all(q1.values[c] != 0 for c in range(1, 3))
        assert pb.truth_to_anf(q1).coeffs == [0, 0, 1]  # x_1^2

        found2 = pb.nonvanishing_quadratic_search(3, 2)
        assert found2 is not None
        q2 = pb.quadratic_part_function(found2)
        assert all(q2.values[c] != 0 for c in range(1, 9))
        anf2 = pb.truth_to_anf(q2).coeffs
        assert anf2[2] == anf2[6] == 1 and sum(anf2) == 2  # x_1^2 + x_2^2

        f1 = pb.PFunction(F3, [0, 1, 1])
        g1, rep1 = pb.add_quadratic(f1, found1)
        assert rep1["spectrally_bent"]
        for m in range(4):
            fm = pb.TraceForm(F9, [(F9.gen_power(m), 2)]).truth_table()
            gm, repm = pb.add_quadratic(fm, found2)
            assert repm["spectrally_bent"], m

        assert pb.nonvanishing_quadratic_search(3, 3) is None


@pytest.mark.slow
def test_optional_k3_dual_degree_reference_value():
    params = pb.TrinomialParams(3, 6, 13)  # t = (3^3 - 1)/2 = 13
    ctx = params.context()
    assert trinomial_dual(params, ctx).algebraic_degree() == 8
    # lower bound from the closed form alone: the 8-fold derivative at 0
    # along the directions of the test below is a signed sum of dual values
    # at the 2^8 subset sums, and a nonzero sum forces degree >= 8
    rng = random.Random(5)
    dirs = [ctx.from_index(rng.randrange(1, ctx.q)) for _ in range(8)]
    total = 0
    for mask in range(1 << 8):
        z = ctx.zero()
        for i, d in enumerate(dirs):
            if mask >> i & 1:
                z = z + d
        w = pb.trinomial_closed_form_walsh(params, -z, ctx)
        total += (-1) ** (8 - bin(mask).count("1")) * dual_value(w, 3, ctx.n)
    assert total % 3 != 0


@pytest.mark.slow
def test_optional_k3_dual_degree_computed():
    # long-running: n = 12, fast transform plus an ANF pass on 531441 points
    t0 = time.perf_counter()
    params = pb.TrinomialParams(3, 6, 13)
    ctx = params.context()
    dual = trinomial_dual(params, ctx)
    degree = dual.algebraic_degree()
    print("[optional] k=3 dual degree = %d (%.0f s)" % (degree, time.perf_counter() - t0))
    assert degree == 8
    # independent confirmation: derivatives drop the degree by at least one,
    # so a nonzero 8-fold derivative forces degree >= 8
    rng = random.Random(5)
    g = dual
    for _ in range(8):
        g = g.derivative(ctx.from_index(rng.randrange(1, ctx.q)))
    assert any(g.values)
    assert time.perf_counter() - t0 < 3600.0
