import itertools
import operator
import random
from array import array

import pytest

from pbent import gf
from pbent.errors import BudgetError, InternalInconsistency, ParseError, PreconditionError
from pbent.gf import (FieldCtx, FieldError, check_field_size, default_modulus,
                      get_field, is_prime, parse_field_spec, prime_factors, _CONWAY, _ppow)
from digit_oracle import index_add
from test_linalg import mat_vec

F9 = get_field(3, 2)
F81 = get_field(3, 4)
F81_TRI = get_field(3, 4, (2, 1, 0, 0, 1))  # x^4 + x - 1
# the root of x^4+x^3+x^2+x+1 has order 5, so the primitive element is searched
F81_SEARCHED = get_field(3, 4, (1, 1, 1, 1, 1))
# p = 3, 5, 7; n = 1; odd n; a pinned and a searched primitive element
INDEX_FIELDS = [get_field(3, 1), get_field(3, 3), F81, F81_SEARCHED, get_field(3, 5),
                get_field(5, 1), get_field(5, 3), get_field(7, 1), get_field(7, 2)]


def test_construction_rejects_bad_moduli():
    with pytest.raises(FieldError):
        FieldCtx(3, 2, (1, 2, 1))  # (x+1)^2
    # (x+1)(x^2+1)(x^3+2x+1): x^(3^6) = x mod f, so only the kernel refuses it
    with pytest.raises(FieldError, match="^modulus is reducible over F_3$"):
        FieldCtx(3, 6, (1, 0, 0, 1, 0, 1, 1))
    with pytest.raises(FieldError):
        FieldCtx(3, 2, (1, 1))  # wrong degree
    with pytest.raises(FieldError):
        FieldCtx(4, 2)  # p not prime


def _monic(p, n):
    return [tail + (1,) for tail in itertools.product(range(p), repeat=n)]


def _poly_mul(g, h, p):
    out = [0] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _mobius(d):
    primes = prime_factors(d)
    return 0 if any(d % (r * r) == 0 for r in primes) else (-1) ** len(primes)


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                                  (5, 2), (5, 3), (7, 2), (7, 3)])
def test_irreducibility_matches_the_product_oracle(p, n):
    # a monic f is irreducible exactly when it is no product of two monic
    # polynomials of positive degree; their count is Gauss's formula
    # (1/n) sum_{d | n} mu(d) p^(n/d)
    products = {_poly_mul(g, h, p) for d in range(1, n // 2 + 1)
                for g in _monic(p, d) for h in _monic(p, n - d)}
    irreducible = [f for f in _monic(p, n) if f not in products]
    assert [f for f in _monic(p, n) if gf._poly_is_irreducible(f, p, n)] == irreducible
    assert n * len(irreducible) == sum(_mobius(d) * p ** (n // d)
                                       for d in range(1, n + 1) if n % d == 0)


def test_pinned_moduli_are_conway_compatible():
    # root^((p^n-1)/(p^d-1)) must be a root of the pinned degree-d modulus
    for (p, n), mod in _CONWAY.items():
        ctx = get_field(p, n)
        for d in range(1, n):
            if n % d or (p, d) not in _CONWAY:
                continue
            sub = _CONWAY[(p, d)]
            z = ctx.gen_power((p ** n - 1) // (p ** d - 1))
            acc = ctx.zero()
            for coeff in reversed(sub):
                acc = acc * z + ctx.scalar(coeff)
            assert acc.is_zero(), (p, n, d)


def test_mul_identity_exhaustive_f9():
    one = F9.one()
    for x in map(F9.from_index, range(F9.q)):
        assert x * one == x


def test_primitive_order():
    for ctx in (F9, F81, get_field(5, 2), get_field(7, 2)):
        assert ctx.primitive ** ctx.order == ctx.one()
        for r in prime_factors(ctx.order):
            assert ctx.primitive ** (ctx.order // r) != ctx.one()


def test_trinomial_modulus_root_relation():
    a = F81_TRI.primitive
    assert a ** 4 == F81_TRI.one() - a


def test_inverse_and_division():
    rng = random.Random(1)
    for _ in range(50):
        x = F81.from_index(rng.randrange(1, 81))
        assert x * x.inverse() == F81.one()
    with pytest.raises(ZeroDivisionError):
        F81.zero().inverse()


def test_pow_large_exponents_reduce_mod_group_order():
    rng = random.Random(2)
    for _ in range(20):
        x = F81.from_index(rng.randrange(1, 81))
        e = rng.randrange(10 ** 6)
        assert x ** e == x ** (e % 80)
    assert F81.zero() ** 0 == F81.one()
    assert F81.zero() ** 5 == F81.zero()


def test_rel_trace_of_one():
    assert F81.rel_trace(F81.one(), 1) == F81.scalar(4 % 3)


def test_rel_trace_direct_power_sum_f9():
    z = F9.primitive
    expected = z + z * z * z
    assert F9.rel_trace(z, 1) == expected
    assert not any(expected.coeffs[1:])


def test_rel_trace_lands_in_subfield_exhaustive_f81():
    for x in map(F81.from_index, range(F81.q)):
        for k in (1, 2, 4):
            t = F81.rel_trace(x, k)
            assert F81.frobenius(t, k) == t
    with pytest.raises(PreconditionError):
        F81.rel_trace(F81.one(), 3)


def test_trace_transitivity():
    # Tr_n(x) = Tr_k(Tr^n_k(x)), with Tr_k(y) = Tr_n(u y) for Tr^n_k(u) = 1
    u2 = F81.rel_trace_unit(2)
    for x in map(F81.from_index, range(F81.q)):
        assert F81.trace(x) == F81.trace(u2 * F81.rel_trace(x, 2))
    big = get_field(3, 8)
    rng = random.Random(3)
    for _ in range(60):
        x = big.from_index(rng.randrange(big.q))
        for k in (2, 4):
            assert big.trace(x) == big.trace(big.rel_trace_unit(k) * big.rel_trace(x, k))


def test_frobenius_basics():
    rng = random.Random(4)
    for _ in range(30):
        x = F81.from_index(rng.randrange(81))
        y = F81.from_index(rng.randrange(81))
        e = rng.randrange(8)
        assert F81.frobenius(x, 0) == x
        assert F81.frobenius(x, -1) == F81.frobenius(x, 3)
        assert F81.frobenius(F81.frobenius(x, -1), 1) == x
        assert F81.frobenius(x * y, e) == F81.frobenius(x, e) * F81.frobenius(y, e)
    big = get_field(3, 8)
    for _ in range(60):
        x, y = (big.from_index(rng.randrange(big.q)) for _ in range(2))
        e = rng.randrange(8)
        assert big.frobenius(x * y, e) == big.frobenius(x, e) * big.frobenius(y, e)


def test_field_axioms_sampled():
    rng = random.Random(5)
    ctx = get_field(5, 2)
    for _ in range(40):
        x = ctx.from_index(rng.randrange(25))
        y = ctx.from_index(rng.randrange(25))
        z = ctx.from_index(rng.randrange(25))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_index_arithmetic_matches_elements():
    rng = random.Random(6)
    for _ in range(40):
        i, j = rng.randrange(81), rng.randrange(81)
        assert index_add(3, i, j) == (F81.from_index(i) + F81.from_index(j)).index
        assert index_add(3, i, j, -1) == (F81.from_index(i) - F81.from_index(j)).index
        assert index_add(3, 0, i, -1) == (-F81.from_index(i)).index
    for a in (0, 1, 17, 80):
        perm = F81.shift_table(a)
        for x in (0, 1, 40, 80):
            assert perm[x] == (F81.from_index(x) + F81.from_index(a)).index


def test_half_rows_match_add_index():
    rng = random.Random(8)
    for ctx in INDEX_FIELDS:
        idxs = [rng.randrange(ctx.q) for _ in range(40)]
        for r in sorted({0, 1, ctx.q - 1, rng.randrange(ctx.q)}):
            hi, lo, half = gf.half_rows(ctx.p, ctx.n, r)
            assert [hi[x // half] + lo[x % half] for x in idxs] == [index_add(ctx.p, x, r)
                                                                    for x in idxs]
            assert ctx.shift_table(r) == [index_add(ctx.p, x, r) for x in range(ctx.q)]
    for p, m in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1)):
        assert [gf.shift_row(p, m, b) for b in range(p ** m)] == [
            [index_add(p, x, b) for x in range(p ** m)] for b in range(p ** m)]


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 5), (3, 6), (5, 1), (5, 3), (7, 2),
                                  (89, 1)])
def test_index_sums_and_translations_match_add_index(p, n):
    # x + ys[x] at every x for seeded ys (zero and q - 1 included), through
    # the addition tables of both halves of the digits; f(y + x) by
    # rotations of a table of values, at zero, at every basis vector, at
    # q - 1 and at seeded x
    q = p ** n
    rng = random.Random(10 * p + n)
    for m in (m for m in range(3) if p ** m <= 81):
        assert gf.addition_row(p, m) == [index_add(p, u, v) for u in range(p ** m)
                                         for v in range(p ** m)]
    for ys in ([0] * q, [q - 1] * q, [rng.randrange(q) for _ in range(q)]):
        assert list(gf.index_sums(p, n, array("i", ys))) == [
            index_add(p, x, y) for x, y in enumerate(ys)]
    vals = array("B", [rng.randrange(p % 256) for _ in range(q)])
    for x in [0, q - 1] + [p ** i for i in range(n)] + [rng.randrange(q) for _ in range(3)]:
        assert list(gf.translated(vals, p, x)) == [vals[index_add(p, y, x)] for y in range(q)]


def test_field_errors_are_parse_errors_and_bugs_are_internal():
    assert issubclass(FieldError, ParseError)
    assert [m for m in range(-3, 40) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23,
                                                         29, 31, 37]
    # a primitive element of the wrong order can only come from a bug
    ctx = FieldCtx(3, 2)
    ctx.primitive = ctx.zero()
    with pytest.raises(InternalInconsistency, match="did not close"):
        ctx.ensure_tables()


def test_missing_primitive_element_is_internal(monkeypatch):
    # every finite field has a primitive element, so failing to find one is a bug
    monkeypatch.setattr(gf, "_is_primitive", lambda x, modulus, p: False)
    with pytest.raises(InternalInconsistency, match="no primitive element"):
        FieldCtx(3, 2, (2, 2, 1))


@pytest.mark.parametrize("p, primitive", [(2, (1,)), (3, (2,)), (5, (2,))])
def test_modulus_x_finds_a_primitive_element_from_one(p, primitive):
    # the root of x is 0, so the search runs; 1 has order p - 1 only in F_2
    assert FieldCtx(p, 1, (0, 1)).primitive.coeffs == primitive


def test_linear_table_matches_mat_vec():
    rng = random.Random(9)
    for ctx in INDEX_FIELDS:
        for _ in range(3):
            cols = [rng.randrange(ctx.q) for _ in range(ctx.n)]
            mat = [[ctx.from_index(c).coeffs[row] for c in cols] for row in range(ctx.n)]
            assert ctx.linear_table(cols) == [
                ctx.to_index(mat_vec(mat, list(ctx.from_index(v).coeffs), ctx.p))
                for v in range(ctx.q)]


def _linear_table_oracle(ctx, cols):
    """The linear table as built before each column's half rows were
    cached: every block shifted by `shift_row`s of its own."""
    h = (ctx.n + 1) // 2
    half = ctx.p ** h
    table = [0]
    for c in cols:
        blocks = [table]
        for _ in range(ctx.p - 1):
            c_hi, c_lo = divmod(c, half)
            lo = gf.shift_row(ctx.p, h, c_lo)
            hi = [v * half for v in gf.shift_row(ctx.p, ctx.n - h, c_hi)]
            blocks.append([hi[x // half] + lo[x % half] for x in blocks[-1]])
        table = [v for block in blocks for v in block]
    return table


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 7))
def test_linear_table_matches_per_block_shifts(p, n):
    # seeded columns, zero and repeated ones included, from none up to n + 1
    ctx = get_field(p, n)
    rng = random.Random(100 * p + n)
    cols_list = [[], [0], [ctx.q - 1, ctx.q - 1]]
    cols_list += [[rng.randrange(ctx.q) for _ in range(k)] for k in range(1, min(n, 3) + 2)]
    if p ** n <= 3 ** 6:
        cols_list.append([rng.randrange(ctx.q) for _ in range(n)])
    for cols in cols_list:
        assert ctx.linear_table(cols) == _linear_table_oracle(ctx, cols)


def test_tables_match_powers_and_trace():
    assert F81_SEARCHED.primitive.index != 3  # not the root alpha
    for ctx in INDEX_FIELDS:
        ctx.ensure_tables()
        g = ctx.primitive.coeffs
        cur = ctx.one().coeffs
        for m in range(ctx.order):
            assert ctx.exp_table[m] == ctx.to_index(cur)
            assert ctx.log_table[ctx.exp_table[m]] == m
            assert ctx._trace_of_exp[m] == ctx.trace_coeffs(cur)
            cur = ctx.mul_t(cur, g)
        assert cur == ctx.one().coeffs
        assert ctx.log_table[0] == -1


def test_tables_n12_sampled():
    ctx = get_field(3, 12)
    ctx.ensure_tables()
    g = ctx.primitive.coeffs
    rng = random.Random(12)
    for i, m in enumerate(rng.sample(range(ctx.order), 2000)):
        x = ctx.from_index(ctx.exp_table[m]).coeffs
        if i < 10:  # a few exponents against the table-free polynomial power
            assert x == _ppow(g, m, ctx.modulus, ctx.p)
        assert ctx.exp_table[(m + 1) % ctx.order] == ctx.to_index(ctx.mul_t(x, g))
        assert ctx.log_table[ctx.exp_table[m]] == m
        assert ctx._trace_of_exp[m] == ctx.trace_coeffs(x)


def _walk_tables(ctx):
    """The labelled oracle of `FieldCtx._build_tables`: exp by a walk of the
    linear table of multiplication by g, one entry per step, log by a
    per-entry scatter, and trace-of-exp read from the linear table of the
    trace."""
    g = ctx.primitive.coeffs
    step = ctx.linear_table([ctx.to_index(ctx.mul_t(g, ctx.from_index(ctx.p ** i).coeffs))
                             for i in range(ctx.n)])
    exp = [1]
    for _ in range(ctx.order):
        exp.append(step[exp[-1]])
    assert exp.pop() == 1
    log = [-1] * ctx.q
    for m, idx in enumerate(exp):
        log[idx] = m
    trace = ctx.linear_table(ctx.trace_vec)
    return exp, log, [trace[i] for i in exp]


# every lane width: bytes up to p = 13, two bytes from p = 11 (n >= 3),
# four at p = 727 and eight at p = 46349, where (p - 1)^2 passes 2^31
WALK_FIELDS = ([(3, n) for n in (*range(1, 10), 12)] + [(5, n) for n in range(1, 6)]
               + [(7, n) for n in range(1, 5)] + [(11, n) for n in range(1, 5)]
               + [(13, n) for n in range(1, 4)] + [(17, n) for n in range(1, 4)]
               + [(89, 1), (89, 2), (727, 1), (46349, 1)])
# the roots of x^4+x^3+x^2+x+1 over F_3 and of x^2+2 over F_5 are not
# primitive, so their generators are searched
CUSTOM_MODULI = [(3, 4, (2, 1, 0, 0, 1)), (3, 4, (1, 1, 1, 1, 1)), (5, 2, (2, 0, 1))]


def test_the_walk_grid_covers_every_lane_width():
    assert {array(gf._residue_lanes(p, n)[0]).itemsize for p, n in WALK_FIELDS} == {1, 2, 4, 8}
    assert [get_field(*spec).primitive.index == spec[0] for spec in CUSTOM_MODULI] == [
        True, False, False]


@pytest.mark.parametrize("spec", WALK_FIELDS + CUSTOM_MODULI, ids=str)
def test_tables_match_the_walk(spec):
    ctx = get_field(*spec)
    ctx.ensure_tables()
    exp, log, trace = _walk_tables(ctx)
    assert ctx.exp_table.tolist() == exp
    assert ctx.log_table.tolist() == log
    assert ctx._trace_of_exp.tolist() == trace


@pytest.mark.parametrize("p, n", [(17, 1), (3, 12), (5, 8), (7, 6), (11, 5), (13, 5),
                                  (727, 2), (46349, 1), (531383, 1)])
def test_residue_lanes_hold_the_largest_sum(p, n):
    # n products (p - 1)(p - 1) in every lane reach the bound n(p - 1)^2;
    # at p = 17, n = 1 it is 256, one more than a byte holds
    tc, reduced = gf._residue_lanes(p, n)
    width = 8 * array(tc).itemsize
    ones = sum(1 << width * k for k in range(5))
    top = n * (p - 1) ** 2
    assert reduced([top * ones, 0, (p - 1) * ones], 5) == [top % p * ones, 0, (p - 1) * ones]


@pytest.mark.parametrize("p, n, e", [(3, 4, 2), (3, 4, 5), (3, 4, 40), (11, 3, 7)])
def test_a_generator_of_lower_order_fails_the_log_check(p, n, e):
    # g^e has order (q - 1) / gcd(e, q - 1): exp repeats, and log keeps
    # more than one entry at -1
    ctx = FieldCtx(p, n)
    ctx.primitive = ctx.gen_power(e)
    with pytest.raises(InternalInconsistency, match="did not close"):
        ctx.ensure_tables()
    assert ctx.exp_table is None


def _frobenius_trace_vec(ctx):
    """The labelled oracle of `FieldCtx._build_trace_vec`: Tr(alpha^i) as
    the sum of the n Frobenius powers (alpha^i)^(p^j), which lands in the
    prime field."""
    p, n = ctx.p, ctx.n
    out = []
    for i in range(n):
        y = acc = ctx.from_index(p ** i).coeffs
        for _ in range(n - 1):
            y = _ppow(y, p, ctx.modulus, p)
            acc = [a + c for a, c in zip(acc, y)]
        assert not any(a % p for a in acc[1:]), "trace landed outside the prime field"
        out.append(acc[0] % p)
    return tuple(out)


@pytest.mark.parametrize("spec", sorted(_CONWAY) + [(5, 5), (11, 2), (13, 3)] + CUSTOM_MODULI,
                         ids=str)
def test_trace_vec_matches_the_frobenius_sums(spec):
    # every pinned modulus, searched default moduli and custom moduli
    ctx = get_field(*spec)
    assert ctx.trace_vec == _frobenius_trace_vec(ctx)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 4), (5, 2), (7, 1), (13, 2)])
def test_trace_row_is_the_trace_pairing(p, n):
    ctx = get_field(p, n)
    xs = list(map(ctx.from_index, range(ctx.q)))
    for y in xs:  # y = 0 included
        assert ctx.trace_row(y.index) == [ctx.trace(x * y) for x in xs]


def _oracle_inputs():
    """Every x in F81, and seeded x in F_{3^8} and F_{3^12}."""
    rng = random.Random(13)
    yield F81, list(map(F81.from_index, range(F81.q)))
    for n in (8, 12):
        ctx = get_field(3, n)
        yield ctx, [ctx.zero(), ctx.one()] + [ctx.from_index(rng.randrange(ctx.q))
                                             for _ in range(40)]


def test_frobenius_and_rel_trace_match_polynomial_powers():
    # the table path against the table-free polynomial power
    for ctx, xs in _oracle_inputs():
        p, n, mod = ctx.p, ctx.n, ctx.modulus
        for x in xs:
            frob = [_ppow(x.coeffs, p ** e, mod, p) for e in range(n)]
            for e in range(n):
                assert ctx.frobenius(x, e).coeffs == frob[e]
            for k in (k for k in range(1, n + 1) if n % k == 0):
                expected = tuple(sum(col) % p for col in zip(*frob[::k]))
                assert ctx.rel_trace(x, k).coeffs == expected


def test_gen_power_builds_no_tables():
    ctx = FieldCtx(3, 10)
    g5 = ctx.gen_power(5)
    assert ctx.exp_table is None
    assert g5 == ctx.primitive ** 5  # now through the tables


def test_tables_above_the_cap_are_a_budget_error():
    with pytest.raises(BudgetError):
        FieldCtx(3, 13, (1, 2) + (0,) * 11 + (1,)).ensure_tables()  # x^13 + 2x + 1


class _UnpowerableDegree(int):
    def __rpow__(self, base, mod=None):
        raise AssertionError("p^n computed")


def test_check_field_size_bounds_and_skips_huge_powers():
    check_field_size(3, 12, 3 ** 12)
    check_field_size(2, 19, 2 ** 19)
    for p, n, budget in ((3, 12, 3 ** 12 - 1), (2, 20, 2 ** 19), (10 ** 30 + 57, 1, 3 ** 12)):
        with pytest.raises(BudgetError):
            check_field_size(p, n, budget)
    # an n above the budget's bit length is refused before p^n is formed
    with pytest.raises(BudgetError):
        check_field_size(3, _UnpowerableDegree(10 ** 8), 3 ** 12)
    with pytest.raises(AssertionError):
        check_field_size(3, _UnpowerableDegree(5), 3 ** 12)
    with pytest.raises(BudgetError):
        parse_field_spec("p=3 n=13", max_points=3 ** 12)
    assert parse_field_spec("p=3 n=2", max_points=9) is F9


def test_subfield_indexes():
    sub = F81.subfield_indexes(2)
    assert len(sub) == 9
    for idx in sub:
        x = F81.from_index(idx)
        assert F81.frobenius(x, 2) == x
    assert F81.subfield_indexes(1) == sorted(
        F81.scalar(c).index for c in range(3))


def test_subfield_degree_not_dividing_n_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        F81.subfield_indexes(3)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 4), (3, 5), (5, 1), (5, 3), (7, 2)])
def test_neg_table_matches_neg_index(p, n):
    ctx = get_field(p, n)
    assert ctx.neg_table.tolist() == [index_add(p, 0, i, -1) for i in range(ctx.q)]


def test_log_tables_roundtrip():
    F81.ensure_tables()
    for x in range(1, 81):
        assert F81.exp_table[F81.log_table[x]] == x


def test_spec_string_roundtrip():
    ctx = parse_field_spec("p=3 n=4 mod=[2,1,0,0,1]")
    assert ctx is F81_TRI
    ctx2 = parse_field_spec(ctx.spec_string())
    assert ctx2 is ctx
    assert parse_field_spec("p=3 n=4") is F81
    with pytest.raises(FieldError):
        parse_field_spec("p=3 m=4")
    # negative coefficients reduce mod p: x^4 + x - 1 again
    ctx3 = parse_field_spec("p=3 n=4 mod=[-1,1,0,0,1]")
    assert ctx3.modulus == (2, 1, 0, 0, 1)


def test_default_modulus_fallback_search_is_primitive():
    # a degree without a pinned entry exercises the deterministic search
    mod = default_modulus(5, 5)
    ctx = FieldCtx(5, 5, mod)
    assert ctx.primitive ** ctx.order == ctx.one()


def test_enumeration_order_is_base_p_digits():
    x = F81.from_index(5)  # 5 = 2 + 1*3
    assert x.coeffs == (2, 1, 0, 0)
    assert F81.to_index((2, 1, 0, 0)) == 5


@pytest.mark.parametrize("default_first", [True, False])
def test_the_default_modulus_spelled_out_is_the_same_field(default_first, monkeypatch):
    # one context under both keys, in either order of calls, so elements of
    # the two spellings compare equal
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    calls = [lambda: get_field(3, 4), lambda: get_field(3, 4, (2, 0, 0, 2, 1))]
    first, second = (calls if default_first else calls[::-1])
    ctx = first()
    assert second() is ctx and ctx.modulus == (2, 0, 0, 2, 1)
    assert get_field(3, 4, (-1, 3, 0, -1, 4)) is ctx  # the same modulus mod 3
    assert get_field(3, 4).from_index(5) == get_field(3, 4, (2, 0, 0, 2, 1)).from_index(5)


def test_a_field_is_its_context():
    # equality and hashing are object identity: a context built apart from
    # the cache is another field, even with the same modulus
    assert "__eq__" not in vars(FieldCtx) and "__hash__" not in vars(FieldCtx)
    ctx = get_field(3, 2)
    twin = FieldCtx(3, 2, ctx.modulus)
    assert twin != ctx and len({ctx, twin}) == 2
    assert twin.from_index(4) != ctx.from_index(4)


def _two_realizations_of_f81():
    # x^4 + x - 1 and the Conway modulus: equal fields, two contexts
    return get_field(3, 4, (2, 1, 0, 0, 1)), get_field(3, 4)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_element_arithmetic_refuses_another_context(op):
    a, b = _two_realizations_of_f81()
    x, y = a.primitive, b.primitive
    assert getattr(operator, op)(x, a.primitive) is not None
    for left, right in ((x, y), (y, x)):
        with pytest.raises(FieldError):
            getattr(operator, op)(left, right)


def test_context_operations_refuse_an_element_of_another_context():
    a, b = _two_realizations_of_f81()
    y = b.primitive
    for call in (lambda: a.power(y, 2), lambda: a.frobenius(y, 1), lambda: a.trace(y),
                 lambda: a.rel_trace(y, 2)):
        with pytest.raises(FieldError):
            call()
    assert a.own(a.one()) == a.one()


def test_index_out_of_range_is_a_field_error():
    with pytest.raises(FieldError):
        get_field(3, 1).from_index(3)


def test_negative_power_of_zero_is_refused():
    F = get_field(3, 1)
    with pytest.raises(ZeroDivisionError):
        F.power(F.zero(), -1)


def test_element_vector_of_the_wrong_length_is_a_field_error():
    for coeffs in ((), (1, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(FieldError, match="length n"):
            gf.FFElem(F81, coeffs)
    assert gf.FFElem(F81, (4, 0, 0, 5)).coeffs == (1, 0, 0, 2)
