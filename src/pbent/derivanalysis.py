"""Second-order-derivative certificates and the weakly-regular dual phase
identity battery.

A function is "cubic-like bent" when every nonzero direction a admits a b
with D_{a,b} f a nonzero constant; this implies bentness, and for functions
of degree <= 3 it is equivalent to it.  For such functions the witness
search is linear algebra on the trilinear form T(a, b, x) = D_a D_b D_x
f(0), built once per function: D_a D_b f(x) = D_a D_b f(0) + T(a, b, x),
so the b with D_{a,b} f constant are the kernel of T(a, ., .), on which
b -> D_a D_b f(0) is linear, and a reduced kernel basis yields the first
witness in index order without enumerating the kernel: for p = 3 walked in
Gray order on bit-sliced matrices (`_gray_witnesses`), for p >= 5 by
`_first_witness_low_degree`, the p = 3 oracle.

One scan, `_constant_derivatives(g)`, finds every b with D_b g constant,
reading x + b point by point from a cached table of digit-wise sums, so
that a direction is dropped at its first failing point.  Run on g = D_a f
it is the exact oracle for the trilinear-form path and the path for
degree > 3; run on g = f it gives the linear space E_f and the balance
witness of a quadratic.

The weakly-regular identity battery walks rows c.  A row is one phase row
and, given a cubic-like witness, one witness check.  The phase row checks
P_c(b) = w^Tr(bc) W_{D_b f*}(-c) against W_{D_c f}(b) at every b at once,
the one identity of the paper's list that weak regularity implies: by the
correlation identity W_{D_b f*}(-c) = p^-n sum_y W(y) conj(W(y + c))
w^Tr(by), W = W_{f*} (transformed once), shifted by -c, p^n P_c is the
inverse sums of W(y - c) conj(W(y)), and p^n W_{D_c f} those of p^n
w^(D_c f(-y)).  A bent f* has W(y) = s(y) U w^j(y) with U conj(U) = p^n,
so P_c - W_{D_c f} is the inverse sums of d_c(y) = s(y - c) s(y)
w^(j(y - c) - j(y)) - w^(D_c f(-y)).  One path (`_phase_misses`) takes
either pair of sides and runs one inverse transform of their difference,
none where it vanishes, as on every row of a weakly regular f; a dual that
is not bent has no (s, j) form and takes the product side.  As D_-c f(x) =
-D_c f(x - c), W_{D_-c f}(b) = w^-Tr(bc) conj(W_{D_c f}(-b)), and P_-c is
P_c mirrored alike: row -c is row c under the bijection b -> -b, so a pair
c, -c costs one derivative and at most one inverse run, and row -c's
misses are row c's negated.  Small fields are walked whole; larger ones
fill SAMPLED_PAIRS with seeded rows (see `wr_identity_check`), whose limit
cuts only the last row's report.  Given a cubic-like witness (d, lambda)
of c, the row checks D_d D_c f = lambda at all q points: one derivative of
D_c f and no transform, at every degree and past the cut, so a corrupted
witness is an internal inconsistency.
"""

from __future__ import annotations

import itertools
import random
from itertools import compress
from operator import ne, sub

from .cyclo import conj_coords, mul_coords, signed_powers
from .errors import InternalInconsistency, PreconditionError
from .funcrep import PFunction
from .gf import FFElem, digit_sums
from .linalg import f3_add, f3_kernel, f3_pack, mat_kernel
from .walsh import extract_certificate, inverse_sums, is_bent, walsh_fast

SAMPLED_PAIRS = 10000


class CubicLikeCertificate:
    """Witness map a -> (b, constant) with D_{a,b} f = constant != 0."""

    __slots__ = ("witnesses", "complete")

    def __init__(self, witnesses: dict, complete: bool) -> None:
        self.witnesses = witnesses
        self.complete = complete

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "witness_count": len(self.witnesses),
            "witnesses": {str(a): [b, c] for a, (b, c) in sorted(self.witnesses.items())},
        }

    def __repr__(self) -> str:
        return "CubicLikeCertificate(complete=%s, %d witnesses)" % (
            self.complete, len(self.witnesses))


def _trilinear_form(f: PFunction) -> list[list[int]]:
    """T(e_i, e_j, e_k) = D_{e_i} D_{e_j} D_{e_k} f(0) mod p (deg f <= 3),
    as n flattened n x n matrices T(e_i, ., .); T is symmetric.  Picks among
    e_i <= e_j <= e_k sum to index sum(p^d) mod p e_k: only 3 e_k = 0 carries."""
    p, n = f.ctx.p, f.ctx.n
    tri = [[0] * (n * n) for _ in range(n)]
    for ijk in itertools.combinations_with_replacement(range(n), 3):
        e, val = [p ** d for d in ijk], 0
        for picks in itertools.product((0, 1), repeat=3):
            val += (-1) ** (3 - sum(picks)) * f.values[sum(compress(e, picks)) % (p * e[2])]
        for i, j, k in set(itertools.permutations(ijk)):
            tri[i][j * n + k] = val % p
    return tri


def _trilinear_slice(tri: list, a_idx: int, p: int) -> list[list[int]]:
    """The n x n matrix of T(a, ., .) mod p, a given by its index: the
    T(e_i, ., .) of `_trilinear_form` weighted by the digits of a."""
    n = len(tri)
    acc = [0] * (n * n)
    x = a_idx
    for ti in tri:
        x, ai = divmod(x, p)
        if ai:
            acc = [m + ai * t for m, t in zip(acc, ti)]
    return [[v % p for v in acc[r:r + n]] for r in range(0, n * n, n)]


def _first_witness_low_degree(f: PFunction, tri: list, a_idx: int):
    """First b (canonical order) with D_{a,b} f a nonzero constant, for
    deg f <= 3: the first vector of the reduced basis of ker T(a, ., .)
    (`mat_kernel`) whose constant D_a D_b f(0) is nonzero."""
    ctx, vals = f.ctx, f.values
    for vec in mat_kernel(_trilinear_slice(tri, a_idx, ctx.p), ctx.p):
        b = ctx.elem(vec)
        const = (vals[(b + ctx.from_index(a_idx)).index] - vals[b.index]
                 - vals[a_idx] + vals[0]) % ctx.p
        if const:
            return b.index, const
    return None


def _gray_witnesses(f: PFunction, tri: list):
    """Yield (a, -a, `_first_witness_low_degree` of a) for p = 3 and every
    a whose top nonzero digit is 1.  Step k of the modular ternary Gray
    order adds 1 to digit j = v_3(k) of a, and T(e_j, ., .) to M_a =
    T(a, ., .) by one `f3_add`; `f3_kernel` eliminates M_a, and the indexes
    of b, a + b and -a are read from one table of the 2^n masks."""
    n, vals = f.ctx.n, f.values
    steps = [f3_pack(t) for t in tri]
    index, ruler = [0], []  # ruler: v_3(k) for k = 1 .. 3^n - 1
    for i in range(n):
        index += [x + 3 ** i for x in index]
        ruler = ruler + [i] + ruler + [i] + ruler
    a = m = (0, 0)
    for j in ruler:
        a, m = f3_add(a, (1 << j, 0)), f3_add(m, steps[j])
        if a[0] > a[1]:  # the top nonzero digit of a is 1
            ai, hit = index[a[0]] + 2 * index[a[1]], None
            for b in f3_kernel(m, n):
                bi, (s1, s2) = index[b[0]] + 2 * index[b[1]], f3_add(a, b)
                const = (vals[index[s1] + 2 * index[s2]] - vals[bi] - vals[ai] + vals[0]) % 3
                if const:
                    hit = bi, const
                    break
            yield ai, index[a[1]] + 2 * index[a[0]], hit


def _constant_derivatives(g: PFunction):
    """Yield (b, D_b g) in index order for every b where D_b g is constant.

    An index is read as (top, hi, lo): lo and hi have h = n // 2 digits
    each, and top has the last digit when n is odd.  Adding b has no carries
    between digits, so x + b is read from the `digit_sums` table of h
    digits (at most q ints) for lo and hi and from one addition mod p per
    plane for top, and a direction is dropped at its first point x where
    D_b g(x) != D_b g(0).  Two tables of floor and ceil(n/2) digits would
    hold p^(n+1) ints for odd n, p^2 = q^2 at n = 1."""
    ctx = g.ctx
    p, q, vals = ctx.p, ctx.q, g.values
    half = p ** (ctx.n // 2)
    sums = digit_sums(p, ctx.n // 2)
    grid = [[vals[x:x + half] for x in range(y, y + half * half, half)]
            for y in range(0, q, half * half)]
    planes = len(grid)
    for b, (top, hi, lo) in enumerate(itertools.product(range(planes), sums, sums)):
        const = (vals[b] - vals[0]) % p
        if all((s[j] - v) % p == const
               for t, plane in enumerate(grid)
               for row, s in zip(plane, map(grid[(t + top) % planes].__getitem__, hi))
               for j, v in zip(lo, row)):
            yield b, const


def _first_witness_scan(f: PFunction, a_idx: int):
    """The same witness by scanning every b: the exact oracle for
    `_first_witness_low_degree`, and the path for degree > 3."""
    g = f.derivative(f.ctx.from_index(a_idx))
    return next(((b, c) for b, c in _constant_derivatives(g) if c), None)


def cubic_like_certificate(f: PFunction) -> CubicLikeCertificate:
    """Search every nonzero direction for a constant-nonzero second
    derivative; complete certificates imply bentness.  As D_{-a,b} f =
    -D_{a,b} f(. - a), the first witness (b, lambda) of a gives -a's as
    (b, -lambda), so one of each pair a, -a is searched."""
    p, q = f.ctx.p, f.ctx.q
    tri = _trilinear_form(f) if f.algebraic_degree() <= 3 else None
    if tri and p == 3:
        hits = _gray_witnesses(f, tri)
    else:
        neg = f.ctx.neg_table
        hits = ((a, neg[a], _first_witness_low_degree(f, tri, a) if tri
                 else _first_witness_scan(f, a)) for a in range(1, q) if a <= neg[a])
    witnesses = {}
    for a, minus_a, hit in hits:
        if hit is not None:
            witnesses[a], witnesses[minus_a] = hit, (hit[0], -hit[1] % p)
    return CubicLikeCertificate(witnesses, len(witnesses) == q - 1)


def derivative_linear_space(f: PFunction) -> list[FFElem]:
    """E_f = {a : D_a f is constant}; closed under addition and scaling."""
    return [f.ctx.from_index(a) for a, _ in _constant_derivatives(f)]


def quadratic_balance_witness(qf: PFunction):
    """For deg <= 2: a direction with constant nonzero derivative, or None.

    The scan is restricted to the linear space E_q; the returned witness
    exists iff qf is balanced."""
    if qf.algebraic_degree() > 2:
        raise PreconditionError("quadratic_balance_witness needs degree <= 2")
    a = next((a for a, c in _constant_derivatives(qf) if c), None)
    return None if a is None else qf.ctx.from_index(a)


class WrIdentityReport:
    """Outcome of the weakly-regular first-derivative identity battery: the
    misses of the dual phase identity W_{D_c f}(b) = w^Tr(bc) W_{D_b f*}(-c),
    which weak regularity implies for odd p, so every miss is a sound
    certificate of non-weak-regularity.

    `rows` holds (c, ascending list of the b that miss) per walked row; the
    `violations` dicts, ordered by row and b, are built on demand, and
    `to_json` builds only the first 32.
    """

    __slots__ = ("pair_count", "rows", "exhaustive")

    def __init__(self, pair_count: int, rows: list, exhaustive: bool) -> None:
        self.pair_count = pair_count
        self.rows = rows
        self.exhaustive = exhaustive

    def _dicts(self):
        for c, bs in self.rows:
            for b in bs:
                yield {"b": b, "c": c}

    @property
    def violations(self) -> list:
        return list(self._dicts())

    @property
    def sound_clean(self) -> bool:
        return not any(bs for _, bs in self.rows)

    def to_json(self) -> dict:
        count = sum(len(bs) for _, bs in self.rows)
        return {
            "pairs_checked": self.pair_count,
            "exhaustive": self.exhaustive,
            "violation_count": count,  # the same count, kept for readers of either key
            "sound_violation_count": count,
            "violations": list(itertools.islice(self._dicts(), 32)),
        }

    def __repr__(self) -> str:
        return "WrIdentityReport(pairs=%(pairs_checked)d, sound=%(sound_violation_count)d)" % (
            self.to_json())


def _correlation_products(w: list, shift: list, p: int) -> list:
    """W(y - c) * conj(W(y)) at every y, with shift[y] = y - c: the
    product side of a phase row, for a dual that is not bent.  Unrolled for
    p = 3: conj(a + b*w) = (a - b) - b*w."""
    shifted = map(w.__getitem__, shift)
    if p == 3:
        return [(a1 * (a - b) + b1 * b, a * b1 - a1 * b) for (a, b), (a1, b1) in zip(w, shifted)]
    return [mul_coords(x1, conj_coords(x, p), p) for x, x1 in zip(w, shifted)]


def _phase_misses(lhs: list, rhs: list, ctx, c: int, divisor: int) -> list:
    """Row c's phase misses: the b, ascending, where w^Tr(bc) W_{D_b f*}(-c)
    != W_{D_c f}(b).  The inverse sums of lhs - rhs are `divisor` times
    P_c - W_{D_c f}: lhs(y) is W(y - c) conj(W(y)), W = W_{f*}, against
    rhs(y) = p^n w^(D_c f(-y)) with divisor p^n, or for a bent dual the
    signed power s(y - c) s(y) w^(j(y - c) - j(y)) against w^(D_c f(-y))
    with divisor 1.  Where lhs = rhs at every y, as on every row of a
    weakly regular f, there are no misses and no inverse run; otherwise the
    misses are the nonzero sums, each divisible by `divisor`, exactly."""
    if lhs == rhs:
        return []
    d = [(0,) * (ctx.p - 1)] * ctx.q
    for y in compress(range(ctx.q), map(ne, lhs, rhs)):
        d[y] = tuple(map(sub, lhs[y], rhs[y]))
    del lhs, rhs  # the last references when the caller passes them unbound
    sums = inverse_sums(ctx, d)
    misses = list(compress(range(ctx.q), map(any, sums)))
    if any(v % divisor for b in misses for v in sums[b]):
        raise InternalInconsistency("correlation sums of direction %d not divisible by p^n" % c)
    return misses


def wr_identity_check(f: PFunction, seed: int = 0,
                      certificate: CubicLikeCertificate | None = None) -> WrIdentityReport:
    """Run the dual phase identity battery on a bent function; every
    violation certifies non-weak-regularity (see `WrIdentityReport`).

    It walks rows c (see the module docstring): all q rows when p^2n <=
    SAMPLED_PAIRS, otherwise ceil(SAMPLED_PAIRS / q) distinct rows from
    `random.Random(seed).sample`, in draw order.  A row's misses ascend in
    b, so the last row's are cut once, to SAMPLED_PAIRS pairs in all.  A
    row runs the inverse kernel only where its two phase sides differ: the
    signed powers of a bent dual against w^(D_c f(-y)), or the products
    W_{f*}(y - c) conj(W_{f*}(y)) against p^n w^(D_c f(-y)).  With a
    cubic-like `certificate` of f, a walked row c whose witness (d, lambda)
    has D_d D_c f != lambda at some point raises InternalInconsistency,
    past the cut too.
    """
    ctx = f.ctx
    p, q = ctx.p, ctx.q
    s = walsh_fast(f)
    if not is_bent(s):
        raise PreconditionError("wr_identity_check requires a bent function")
    s_dual = walsh_fast(extract_certificate(s).dual)
    codes = s_dual.codes  # None when the dual is not bent
    powers = signed_powers(p)
    divisor = 1 if codes else q  # the product side carries the factor p^n
    # divisor * w^j; for a bent dual as z^(2j) = w^j, so that equal sides hold the same tuples
    rhs_powers = powers[::2] if codes else [tuple([q * v for v in x]) for x in powers[::2]]

    # a sample never repeats a pair, so a field with fewer pairs is walked whole
    exhaustive = q * q <= SAMPLED_PAIRS
    pair_count = q * q if exhaustive else SAMPLED_PAIRS
    rows = range(q) if exhaustive else random.Random(seed).sample(range(q), -(-pair_count // q))
    witnesses = certificate.witnesses if certificate is not None else {}
    neg = ctx.neg_table
    out, todo, pending = [], set(rows), {}
    for i, c in enumerate(rows):
        todo.discard(c)
        if c in pending:  # stashed by row -c, walked earlier
            g, sign, misses = pending.pop(c)
        else:
            g, sign = f.derivative(ctx.from_index(c)), 1
            # passed unbound, so that `_phase_misses` frees both sides before its
            # inverse run: bound here, they raised the n = 12 battery's peak by 5 MB
            misses = _phase_misses(
                _correlation_products(s_dual.coords, ctx.shift_table(neg[c]), p) if codes is None
                else list(map(powers.__getitem__, map(sub, map(  # k1 - k2 in (-2p, 2p): mod 2p
                    codes.__getitem__, ctx.shift_table(neg[c])), codes))),
                list(map(rhs_powers.__getitem__, map(g.values.__getitem__, neg))),  # D_c f(-y)
                ctx, c, divisor)
            if neg[c] in todo:  # D_-c f(x) = -D_c f(x - c); both sides mirror b -> -b
                pending[neg[c]] = (g, -1, sorted(neg[b] for b in misses))
        d, lam = witnesses.get(c, (0, 0))
        # D_d D_c f = lambda at every x; for a row read from row -c, g is D_-c f
        # and D_c f(x) = -g(x + c), so D_d g = -lambda at every x
        if d and g.derivative(ctx.from_index(d)).values.count(sign * lam % p) != q:
            raise InternalInconsistency(
                "D_d D_c f is not the constant lambda at c=%d, witness (d, lambda) = (%d, %d)"
                % (c, d, lam))
        limit = min(q, pair_count - i * q)  # the last sampled row's report stops at b = limit
        out.append((c, list(itertools.takewhile(limit.__gt__, misses))))
    return WrIdentityReport(pair_count, out, exhaustive)
