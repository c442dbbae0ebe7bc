"""Second-order-derivative certificates and the weakly-regular dual phase
identity battery.

A function is "cubic-like bent" when every nonzero direction a admits a b
with D_{a,b} f a nonzero constant lambda; this implies bentness, and for
functions of degree <= 3 it is equivalent to it.  For such functions the
witness search is linear algebra on the trilinear form T(a, b, x) =
D_a D_b D_x f(0), built once per function: D_a D_b f(x) = D_a D_b f(0) +
T(a, b, x), so the b with D_{a,b} f constant are the kernel of T(a, ., .),
on which b -> D_a D_b f(0) is linear, and a reduced kernel basis yields
the first witness in index order without enumerating the kernel: for p = 3
by one bit-sliced elimination of all directions (`_lane_witnesses`), for
p >= 5 by `_first_witness_low_degree`, the p = 3 oracle.  The certificate
is b and lambda in two arrays by a, lambda = 0 where a has none.

One scan, `_constant_derivatives(g)`, finds every b with D_b g constant:
a sieve at the n basis vectors, then a check of each b it keeps at every
point, each reading x + b through `FieldCtx.shift_table`.  Run on g = D_a f
it is the exact oracle for the trilinear-form path and the path for
degree > 3, whose directions share the basis vectors' tables; run on g = f
it gives the linear space E_f and the balance witness of a quadratic.

The weakly-regular identity battery walks rows c.  A row is one phase row
and, given a cubic-like witness, one witness check.  The phase row checks
P_c(b) = w^Tr(bc) W_{D_b f*}(-c) against W_{D_c f}(b) at every b at once,
the one identity of the paper's list that weak regularity implies: by the
correlation identity W_{D_b f*}(-c) = p^-n sum_y W(y) conj(W(y + c))
w^Tr(by), W = W_{f*}, p^n P_c is the inverse sums of W(y - c) conj(W(y)),
and p^n W_{D_c f} those of p^n w^(D_c f(-y)).  A bent f* has W(y) =
u z^k(y), codes k, u conj(u) = p^n, so P_c - W_{D_c f} is the inverse
sums of d_c(y) = z^(k(y - c) - k(y)) - z^(2 D_c f(-y)), zero exactly where
the phase class v(y) = k(y) - 2 f(-y) mod 2p, built once per battery, has
v(y - c) = v(y).  A weakly regular f has v constant, so every row is clean
and none gathers.  Otherwise a row gathers v through its one translation
table y -> y - c: a clean row, where the classes agree at every y, has no
misses, and any other reads d_c where they differ from one 2p x 2p table
of z^a - z^b and runs one inverse transform (`_phase_misses`).  A dual
that is not bent compares the product sides at every y, W(y - c)
conj(W(y)) read by its pair of codes into the dual's table of values,
each distinct pair multiplied once per battery (`_pair_products`).  Row -c
is row c mirrored, b -> -b, as D_-c f(x) = -D_c f(x - c).  A witness
(d, lambda) of c is checked through the same table as D_c D_d f(y - c) =
D_d f(y) - D_d f(y - c) = lambda at all q points, past the sample's cut
too, with D_d f built once per battery.  As D_d D_-c f(x) = -D_d D_c
f(x - c), a row -c walked after row c passed takes (d, -lambda) as
checked; any other witness of -c is checked in its own right.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from collections import deque
from functools import reduce
from itertools import compress, repeat
from operator import eq, getitem, gt, ne, sub

from .cyclo import conj_coords, mul_coords, signed_powers
from .errors import InternalInconsistency, PreconditionError
from .funcrep import PFunction
from .gf import FFElem
from .linalg import f3_add, f3_times, mat_kernel
from .walsh import extract_certificate, inverse_sums, is_bent, walsh_fast

SAMPLED_PAIRS = 10000
_F3_TABLES = bytes.maketrans(b"\0\1\2", b"010"), bytes.maketrans(b"\0\1\2", b"001")
_BITS = bytes.maketrans(b"01", b"\0\1")


class CubicLikeCertificate:
    """Witnesses D_{a,b[a]} f = lam[a] != 0 as two `array("i")`s of length q
    by direction a; lam[a] = 0 where a has none, always at a = 0.
    `complete`, every nonzero direction witnessed, implies bentness."""

    __slots__ = ("b", "lam", "complete")

    def __init__(self, b: array, lam: array) -> None:
        self.b, self.lam, self.complete = b, lam, lam.count(0) == 1

    def to_json(self) -> dict:
        b, lam = self.b, self.lam
        return {
            "complete": self.complete,
            "witness_count": len(lam) - lam.count(0),
            "witnesses": {str(a): [b[a], lam[a]] for a in compress(range(len(lam)), lam)},
            "implies_bent": self.complete,
        }

    def __repr__(self) -> str:
        return "CubicLikeCertificate(complete=%s, %d witnesses)" % (
            self.complete, len(self.lam) - self.lam.count(0))


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


def _lane_witnesses(f: PFunction, tri: list):
    """`_first_witness_low_degree` of every direction a for p = 3, as arrays
    of b and of lambda by a (lambda = 0: none); bit a of each (ones, twos)
    mask stands for a.  M_a = T(a, ., .) is reduced by Gauss-Jordan
    elimination, one pivot row per lane (the first row not yet a pivot with
    a nonzero entry, divided by it: x^-1 = x in F_3), and rows never move.
    The kernel is read as `mat_kernel` reads it; on it D_a D_b f(0) =
    sum_i b_i L_a(e_i), L_a(e_i) = D_a D_{e_i} f(0) + T(a, e_i, e_i), as
    -1/2 = 1 mod 3."""
    def masks(entries):  # bit a of the first where entry a is 1, of the second where 2
        return tuple(int(entries[::-1].translate(t), 2) for t in _F3_TABLES)

    def lane_ints(digits):  # sum_k 3^k d_k by lane, each mask's base-2 string
        acc, low = 0, array("i", [1]).tobytes().index(1)  # spread to the low bytes of ints
        for k, pair in enumerate(digits):
            for weight, mask in zip((3 ** k, 2 * 3 ** k), pair):
                spread = bytearray(4 * q)
                spread[low::4] = format(mask, "0%db" % q)[::-1].encode().translate(_BITS)
                acc += weight * int.from_bytes(spread, sys.byteorder)
        return array("i", acc.to_bytes(4 * q, sys.byteorder))

    def pick(sel, k):  # column k of the rows r, each in the lanes sel[r]
        return tuple(sum(row[k][j] & s for row, s in zip(m, sel)) for j in (0, 1))
    n, q, vals = f.ctx.n, f.ctx.q, f.values
    full, steps = (1 << q) - 1, [3 ** i for i in range(n)]
    digits = [masks((bytes(s) + b"\1" * s + b"\2" * s) * (q // (3 * s))) for s in steps]
    m = [[(0, 0)] * n for _ in range(n)]
    for t, (d1, d2) in zip(tri, digits):
        for k, v in enumerate(t):
            r, c = divmod(k, n)
            if v and r <= c:  # T is symmetric
                m[r][c] = m[c][r] = f3_add(m[r][c], (d1, d2) if v == 1 else (d2, d1))
    # f(a + e_i) - f(a) + f(0) - f(e_i) + T(a, e_i, e_i); a + e_i wraps by 2 3^i where a_i = 2
    fm, const = masks(bytes(vals)), ((0, 0), (full, 0), (0, full))
    lin = [f3_add(f3_add(tuple(x >> s & ~d2 | x << 2 * s & d2 for x in fm), fm[::-1]),
                  f3_add(const[(vals[0] - vals[s]) % 3], m[i][i]))
           for i, (s, (_, d2)) in enumerate(zip(steps, digits))]
    free, pivots = [full] * n, []  # free[r]: the lanes where row r is no pivot
    for c in range(n):
        sel, found = [0] * n, 0  # sel[r]: the lanes where row r is c's pivot
        for r, row in enumerate(m):
            sel[r] = (row[c][0] | row[c][1]) & free[r] & ~found
            found |= sel[r]
            free[r] ^= sel[r]
        pivots.append((found, sel))
        piv = [pick(sel, k) for k in range(c, n)]
        piv = [f3_times(x, piv[0]) for x in piv]
        for row, s in zip(m, sel):
            neg = row[c][::-1]
            for k, x in enumerate(piv, c):
                u, v = f3_add(row[k], f3_times(neg, x))
                row[k] = u | x[0] & s, v | x[1] & s
    wit, lam = [(0, 0)] * n, (0, 0)
    for fc, (found, _) in enumerate(pivots):  # b[fc] = 1, b[pc] = -(pivot row of pc)[fc]
        b = [pick(sel, fc)[::-1] for _, sel in pivots[:fc]] + [(full, 0)]
        value = reduce(f3_add, map(f3_times, b, lin))
        hit = (value[0] | value[1]) & ~(lam[0] | lam[1] | found)
        wit[:fc + 1] = [(u | x & hit, v | y & hit) for (u, v), (x, y) in zip(wit, b)]
        lam = lam[0] | value[0] & hit, lam[1] | value[1] & hit
    return lane_ints(wit), lane_ints([lam])


def _constant_derivatives(g: PFunction, basis: list | None = None):
    """Yield (b, D_b g) in index order for every b where D_b g is constant.

    A sieve at the basis vectors e_i keeps the b with D_b g(e_i) = D_b g(0),
    all b at once through `basis[i]`, e_i's `shift_table` (built here if not
    given); each b it keeps is then checked at every x through its own.
    For deg g <= 2, D_b g(x) - D_b g(0) is linear in x, so the sieve keeps
    exactly the b sought; at any degree the check alone decides."""
    ctx = g.ctx
    p, vals = ctx.p, g.values
    consts = [(v - vals[0]) % p for v in vals]  # D_b g(0)
    kept = range(ctx.q)
    basis = basis or [ctx.shift_table(p ** i) for i in range(ctx.n)]
    for i, table in enumerate(basis):  # g(e_i + b) - g(e_i) = D_b g(0)
        moved = map(vals.__getitem__, map(table.__getitem__, kept))
        kept = list(compress(kept, map(eq, map(p.__rmod__, map(sub, moved, repeat(vals[p ** i]))),
                                       map(consts.__getitem__, kept))))
    for b in kept:
        if {v % p for v in set(map(sub, map(vals.__getitem__, ctx.shift_table(b)), vals))} == {
                consts[b]}:
            yield b, consts[b]


def _first_witness_scan(f: PFunction, a_idx: int, basis: list | None = None):
    """The same witness from the linear structures of D_a f: the exact
    oracle for `_first_witness_low_degree`, and the path for degree > 3."""
    g = f.derivative(f.ctx.from_index(a_idx))
    return next(((b, c) for b, c in _constant_derivatives(g, basis) if c), None)


def cubic_like_certificate(f: PFunction) -> CubicLikeCertificate:
    """Search every nonzero direction for a constant-nonzero second
    derivative; complete certificates imply bentness.  Past p = 3 at degree
    <= 3, as D_{-a,b} f = -D_{a,b} f(. - a), the first witness (b, lambda)
    of a gives -a's as (b, -lambda), so one of each pair a, -a is searched."""
    p, q = f.ctx.p, f.ctx.q
    tri = _trilinear_form(f) if f.algebraic_degree() <= 3 else None
    if tri and p == 3:
        return CubicLikeCertificate(*_lane_witnesses(f, tri))
    neg, bs, lams = f.ctx.neg_table, array("i", [0]) * q, array("i", [0]) * q
    basis = None if tri else [f.ctx.shift_table(p ** i) for i in range(f.ctx.n)]  # for every scan
    for a in compress(range(q), map(gt, neg, range(q))):  # a < -a: one search per pair
        hit = _first_witness_low_degree(f, tri, a) if tri else _first_witness_scan(f, a, basis)
        if hit:
            bs[a] = bs[neg[a]] = hit[0]
            lams[a], lams[neg[a]] = hit[1], -hit[1] % p
    return CubicLikeCertificate(bs, lams)


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


def _pair_products(table: list, pairs: list, known: dict, p: int) -> list:
    """W(y - c) conj(W(y)) at each code pair (k(y - c), k(y)) into the `table`
    of a dual that is not bent; `known` keeps each pair's product across rows."""
    for a, b in set(pairs).difference(known):
        known[a, b] = mul_coords(table[a], conj_coords(table[b], p), p)
    return list(map(known.__getitem__, pairs))


def _phase_misses(diffs, ctx, c: int, divisor: int) -> list:
    """Row c's phase misses, the b where w^Tr(bc) W_{D_b f*}(-c) != W_{D_c
    f}(b), ascending.  `diffs` holds the y where the row's phase sides
    differ and d(y), their difference, at each: the inverse sums of d are
    `divisor` times P_c - W_{D_c f}.  A clean row, with no such y, runs no
    inverse; otherwise the misses are the nonzero sums, each divisible by
    `divisor`, exactly."""
    ys, values = diffs
    del diffs  # the last reference when the caller passes them unbound
    if not ys:
        return []
    d = [(0,) * (ctx.p - 1)] * ctx.q
    deque(map(d.__setitem__, ys, values), 0)
    del ys, values
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
    b, so the last row's are cut once, to SAMPLED_PAIRS pairs in all.  With
    a cubic-like `certificate` of f (its arrays q long, or
    PreconditionError), a walked row c whose witness (d, lambda) has
    D_c D_d f != lambda at some point raises InternalInconsistency, past
    the cut too, unless row -c was walked earlier and its witness passed
    as (d, -lambda), which implies c's.
    """
    ctx = f.ctx
    p, q = ctx.p, ctx.q
    if certificate is not None and not len(certificate.b) == len(certificate.lam) == q:
        raise PreconditionError("the certificate's witness arrays need q = %d entries" % q)
    s = walsh_fast(f)
    if not is_bent(s):
        raise PreconditionError("wr_identity_check requires a bent function")
    s_dual = walsh_fast(extract_certificate(s).dual)
    codes = s_dual.codes
    powers = signed_powers(p)
    neg, vals = ctx.neg_table, f.values  # D_c f(-y) = f(-(y - c)) - f(-y)
    twice = [2 * v for v in map(vals.__getitem__, neg)]  # 2 f(-y)
    if not s_dual.bent:
        scaled = [tuple([q * v for v in x]) for x in powers]  # p^n z^k
        known = {}  # W(y - c) conj(W(y)) by code pair, across rows

        def differences(shift):  # shift[y] = y - c
            lhs = _pair_products(s_dual.table, list(zip(map(codes.__getitem__, shift), codes)),
                                 known, p)
            rhs = list(map(scaled.__getitem__, map(sub, map(twice.__getitem__, shift), twice)))
            ys = list(compress(range(q), map(ne, lhs, rhs)))
            return ys, [tuple(map(sub, lhs[y], rhs[y])) for y in ys]
    else:
        # z^(k(y - c) - k(y)) = w^(D_c f(-y)) exactly where v(y - c) = v(y)
        phase = [(k - v) % (2 * p) for k, v in zip(codes, twice)]
        if phase.count(phase[0]) == q:  # v constant (f weakly regular): every row is clean
            differences = None
        else:
            table = [[tuple(map(sub, x, y)) for y in powers] for x in powers]  # z^a - z^b

            def differences(shift):
                moved = list(map(phase.__getitem__, shift))  # v(y - c)
                ys = [] if moved == phase else list(compress(range(q), map(ne, moved, phase)))
                xs = list(map(shift.__getitem__, ys))
                return ys, list(map(getitem, map(table.__getitem__, map(
                    sub, map(codes.__getitem__, xs), map(codes.__getitem__, ys))), map(
                    sub, map(twice.__getitem__, xs), map(twice.__getitem__, ys))))

    bs, lams = (certificate.b, certificate.lam) if certificate is not None else (bytes(q),) * 2
    derivatives = {}  # D_d f by witness d

    def checked(c, shift):
        """`shift`, y -> y - c, once row c's witness (d, lambda) has
        D_c D_d f(y - c) = D_d f(y) - D_d f(y - c) = lambda at every y."""
        d, lam = bs[c], lams[c]
        if lam:
            g = derivatives.get(d) or derivatives.setdefault(
                d, list(map(sub, map(vals.__getitem__, ctx.shift_table(d)), vals)))
            if {v % p for v in set(map(sub, g, map(g.__getitem__, shift)))} != {lam}:
                raise InternalInconsistency(
                    "D_d D_c f is not the constant lambda at c=%d, witness (d, lambda) = (%d, %d)"
                    % (c, d, lam))
        return shift

    # a sample never repeats a pair, so a field with fewer pairs is walked whole
    exhaustive = q * q <= SAMPLED_PAIRS
    pair_count = q * q if exhaustive else SAMPLED_PAIRS
    rows = range(q) if exhaustive else random.Random(seed).sample(range(q), -(-pair_count // q))
    out, mirrored = [], {}
    for i, c in enumerate(rows):
        mirror = mirrored.pop(c, None)  # row -c, walked earlier: D_-c f(x) = -D_c f(x - c)
        if mirror is not None or differences is None:
            misses, implied = mirror or ([], None)
            if lams[c] and (bs[c], lams[c]) != implied:
                checked(c, ctx.shift_table(neg[c]))
        else:
            # the row's one table, passed unbound: freed before `_phase_misses`' inverse run
            misses = _phase_misses(differences(checked(c, ctx.shift_table(neg[c]))), ctx, c,
                                   1 if s_dual.bent else q)
        if mirror is None:  # both phase sides mirror, b -> -b, and D_d D_-c f(x) = -D_d D_c f(x - c)
            mirrored[neg[c]] = sorted(neg[b] for b in misses), (bs[c], -lams[c] % p)
        limit = min(q, pair_count - i * q)  # the last sampled row's report stops at b = limit
        out.append((c, list(itertools.takewhile(limit.__gt__, misses))))
    return WrIdentityReport(pair_count, out, exhaustive)
