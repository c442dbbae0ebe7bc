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
point, each reading x + b through `FieldCtx.shift_table`; the check is
skipped for deg g <= 2, where the sieve is exact.  Run on g = D_a f
it is the exact oracle for the trilinear-form path and the path for
degree > 3, whose directions share the basis vectors' tables; run on g = f
it gives the linear space E_f and the balance witness of a quadratic.

`verify_cubic_like` checks every witness of a certificate from f's values
alone, a few whole-table passes for all directions at once, independent of
the search: `analyze --certify` runs it on every certificate.

The weakly-regular identity battery walks rows c.  A row is one phase row:
it checks P_c(b) = w^Tr(bc) W_{D_b f*}(-c) against W_{D_c f}(b) at every b
at once, the one identity of the paper's list that weak regularity
implies: by the correlation identity W_{D_b f*}(-c) = p^-n sum_y W(y)
conj(W(y + c)) w^Tr(by), W = W_{f*}, p^n P_c is the inverse sums of
W(y - c) conj(W(y)), and p^n W_{D_c f} those of p^n w^(D_c f(-y)).  A bent
f* has W(y) = u z^k(y), codes k, u conj(u) = p^n, so P_c - W_{D_c f} is
the inverse sums of d_c(y) = z^(k(y - c) - k(y)) - z^(2 D_c f(-y)), zero
exactly where the phase class v(y) = k(y) - 2 f(-y) mod 2p, built once per
battery, has v(y - c) = v(y).  A weakly regular f, read off the constant
sign of its own spectrum as `classify` reads it, has v constant: every row
is clean, and the battery transforms nothing and gathers nothing.
Otherwise it transforms the dual, and a row gathers v through its one
translation table y -> y - c: a clean row, where the classes agree at
every y, has no misses, and any other reads d_c at every y from one
2p x 2p table of z^a - z^b.  A dual that is not bent compares the product
sides, d_c(y) = W(y - c) conj(W(y)) - p^n z^(2 D_c f(-y)), read by the
codes of the dual's table of values at y - c and y and by 2 D_c f(-y),
each distinct triple computed once per battery, and its sums are divided
by p^n exactly.  Every row with a difference is one lane of a single
inverse transform (`_row_misses`), the rows' d_c packed into one int per
coordinate, each lane wide enough for the sums' bound.  Row -c is row c
mirrored, b -> -b, as D_-c f(x) = -D_c f(x - c): a row -c walked after row
c takes no lane and reads row c's misses, negated.
"""

from __future__ import annotations

import itertools
import random
import struct
import sys
from array import array
from functools import reduce
from itertools import chain, compress, repeat
from operator import add, eq, getitem, gt, sub, xor

from .cyclo import conj_coords, mul_coords, signed_powers
from .errors import InternalInconsistency, PreconditionError
from .funcrep import PFunction
from .gf import FFElem, index_sums, translated
from .linalg import f3_add, f3_times, lane_mod, lane_typecode, mat_kernel
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


def _constant_derivatives(g: PFunction, basis: list | None = None, quadratic: bool = False):
    """Yield (b, D_b g) in index order for every b where D_b g is constant.

    A sieve at the basis vectors e_i keeps the b with D_b g(e_i) = D_b g(0),
    all b at once through `basis[i]`, e_i's `shift_table` (built here if not
    given).  For deg g <= 2, D_b g(x) - D_b g(0) is linear in x, so the
    sieve keeps exactly the b sought: a caller that knows it passes
    `quadratic`.  Otherwise each b it keeps is checked at every x through
    its own `shift_table`, which alone decides at any degree."""
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
        if quadratic or {v % p for v in set(
                map(sub, map(vals.__getitem__, ctx.shift_table(b)), vals))} == {consts[b]}:
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


def verify_cubic_like(f: PFunction, cert: CubicLikeCertificate) -> None:
    """Raise InternalInconsistency, at the least direction a that fails,
    unless D_a D_b f = lambda for every witness (b, lambda) = (b[a], lam[a])
    of `cert`; it reads f's values only, none of the search's tables.

    D_a D_b f(x) = f(x + a + b) - f(x + a) - f(x + b) + f(x) has degree at
    most k = max(deg f - 2, 0) in the digits of x, so it is lambda at every
    x exactly when it is at the x whose digits sum to at most k (a lower
    set of the grid, on which such a polynomial is determined): x = 0 for
    deg f <= 2, also the n basis vectors for deg f = 3.  Each x is a table
    of f(x + .) (`gf.translated`) read at the witnessed a, at a + b
    (`gf.index_sums`) and at b; the points share one 64-bit word per index,
    a lane each, so X = f(x + a + b) - f(x + a) - f(x + b) + f(x) + 3p -
    lambda, in [3, 5p), is gathered and reduced mod p (`lane_mod`) in every
    lane at once, for the witnesses among p^(n-1) directions at a time."""
    ctx = f.ctx
    p, q = ctx.p, ctx.q
    if not len(cert.b) == len(cert.lam) == q:
        raise PreconditionError("the certificate's witness arrays need q = %d entries" % q)
    tc = lane_typecode(5 * p)
    size, chunk, sums = array(tc).itemsize, q // p, index_sums(p, ctx.n, cert.b)
    points, top, per = [(0, 0)], max(f.algebraic_degree() - 2, 0), 8 // size
    for i in range(ctx.n):  # (x, the sum of its digits)
        points = [(x + d * p ** i, s + d) for x, s in points for d in range(p) if s + d <= top]
    points = [x for x, _ in points] + [0] * (-len(points) % per)  # whole words
    vals, tables = array(tc, f.values), []
    for start in range(0, len(points), per):
        lanes = array(tc, bytes(size * q * per))
        for j, x in enumerate(points[start:start + per]):  # f(x + y) in lane j of word y
            lanes[j::per] = translated(vals, p, x)
        tables.append((array("Q", lanes.tobytes()),  # and a word of f(x) + 3p
                       array("Q", array(tc, [3 * p + v for v in lanes[:per]]).tobytes())[0]))

    def big(lanes):
        return int.from_bytes(lanes, sys.byteorder)
    unit = array("Q", array(tc, [1] * per).tobytes())[0]
    mod_p = lane_mod(p, 8 * size, big(array(tc, [1]) * (chunk * per)), 5 * p)
    for low in range(0, q, chunk):
        part, lam = slice(low, low + chunk), cert.lam[low:low + chunk]
        s, b, lams = (array(x.typecode, compress(x[part], lam)) for x in (sums, cert.b, cert.lam))
        ones, minus, wrong = big(array("Q", [1]) * len(lams)), big(array("Q", lams)) * unit, 0
        for table, fx in tables:
            wrong |= mod_p(big(array("Q", map(table.__getitem__, s)))
                           - big(array("Q", compress(table[part], lam)))
                           - big(array("Q", map(table.__getitem__, b))) + fx * ones - minus)
        if wrong:
            i = next(compress(range(chunk * per), array(tc, wrong.to_bytes(
                size * chunk * per, sys.byteorder)))) // per
            a = next(itertools.islice(compress(range(low, q), lam), i, None))
            raise InternalInconsistency(
                "D_a D_b f is not the constant lambda at a=%d, witness (b, lambda) = (%d, %d)"
                % (a, cert.b[a], cert.lam[a]))


def derivative_linear_space(f: PFunction) -> list[FFElem]:
    """E_f = {a : D_a f is constant}; closed under addition and scaling."""
    return [f.ctx.from_index(a) for a, _ in _constant_derivatives(
        f, quadratic=f.algebraic_degree() <= 2)]


def quadratic_balance_witness(qf: PFunction):
    """For deg <= 2: a direction with constant nonzero derivative, or None.

    The scan is restricted to the linear space E_q; the returned witness
    exists iff qf is balanced."""
    if qf.algebraic_degree() > 2:
        raise PreconditionError("quadratic_balance_witness needs degree <= 2")
    a = next((a for a, c in _constant_derivatives(qf, quadratic=True) if c), None)
    return None if a is None else qf.ctx.from_index(a)


class WrIdentityReport:
    """Outcome of the weakly-regular first-derivative identity battery: the
    misses of the dual phase identity W_{D_c f}(b) = w^Tr(bc) W_{D_b f*}(-c),
    which weak regularity implies for odd p, so every miss is a sound
    certificate of non-weak-regularity.  It holds the phase identity alone:
    the cubic-like witnesses are checked by `verify_cubic_like`.

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


def _row_misses(rows: list, diffs: list, ctx, entries, divisor: int) -> list:
    """The phase misses of every row c of `rows`, the b where w^Tr(bc)
    W_{D_b f*}(-c) != W_{D_c f}(b), ascending, from one inverse run.

    `diffs` holds each row's d at every y, tuples of `entries` whose
    inverse sums are `divisor` times P_c - W_{D_c f}; a clean row, d zero
    at every y, misses nowhere.  Row i of the others is lane i of one int
    per coordinate, X(y) = sum_i d_i(y) 2^(s i): the sums are Z-linear,
    and each coordinate of a row's is at most 2 q max|d| in absolute
    value (one of w^e d(y) is the difference of two of d(y)), so s bits,
    the bound's length and a sign bit in 1, 2, 4 or 8 bytes where those
    hold it, keep the lanes apart.  A lane plus 2^(s - 1), its top bit
    flipped, is its two's complement, read at the x where a lane is
    nonzero.  The misses are the nonzero lanes; a `divisor` above 1 (p^n
    on the product path) divides each exactly, or the lane names its
    row."""
    p, q = ctx.p, ctx.q
    live = [i for i, d in enumerate(diffs) if any(map(any, d))]
    out, count = [[] for _ in rows], len(live)
    if not live:
        return out
    width = (2 * q * max(map(abs, chain.from_iterable(entries)))).bit_length() + 1
    size = next(s for s in (1, 2, 4, 8, -(-width // 8)) if 8 * s >= width)  # bytes per lane
    step = size * count  # bytes per coordinate of a point
    bias = (1 << 8 * size - 1) * ((1 << 8 * step) - 1) // ((1 << 8 * size) - 1)
    packed = diffs[live[0]]  # lane 0: its row's d as it is
    if count > 1:
        cols = list(zip(*packed))
        for lane, i in enumerate(live[1:], 1):
            scale = (1 << 8 * size * lane).__mul__
            cols = [list(map(add, col, map(scale, part)))
                    for col, part in zip(cols, zip(*diffs[i]))]
        packed = list(zip(*cols))
        del cols
    del diffs  # the last reference when the caller passes them unbound
    sums = inverse_sums(ctx, packed)
    del packed
    hit = list(compress(range(q), map(any, sums)))
    raw = b"".join(map(int.to_bytes, map(xor, map(add, chain.from_iterable(map(
        sums.__getitem__, hit)), repeat(bias)), repeat(bias)), repeat(step), repeat("little")))
    del sums
    if size <= 8:  # lanes[(h (p - 1) + j) count + lane]: coordinate j at x = hit[h]
        lanes = struct.unpack("<%d%s" % (len(raw) // size, "bhiq"[size.bit_length() - 1]), raw)
    else:
        lanes = [int.from_bytes(raw[k:k + size], "little", signed=True)
                 for k in range(0, len(raw), size)]
    if divisor > 1:
        bad = next(compress(range(len(lanes)), map(divisor.__rmod__, lanes)), None)
        if bad is not None:
            raise InternalInconsistency("correlation sums of direction %d not divisible by p^n"
                                        % rows[live[bad % count]])
    for lane, i in enumerate(live):
        out[i] = list(compress(hit, map(any, zip(*[iter(lanes[lane::count])] * (p - 1)))))
    return out


def wr_identity_check(f: PFunction, seed: int = 0) -> WrIdentityReport:
    """Run the dual phase identity battery on a bent function; every
    violation certifies non-weak-regularity (see `WrIdentityReport`).

    It walks rows c (see the module docstring): all q rows when p^2n <=
    SAMPLED_PAIRS, otherwise ceil(SAMPLED_PAIRS / q) distinct rows from
    `random.Random(seed).sample`, in draw order.  The rows walked in their
    own right, all but a row -c walked after row c, are gathered first and
    share one inverse transform (`_row_misses`).  A row's misses ascend in
    b, so the last row's are cut once, to SAMPLED_PAIRS pairs in all.  A
    weakly regular f, read off the constant sign of f's own spectrum as
    `classify` reads it, has every row clean: its battery transforms
    nothing and gathers nothing.
    """
    ctx = f.ctx
    p, q = ctx.p, ctx.q
    s = walsh_fast(f)
    if not is_bent(s):
        raise PreconditionError("wr_identity_check requires a bent function")
    # a sample never repeats a pair, so a field with fewer pairs is walked whole
    exhaustive = q * q <= SAMPLED_PAIRS
    pair_count = q * q if exhaustive else SAMPLED_PAIRS
    rows = range(q) if exhaustive else random.Random(seed).sample(range(q), -(-pair_count // q))
    if extract_certificate(s).is_constant_sign():  # weakly regular: v constant, every row clean
        return WrIdentityReport(pair_count, [(c, []) for c in rows], exhaustive)
    s_dual = walsh_fast(s.dual)
    codes = s_dual.codes
    powers = signed_powers(p)
    neg, vals = ctx.neg_table, f.values  # D_c f(-y) = f(-(y - c)) - f(-y)
    twice = [2 * v for v in map(vals.__getitem__, neg)]  # 2 f(-y)
    if not s_dual.bent:
        scaled = [tuple([q * v for v in x]) for x in powers]  # p^n z^k
        known = {}  # W(y - c) conj(W(y)) - p^n z^t by (k(y - c), k(y), t), across rows

        def differences(shift):  # shift[y] = y - c
            keys = list(zip(map(codes.__getitem__, shift), codes,
                            map(sub, map(twice.__getitem__, shift), twice)))
            for a, b, t in set(keys).difference(known):
                known[a, b, t] = tuple(map(sub, mul_coords(
                    s_dual.table[a], conj_coords(s_dual.table[b], p), p), scaled[t]))
            return list(map(known.__getitem__, keys))
        entries = known.values()
    else:  # d_c(y) = z^(k(y - c) - k(y)) - z^(2 D_c f(-y)) is zero where v(y - c) = v(y)
        if len({(k - v) % (2 * p) for k, v in zip(codes, twice)}) == 1:  # v constant: rows clean
            differences = None
        else:
            table = [[tuple(map(sub, x, y)) for y in powers] for x in powers]  # z^a - z^b
            entries = list(chain.from_iterable(table))

            def differences(shift):
                return list(map(getitem, map(table.__getitem__, map(
                    sub, map(codes.__getitem__, shift), codes)), map(
                    sub, map(twice.__getitem__, shift), twice)))

    at = {c: i for i, c in enumerate(rows)}
    own = [c for c in rows if at.get(neg[c], q) >= at[c]]  # row -c walked after row c is not
    misses = dict.fromkeys(own, [])
    if differences:  # each row's one table, passed unbound: freed before the inverse run
        misses.update(zip(own, _row_misses(own, [differences(ctx.shift_table(neg[c]))
                                                 for c in own], ctx, entries,
                                           1 if s_dual.bent else q)))
    out = []
    for i, c in enumerate(rows):
        # row -c walked after row c: D_-c f(x) = -D_c f(x - c), both phase sides mirror, b -> -b
        row = misses[c] if c in misses else sorted(map(neg.__getitem__, misses[neg[c]]))
        limit = min(q, pair_count - i * q)  # the last sampled row's report stops at b = limit
        out.append((c, list(itertools.takewhile(limit.__gt__, row))))
    return WrIdentityReport(pair_count, out, exhaustive)
