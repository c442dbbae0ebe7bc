"""Exact arithmetic in F_{p^n} for small odd primes p.

Elements are coefficient vectors over F_p in the polynomial basis
{1, alpha, ..., alpha^(n-1)} where alpha is a root of the modulus.  The
canonical enumeration index of an element is

    index(x) = sum_i coeffs[i] * p^i        (coefficient of alpha^i = digit i)

and every truth table in this package is indexed that way.

A FieldCtx fixes (p, n, modulus, primitive element) once and verifies the
modulus is irreducible and the primitive element has full order.  Every
operation that needs a discrete log (`power`, `frobenius` as the power
p^e, `rel_trace` as a sum of Frobenius terms, the trace-of-exp table
and `trace_row`) reads the exp/log tables, built on first use for
|F| <= 3^12, as `array`s, by whole-int lane passes: the coordinate planes
of g^m hold one lane per exponent m, and the matrix of multiplication by
g^L doubles the range of m (`_build_tables`).  `trace_row(y)` is the trace
pairing as one row, Tr(x y) at every x in index order: the one-point Walsh
value and the Maiorana-McFarland special form read it.  The module's
polynomial core (`_pmul`, `_ppow`) serves only what must run before the
tables exist or must not build them: the irreducibility check, the
primitivity check, `mul_t` and `gen_power`, so that parsing a coefficient
g^M builds no tables.  The trace vector Tr(alpha^i) comes from the
modulus' coefficients alone, by Newton's identities.  Irreducibility is
Berlekamp's kernel test: once x^(p^n) = x (mod f), f is irreducible
exactly when Q - I, row i of Q being x^(ip) mod f, has a one-dimensional
kernel, which `linalg.mat_kernel` reads.

The index tables of maps x -> y rest on one fact: adding a fixed index has
no carries between digits.  `shift_row` (cached) tabulates x -> x + r over
indexes of m digits one digit at a time; `half_rows` splits x -> x + r
into two such rows, of the low and high digits, from which
`shift_table(a)`, x -> x + a, is composed block by block, and
`linear_table` builds the index table of an F_p-linear map one digit at a
time.  `shift_table` is the one whole-table reader of x + a: derivatives,
the linear-structure scan and the identity battery read it.  The witness
check of `derivanalysis` reads x + y[x] for a different y at every x
(`index_sums`, through the `addition_row` of groups of digits) and moves
a table of values by x in place (`translated`, by slices).

The field's other index tables live on the FieldCtx too, each built once,
on first read, as a cached `array` attribute: `neg_table` (x -> -x, the
linear table of the negated basis) and `dual_table` (y -> v(y), the
trace-dual coordinates (Tr(alpha^j y))_j, the linear table of the Gram
matrix [Tr(alpha^(i+j))], through which the Walsh transforms read Tr(xy) =
x . v(y)).  A context dropped from the field cache takes its tables with
it.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import deque
from functools import cached_property, lru_cache
from operator import add

from .errors import BudgetError, InternalInconsistency, ParseError, PreconditionError
from .linalg import lane_mod, lane_typecode, mat_kernel

LOG_TABLE_MAX = 3 ** 12


class FieldError(ParseError):
    """Invalid field construction or element input.  The command line reads
    fields and elements only from input text, so it is a ParseError there
    (exit 2)."""


def is_prime(m: int) -> bool:
    return prime_factors(m) == [m]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors by trial division (fine for m <= 3^12)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# Pinned default moduli (Conway polynomials), coefficients low to high.
# Construction verifies each one used: irreducible, root primitive.  Their
# norm-compatibility with the entries of the subfield degrees is checked by
# the test suite, not at run time.
# Degrees absent from the table get a deterministic search instead.
_CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (3, 7): (1, 0, 2, 0, 0, 0, 0, 1),
    (3, 8): (2, 2, 2, 0, 1, 2, 0, 0, 1),
    (3, 9): (1, 1, 2, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1),
    (3, 11): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
}


def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Pinned modulus for F_{p^n}: the Conway polynomial where tabulated,
    otherwise the first monic irreducible with a primitive root in the
    canonical coefficient enumeration (deterministic across runs)."""
    if (p, n) in _CONWAY:
        return _CONWAY[(p, n)]
    for code in range(p ** n):
        coeffs = _digits(code, p, n) + [1]
        if coeffs[0] == 0:
            continue
        coeffs = tuple(coeffs)
        if _poly_is_irreducible(coeffs, p, n) and _is_primitive(_root(coeffs, p), coeffs, p):
            return coeffs
    raise FieldError("no irreducible polynomial found for p=%d n=%d" % (p, n))


@lru_cache(maxsize=64)
def shift_row(p: int, m: int, r: int) -> list[int]:
    """[index(x + r) for x in range(p^m)], for r < p^m.  Adding r has no
    carries between digits, so the row is built one digit at a time: the
    entries with digit k of x equal to d are those of the lower digits plus
    ((d + r_k) mod p) p^k.  Cached: `FieldCtx.shift_table` rereads them."""
    row = [0]
    pw = 1
    for _ in range(m):
        r, rd = divmod(r, p)
        row = [off + v for off in [(d + rd) % p * pw for d in range(p)] for v in row]
        pw *= p
    return row


def half_rows(p: int, n: int, r: int) -> tuple:
    """x -> index(x + r) over indexes of n digits as (hi, lo, p^h), h =
    ceil(n/2): index(x + r) = hi[x // p^h] + lo[x % p^h], with lo the
    `shift_row` of the low h digits and hi that of the high n - h digits
    scaled by p^h."""
    half = p ** ((n + 1) // 2)
    r_hi, r_lo = divmod(r, half)
    return [v * half for v in shift_row(p, n // 2, r_hi)], shift_row(p, (n + 1) // 2, r_lo), half


def addition_row(p: int, m: int) -> list[int]:
    """[index(u + v) for u in range(p^m) for v in range(p^m)]: the linear
    table of (v, u) -> u + v over 2m digits, built one digit at a time
    through the cached `shift_row` of each p^j."""
    table = [0]
    for j in list(range(m)) * 2:
        row, blocks = shift_row(p, m, p ** j), [table]
        for _ in range(p - 1):
            blocks.append(list(map(row.__getitem__, blocks[-1])))
        table = [v for block in blocks for v in block]
    return table


def index_sums(p: int, n: int, ys) -> array:
    """index(x + ys[x]) at every index x of n digits: x and y split into
    groups of at most max(1, n // 2) digits, as `half_rows` splits x + r
    into halves, each group summed by its `addition_row` of at most p^n
    entries (p^2 at n = 1)."""
    q, width, low = p ** n, max(1, n // 2), 1
    out = array(lane_typecode(q), [0]) * q
    for start in range(0, n, width):
        m = min(width, n - start)
        size = p ** m
        table = array(out.typecode, map(low.__mul__, addition_row(p, m)))  # at the group's place
        # the group's digits of x, times p^m, at every x
        x_part = [u for u in range(0, size * size, size) for _ in range(low)] * (q // low // size)
        out = array(out.typecode, map(add, out, map(table.__getitem__, map(
            add, x_part, map(size.__rmod__, map(low.__rfloordiv__, ys))))))
        low *= size
    return out


def translated(vals: array, p: int, x: int) -> array:
    """vals[y + x] at every index y of a table of values: digit d != 0 of
    x at p^i rotates each block of p^(i+1) entries by d p^i, by slices: its
    two parts swapped per block, or, where the blocks are more than their
    entries, one strided slice per offset in a block."""
    q, width = len(vals), 1
    while x:
        x, d = divmod(x, p)
        if d:
            out, block, cut = vals[:], width * p, width * d
            if block * block <= q:
                for r in range(block):
                    out[r::block] = vals[(r + cut) % block::block]
            else:
                for at in range(0, q, block):
                    out[at:at + block] = vals[at + cut:at + block] + vals[at:at + cut]
            vals = out
        width *= p
    return vals


def _residue_lanes(p: int, n: int):
    """Lanes for sums of n products of two residues mod p, which reach
    n(p-1)^2, as (typecode, reduced): bytes while that bound is below 256,
    reduced mod p by one `bytes.translate`, else the lanes of
    `lane_typecode(bound)`, reduced by `lane_mod`.  `reduced(accs, count)`
    is the list of the ints of `accs`, of `count` lanes each, reduced."""
    top = n * (p - 1) ** 2
    if top < 256:
        residues = bytes(v % p for v in range(256))

        def reduced(accs: list[int], count: int) -> list[int]:
            return [int.from_bytes(acc.to_bytes(count, "little").translate(residues), "little")
                    for acc in accs]
        return "B", reduced
    tc = lane_typecode(top)

    def reduced(accs: list[int], count: int) -> list[int]:
        mod = lane_mod(p, 8 * array(tc).itemsize,
                       int.from_bytes(array(tc, [1]) * count, sys.byteorder), top)
        return list(map(mod, accs))
    return tc, reduced


def _lane_array(tc: str, lanes: int, count: int) -> array:
    """The `array` of typecode tc whose items are the first `count` lanes
    of an int, lane 0 in its lowest bits."""
    out = array(tc, lanes.to_bytes(count * array(tc).itemsize, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _digits(m: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        m, r = divmod(m, p)
        out.append(r)
    return out


# -- bare polynomial arithmetic mod (modulus, p), used before a ctx exists --

def _pmul(a, b, modulus, p):
    n = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for e in range(len(prod) - 1, n - 1, -1):
        c = prod[e] % p
        if c:
            for i in range(n):
                prod[e - n + i] -= c * modulus[i]
        prod[e] = 0
    return tuple(v % p for v in prod[:n])


def _ppow(a, e, modulus, p):
    n = len(modulus) - 1
    result = tuple([1] + [0] * (n - 1))
    base = a
    while e:
        if e & 1:
            result = _pmul(result, base, modulus, p)
        base = _pmul(base, base, modulus, p)
        e >>= 1
    return result


def _poly_is_irreducible(modulus, p, n) -> bool:
    """Berlekamp's criterion.  x^(p^n) = x (mod f) makes f squarefree with
    factors of degrees dividing n; f is then irreducible exactly when Q - I
    has a one-dimensional kernel, where row i of Q is x^(ip) mod f."""
    x = _root(modulus, p)  # x mod f
    if _ppow(x, p ** n, modulus, p) != x:
        return False
    xp = _ppow(x, p, modulus, p)
    rows, row = [], (1,) + (0,) * (n - 1)
    for i in range(n):
        rows.append([(c - (i == j)) % p for j, c in enumerate(row)])
        row = _pmul(row, xp, modulus, p)
    return len(mat_kernel(rows, p)) == 1


def _root(modulus, p) -> tuple[int, ...]:
    """The root alpha of the modulus, as a coefficient tuple."""
    n = len(modulus) - 1
    return tuple([0, 1] + [0] * (n - 2)) if n >= 2 else ((-modulus[0]) % p,)


def _is_primitive(x, modulus, p) -> bool:
    """x has order p^n - 1: nonzero, and x^((p^n - 1)/r) != 1 for every
    prime r dividing p^n - 1."""
    n = len(modulus) - 1
    q1 = p ** n - 1
    one = tuple([1] + [0] * (n - 1))
    return any(x) and all(_ppow(x, q1 // r, modulus, p) != one for r in prime_factors(q1))


class FFElem:
    """An element of F_{p^n}, immutable, tied to its FieldCtx."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldCtx", coeffs) -> None:
        self.ctx = ctx
        self.coeffs = tuple(c % ctx.p for c in coeffs)
        if len(self.coeffs) != ctx.n:
            raise FieldError("coefficient vector must have length n")

    @property
    def index(self) -> int:
        return self.ctx.to_index(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "FFElem") -> "FFElem":
        return FFElem(self.ctx, [a + b for a, b in zip(self.coeffs, self.ctx.own(other).coeffs)])

    def __sub__(self, other: "FFElem") -> "FFElem":
        return FFElem(self.ctx, [a - b for a, b in zip(self.coeffs, self.ctx.own(other).coeffs)])

    def __neg__(self) -> "FFElem":
        return FFElem(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other: "FFElem") -> "FFElem":
        return FFElem(self.ctx, self.ctx.mul_t(self.coeffs, self.ctx.own(other).coeffs))

    def __pow__(self, e: int) -> "FFElem":
        return self.ctx.power(self, e)

    def __truediv__(self, other: "FFElem") -> "FFElem":
        return self * other.inverse()

    def inverse(self) -> "FFElem":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        return self ** (self.ctx.order - 1)

    def scale(self, c: int) -> "FFElem":
        """Multiply by a prime-field scalar."""
        return FFElem(self.ctx, [c * a for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, FFElem) and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self) -> str:
        return "FFElem(p=%d,n=%d,%r)" % (self.ctx.p, self.ctx.n, list(self.coeffs))


class FieldCtx:
    """A concrete realization of F_{p^n}.

    The field itself (p, n, modulus, primitive element, trace vector) is
    fixed at construction; the exp/log tables, the subfield cache and the
    cached index tables (`neg_table`, `dual_table`) fill on first use and
    never change after.  Every q-entry table is an `array`: exp, log and
    trace-of-exp built together by lane passes, the other two packed from
    their linear tables.  The modulus is verified irreducible and the
    primitive element's order is verified against the prime factors of
    p^n - 1, so a successfully built context is a certificate of both.

    A field is its context: contexts compare by identity, and arithmetic
    refuses elements and functions of any other context (`own`).
    """

    def __init__(self, p: int, n: int, modulus=None) -> None:
        if not is_prime(p):
            raise FieldError("p must be prime, got %d" % p)
        if n < 1:
            raise FieldError("n must be >= 1")
        self.p = p
        self.n = n
        self.q = p ** n
        self.order = self.q - 1
        if modulus is None:
            modulus = default_modulus(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree n")
        if not _poly_is_irreducible(modulus, p, n):
            raise FieldError("modulus is reducible over F_%d" % p)
        self.modulus = modulus
        self._powers_of_p = [p ** i for i in range(n + 1)]
        self.exp_table: array | None = None
        self.log_table: array | None = None
        self._trace_of_exp: array | None = None
        self._subfield_cache: dict[int, list[int]] = {}
        root = _root(modulus, p)
        if not _is_primitive(root, modulus, p):
            root = next((x for x in (_digits(i, p, n) for i in range(1, self.q))
                         if _is_primitive(x, modulus, p)), None)
            if root is None:
                raise InternalInconsistency("no primitive element found for this modulus")
        self.primitive = self.elem(root)
        self.trace_vec = self._build_trace_vec()

    # -- construction helpers ------------------------------------------------

    def _build_trace_vec(self) -> tuple[int, ...]:
        """Tr(alpha^i) for i < n: the i-th power sum P_i of the modulus'
        roots alpha^(p^j), by Newton's identities for the monic modulus
        sum_j c_j x^j, P_0 = n and P_i = -(i c_(n-i) + sum_(0<j<i)
        c_(n-j) P_(i-j)), in O(n^2) operations on residues."""
        c, n, p = self.modulus, self.n, self.p
        sums = [n % p]
        for i in range(1, n):
            sums.append(-(i * c[n - i] + sum(c[n - j] * sums[i - j] for j in range(1, i))) % p)
        return tuple(sums)

    def _build_tables(self) -> None:
        """exp, log and trace-of-exp over the exponents m < p^n - 1, as
        `array`s, by whole-int lane passes.

        Plane i holds coordinate i of g^m in lane m, in the lanes of
        `_residue_lanes`.  The planes of m < L give those of L <= m < 2L
        through the n x n matrix of multiplication by g^L, whose column j,
        g^L alpha^j, is column j - 1 times alpha, so the range doubles in
        n^2 lane multiply-adds.  exp is the planes' base-p sum
        in lanes of an `array("i")` item, and trace-of-exp their sum
        weighted by `trace_vec`.  log is one scatter of exp; exp is
        one-to-one onto the nonzero indexes exactly when that leaves one
        entry, log 0, at -1, which checks the primitive element's order.
        """
        if self.exp_table is not None:
            return
        if self.q > LOG_TABLE_MAX:
            raise BudgetError("log tables capped at |F| <= 3^12")
        p, n, order = self.p, self.n, self.order
        tc, reduced = _residue_lanes(p, n)
        size = array(tc).itemsize
        width = 8 * size
        planes, done, g_l = [1] + [0] * (n - 1), 1, self.primitive.coeffs
        while done < order:
            take = min(done, order - done)
            low = [plane & ((1 << width * take) - 1) for plane in planes]
            cols = [g_l]  # column j: g^L alpha^j
            for _ in range(n - 1):
                cols.append(self.mul_t(cols[-1], (0, 1)))
            high = reduced([sum(col[i] * lo for col, lo in zip(cols, low) if col[i])
                            for i in range(n)], take)
            planes = [plane | h << width * done for plane, h in zip(planes, high)]
            done += take
            g_l = self.mul_t(g_l, g_l)
        trace, = reduced([sum(t * plane for t, plane in zip(self.trace_vec, planes) if t)], order)
        exp_size = array("i").itemsize
        acc = 0
        for plane in reversed(planes):
            raw, wide = plane.to_bytes(size * order, "little"), bytearray(exp_size * order)
            for k in range(min(size, exp_size)):
                wide[k::exp_size] = raw[k::size]
            acc = acc * p + int.from_bytes(wide, "little")
        exp = _lane_array("i", acc, order)
        log = array("i", [-1]) * self.q
        deque(map(log.__setitem__, exp, range(order)), 0)
        if log.count(-1) != 1 or log[0] != -1:
            raise InternalInconsistency(
                "exp table did not close into one cycle of the nonzero indexes (primitive order wrong)")
        self.exp_table = exp
        self.log_table = log
        self._trace_of_exp = _lane_array(tc, trace, order)

    def ensure_tables(self) -> None:
        self._build_tables()

    # -- element plumbing ----------------------------------------------------

    def own(self, x):
        """x, an element or function of this context; any other context's,
        an equal field's included, is a FieldError."""
        if x.ctx is not self:
            raise FieldError("an operand of %r used in %r" % (x.ctx, self))
        return x

    def elem(self, coeffs) -> FFElem:
        return FFElem(self, coeffs)

    def zero(self) -> FFElem:
        return FFElem(self, [0] * self.n)

    def one(self) -> FFElem:
        return FFElem(self, [1] + [0] * (self.n - 1))

    def scalar(self, c: int) -> FFElem:
        """Embed a prime-field residue as a field element."""
        return FFElem(self, [c] + [0] * (self.n - 1))

    def from_index(self, idx: int) -> FFElem:
        if not 0 <= idx < self.q:
            raise FieldError("element index out of range")
        return FFElem(self, _digits(idx, self.p, self.n))

    def to_index(self, coeffs) -> int:
        return sum(c * self._powers_of_p[i] for i, c in enumerate(coeffs))

    @cached_property
    def neg_table(self) -> array:
        """table[x] = index of -x, as an `array`: the linear table of the
        negated basis."""
        return array(lane_typecode(self.q), self.linear_table(
            [(self.p - 1) * pw for pw in self._powers_of_p[:-1]]))

    @cached_property
    def dual_table(self) -> array:
        """table[y] = index of y's trace-dual coordinates (Tr(alpha^j y))_j,
        as an `array`: the linear table whose column i is the Gram row
        (Tr(alpha^(i+j)))_j."""
        basis = [_digits(pw, self.p, self.n) for pw in self._powers_of_p[:-1]]
        return array(lane_typecode(self.q), self.linear_table(
            [self.to_index([self.trace_coeffs(self.mul_t(a, b)) for b in basis]) for a in basis]))

    def shift_table(self, a_idx: int) -> list[int]:
        """perm[x] = index(x + a), block by block from a's `half_rows`."""
        hi, lo, _ = half_rows(self.p, self.n, a_idx)
        return [h + v for h in hi for v in lo]

    def linear_table(self, cols) -> list[int]:
        """Index table of the F_p-linear map v -> sum_j v_j c_j, given the
        column indexes c_j, built one digit at a time: the entries with
        digit j equal to t are those of the lower digits shifted by c_j, t
        times, through c_j's `half_rows`."""
        table = [0]
        for c in cols:
            hi, lo, half = half_rows(self.p, self.n, c)
            blocks = [table]
            for _ in range(self.p - 1):
                blocks.append([hi[x // half] + lo[x % half] for x in blocks[-1]])
            table = [v for block in blocks for v in block]
        return table

    # -- core arithmetic -----------------------------------------------------

    def mul_t(self, a, b) -> tuple[int, ...]:
        """Product of two coefficient tuples."""
        return _pmul(a, b, self.modulus, self.p)

    def power(self, x: FFElem, e: int) -> FFElem:
        """x^e; e may be any integer (negative requires x != 0)."""
        if self.own(x).is_zero():
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self.one() if e == 0 else self.zero()
        self._build_tables()
        return self.from_index(self.exp_table[(self.log_table[x.index] * e) % self.order])

    def gen_power(self, m: int) -> FFElem:
        """primitive^m, by polynomial powering: builds no tables."""
        return FFElem(self, _ppow(self.primitive.coeffs, m % self.order, self.modulus, self.p))

    # -- Frobenius and traces --------------------------------------------------

    def frobenius(self, x: FFElem, e: int) -> FFElem:
        """x^(p^(e mod n)); negative e gives the inverse automorphism."""
        return self.power(x, self._powers_of_p[e % self.n])

    def rel_trace(self, x: FFElem, k: int) -> FFElem:
        """Trace onto the subfield F_{p^k}: sum of x^(p^(ik)) for i < n/k."""
        if self.n % k:
            raise PreconditionError("k=%d does not divide n=%d" % (k, self.n))
        acc = x
        for i in range(1, self.n // k):
            acc = acc + self.frobenius(x, i * k)
        return acc

    def trace_coeffs(self, coeffs) -> int:
        """Absolute trace to F_p of a coefficient tuple, as an integer residue."""
        return sum(c * t for c, t in zip(coeffs, self.trace_vec)) % self.p

    def rel_trace_unit(self, s: int) -> FFElem:
        """The first element u, in index order, with Tr^n_s(u) = 1.  The
        scalar (n/s)^-1 would not do: it does not exist when p divides n/s."""
        one = self.one()
        return next(u for u in map(self.from_index, range(1, self.q))
                    if self.rel_trace(u, s) == one)

    def trace(self, x: FFElem) -> int:
        return self.trace_coeffs(self.own(x).coeffs)

    def trace_row(self, y_idx: int) -> list[int]:
        """[Tr(x y) for every x in index order]: trace-of-exp rotated by
        log y and read at log x, where log 0 = -1 reads an appended 0."""
        if not y_idx:
            return [0] * self.q
        self._build_tables()
        log = self.log_table
        t, k = self._trace_of_exp, log[y_idx]
        return list(map((t[k:] + t[:k] + array(t.typecode, [0])).__getitem__, log))

    # -- subfields -------------------------------------------------------------

    def subfield_indexes(self, m: int) -> list[int]:
        """Sorted element indexes of the subfield F_{p^m} inside F_{p^n}."""
        if self.n % m:
            raise PreconditionError("subfield degree m=%d does not divide n=%d" % (m, self.n))
        if m not in self._subfield_cache:
            self._build_tables()
            step = self.order // (self.p ** m - 1)
            idxs = {0} | {self.exp_table[i * step] for i in range(self.p ** m - 1)}
            self._subfield_cache[m] = sorted(idxs)
        return self._subfield_cache[m]

    # -- misc -------------------------------------------------------------------

    def spec_string(self) -> str:
        return "p=%d n=%d mod=[%s]" % (self.p, self.n, ",".join(map(str, self.modulus)))

    def __repr__(self) -> str:
        return "FieldCtx(%s)" % self.spec_string()


_FIELD_CACHE: dict = {}


def get_field(p: int, n: int, modulus=None) -> FieldCtx:
    """Cached field constructor; modulus None selects the pinned default.
    The key reduces the modulus mod p, so p is checked first.  A context is
    also filed under its realized modulus, so that a spelled-out default
    modulus gives the same context."""
    if not is_prime(p):
        raise FieldError("p must be prime, got %d" % p)
    key = (p, n, tuple(c % p for c in modulus) if modulus is not None else None)
    if key not in _FIELD_CACHE:
        ctx = FieldCtx(p, n, modulus)
        _FIELD_CACHE[key] = _FIELD_CACHE.setdefault((p, n, ctx.modulus), ctx)
    return _FIELD_CACHE[key]


def check_field_size(p: int, n: int, max_points: int, tables: bool = False) -> None:
    """Refuse F_{p^n} with more than max_points elements, from p and n
    alone, so it runs before the primality test, the modulus search and
    the factoring of p^n - 1.  Since p^n >= 2^n for p >= 2, an n above the
    budget's bit length is refused without computing p^n.  With `tables`,
    for a field whose functions are evaluated through its exp/log tables,
    the tables' cap LOG_TABLE_MAX bounds it too."""
    if tables and max_points > LOG_TABLE_MAX:
        max_points, limit = LOG_TABLE_MAX, "the exp/log table cap 3^12"
    else:
        limit = "the spectrum budget %d (raise it with --max-points)" % max_points
    if (p >= 2 and n > max_points.bit_length()) or p ** n > max_points:
        raise BudgetError("field size %d^%d exceeds %s" % (p, n, limit))


def parse_int(token: str) -> int:
    """int(token) for an integer of the spec grammars and the integer
    options: ASCII -?[0-9]+ only, where int() also takes other Unicode
    digits, "_", "+" and surrounding whitespace.  Anything else, or more
    digits than CPython converts (4,300 by default), is a ParseError."""
    if re.fullmatch(r"-?[0-9]+", token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError("bad integer %r%s (not -?[0-9]+, or more digits than int() converts)"
                     % (token[:20], "..." if len(token) > 20 else ""))


_FIELD_SPEC_RE = re.compile(
    r"^\s*p\s*=\s*([0-9]+)\s+n\s*=\s*([0-9]+)(?:\s+mod\s*=\s*\[([0-9, +-]+)\])?\s*$")


def parse_field_spec(text: str, max_points: int | None = None) -> FieldCtx:
    """Parse "p=3 n=4" or "p=3 n=4 mod=[2,1,0,0,1]" (coefficients low to
    high degree; omitted mod selects the pinned default modulus).  With
    max_points, the field's size is checked before it is built, against
    the table cap too: the command line reads fields only from function
    specs, whose functions are evaluated through the tables."""
    m = _FIELD_SPEC_RE.match(text)
    if not m:
        raise FieldError("bad field spec: %r" % text)
    p, n = parse_int(m.group(1)), parse_int(m.group(2))
    if max_points is not None:
        check_field_size(p, n, max_points, tables=True)
    modulus = None
    if m.group(3):
        modulus = tuple(parse_int(tok) for tok in m.group(3).replace(" ", "").split(","))
    return get_field(p, n, modulus)
