"""Exact Walsh spectra and the bent / (weakly) regular classification.

The Walsh transform used throughout is

    W_f(y) = sum_x w^(f(x) - Tr_n(x y)),   values in Z[w],

with the inverse p^n w^(f(x)) = sum_y W_f(y) w^(Tr_n(x y)).  Two evaluation
paths are provided: a direct O(p^2n) sum and a fast O(n p^(n+1)) tensor
decomposition.  The fast path writes Tr(x y) = x . v(y), the coordinates
of x in the polynomial basis {alpha^j} against the trace-dual coordinates
v(y) = (Tr(alpha^j y))_j, so the transform is n size-p DFT passes
(`linalg.axis_passes`, the DFT on Z[w] coordinates as column map, unrolled
for p = 3) read out at v(y) through one gather table, the field's
`dual_table` (the linear table of the Gram matrix [Tr(alpha^(i+j))]; it
and its inverse live on the `FieldCtx`, built once per field, and this
module keeps no table of its own).  The column map has one direction, the
kernel w^(-st): `inverse_sums`, sum_y d(y) w^Tr(xy), the inverse sums before
the division by p^n that the identity battery of `derivanalysis` needs, is
the forward sums of d read at -x, through `neg_table` and the same gather.
A function of degree <= 2, as the battery's derivatives of a cubic are,
needs no passes: `walsh_quadratic` reads its spectrum, a quadratic Gauss
sum, from its Hessian in closed form.

Both paths produce flat coordinate tuples in Z[w] ((a, b) = a + b*w for
p = 3, p - 1 integers otherwise).  A WalshSpectrum's constructor looks
each one up in the code dict of `cyclo.unit_power_forms`, in one C-level
pass: f is bent exactly when every W(y) is U p^(n/2) z^k for a code k < 2p,
and then the spectrum keeps its codes and drops its tuples (Parseval holds
by construction: q points of norm p^n sum to p^(2n)).  `BentCertificate`
(signs, dual, unit kind) reads those codes, and `coords` rebuilds the
tuples from them.  Any other spectrum keeps its tuples, and one pass
computes each |W(y)|^2 as an integer expression on them (for p = 3 as
|W(y)|^2 - p^n; for p >= 5 at the nonzero points only) to check Parseval
exactly, and that not every norm is p^n.  So a constructed WalshSpectrum is
a certificate of internal consistency, and `is_bent` only reads its flag.
`coords` is the only view of a spectrum.  `walsh_fast` memoizes the
spectrum on f, so a command transforms f once; `walsh_naive` never reads it.
"""

from __future__ import annotations

from itertools import compress
from operator import add, mul, sub

from .cyclo import (CycInt, coords_from_counts, mul_coords, norm_coords, signed_powers,
                    unit_class, unit_power_forms)
from .errors import InternalInconsistency, PreconditionError
from .funcrep import PFunction
from .gf import FieldCtx
from .linalg import axis_passes, mat_kernel

NOT_BENT = "not_bent"
REGULAR = "regular"
WEAKLY_REGULAR = "weakly_regular"
NON_WEAKLY_REGULAR = "non_weakly_regular"


class WalshSpectrum:
    """Full map y -> W_f(y) in Z[w].  A bent spectrum (`bent`, set at
    construction) holds the code k of each value, W(y) = U p^(n/2) z^k
    (`cyclo.unit_power_forms`), and no coordinate tuples; any other
    spectrum holds its tuples."""

    __slots__ = ("ctx", "_coords", "codes", "provenance", "bent", "_certificate")

    def __init__(self, ctx: FieldCtx, coords: list, provenance: str) -> None:
        p, q = ctx.p, ctx.q
        if len(coords) != q:
            raise ValueError("spectrum must have p^n values")
        self.ctx = ctx
        self.provenance = provenance
        self._certificate = None
        index = unit_power_forms(p, ctx.n)[1]
        try:  # q points of norm p^n: Parseval holds by construction
            self.codes, self._coords = list(map(index.__getitem__, coords)), None
        except KeyError:
            self.codes, self._coords = None, coords
        self.bent = self.codes is not None
        if self.bent:
            return
        if p == 3:
            # |W(y)|^2 - p^n: the cached int 0 at every flat point
            devs = [a * a - a * b + b * b - q for a, b in coords]
            parseval, flat = sum(devs) == 0, not any(devs)
        else:
            pad = (0,) * ((p - 3) // 2)
            norms = [norm_coords(c, p) for c in filter(any, coords)]  # |0|^2 = 0
            parseval = tuple(map(sum, zip(*norms))) == (q * q,) + pad
            flat = norms.count((q,) + pad) == q
        if not parseval:
            raise InternalInconsistency("Parseval failed: sum |W|^2 != p^(2n)")
        if flat:  # every norm p^n, yet a value without a code
            raise InternalInconsistency("bent coefficient without unit*power form")

    @property
    def coords(self) -> list:
        """The spectrum as coordinate tuples; a bent spectrum's first read
        rebuilds them from its codes and keeps them."""
        if self._coords is None:
            forms = unit_power_forms(self.ctx.p, self.ctx.n)[0]
            self._coords = list(map(forms.__getitem__, self.codes))
        return self._coords

    def __repr__(self) -> str:
        return "WalshSpectrum(p=%d, n=%d, %s)" % (self.ctx.p, self.ctx.n, self.provenance)


def single_walsh_value(f: PFunction, y_index: int) -> CycInt:
    """W_f(y) for one point, without materializing the whole spectrum."""
    p = f.ctx.p
    counts = [0] * p
    for e in map(sub, f.values, f.ctx.trace_row(y_index)):
        counts[e % p] += 1
    return CycInt.from_exponent_counts(p, counts)


def walsh_naive(f: PFunction) -> WalshSpectrum:
    """Direct evaluation of the defining double loop, one point at a time;
    the independent oracle of `walsh_fast`."""
    return WalshSpectrum(f.ctx, [single_walsh_value(f, y).coords for y in range(f.ctx.q)],
                         "naive")


def walsh_quadratic(g: PFunction) -> tuple[list, list]:
    """W_g of a g of degree <= 2 in closed form, with no transform: the
    support (the y where W_g(y) != 0, ascending) and the coordinates at
    every y.  The degree is the caller's to ensure; it is not checked.

    In polynomial-basis coordinates g(x) = g(0) + a.x + x^T H x / 2, with
    the Hessian H_ij = D_{e_i} D_{e_j} g and a_i = g(e_i) - g(0) - H_ii / 2,
    and Tr(xy) = x.v(y) (`FieldCtx.dual_table`).  So W_g(y) is a quadratic
    Gauss sum: 0 unless v(y) = a + Hz for some z, and then W_g(y_0)
    w^(-z^T H z / 2), v(y_0) = a.  Over the pivot columns of H, those that
    are no `mat_kernel` vector's last nonzero coordinate, z -> Hz is
    one-to-one, so the support has p^r points, r = rank H: a linear table
    over z, read through `FieldCtx.inverse_dual_table`.  The phase is read
    from g's table, as z^T H z / 2 = (g(z) + g(-z)) / 2 - g(0), and every
    value is W_g(y_0), one `single_walsh_value`, times a power of w.
    Parseval, p^r |W_g(y_0)|^2 = p^(2n), is checked exactly; a failure is
    an InternalInconsistency."""
    ctx = g.ctx
    p, n, q, vals = ctx.p, ctx.n, ctx.q, g.values
    g0, half = vals[0], (p + 1) // 2  # 2 half = 1 mod p
    pows = [p ** i for i in range(n)]
    ge = [vals[pw] - g0 for pw in pows]  # g(e_i) - g(0)
    hess = [[(vals[pi + pj] - gi - gj - g0) % p for pj, gj in zip(pows, ge)]
            for pi, gi in zip(pows, ge)]
    a = [(gi - row[i] * half) % p for i, (gi, row) in enumerate(zip(ge, hess))]
    free = {max(compress(range(n), vec)) for vec in mat_kernel(hess, p)}
    pivots = [j for j in range(n) if j not in free]
    # z over the pivot coordinates, the first pivot's digit running fastest,
    # and the support point y at v(y) = a + Hz (H is symmetric) in the same
    # order, through the F_p-linear `inverse_dual_table`; z = 0 gives y_0
    inverse = ctx.inverse_dual_table
    zs = ctx.linear_table([pows[j] for j in pivots])
    points = ctx.linear_table([inverse[sum(map(mul, hess[j], pows))] for j in pivots],
                              inverse[sum(map(mul, a, pows))])
    w0 = single_walsh_value(g, points[0]).coords  # v(y_0) = a
    if norm_coords(w0, p) != (q * q // len(points),) + (0,) * ((p - 3) // 2):
        raise InternalInconsistency("Parseval failed on a quadratic's closed-form spectrum")
    rotations = [mul_coords(w0, x, p) for x in signed_powers(p)[::2]]  # W_g(y_0) w^k
    # W_g(y) = W_g(y_0) w^(g(0) - e / 2) for e = g(z) + g(-z) in [0, 2p - 2]
    by_sum = [rotations[(g0 - e * half) % p] for e in range(2 * p - 1)]
    gz = map(vals.__getitem__, zs)
    g_minus_z = map(vals.__getitem__, map(ctx.neg_table.__getitem__, zs))
    coords = [(0,) * (p - 1)] * q
    for y, w in zip(points, map(by_sum.__getitem__, map(add, gz, g_minus_z))):
        coords[y] = w
    return sorted(points), coords


def _dft3_column(rows):
    """Unrolled size-3 DFT column map, kernel w^(-s*t), on (a, b) = a + b*w."""
    total, down, up = [], [], []
    for (x0, y0), (x1, y1), (x2, y2) in zip(*rows):
        # w*(a,b) = (-b, a-b); w^2*(a,b) = (b-a, -a)
        total.append((x0 + x1 + x2, y0 + y1 + y2))
        down.append((x0 + y1 - x1 - y2, y0 - x1 + x2 - y2))  # x0 + w^2 x1 + w x2
        up.append((x0 - y1 + y2 - x2, y0 + x1 - y1 - x2))  # x0 + w x1 + w^2 x2
    return total, down, up


def _dft_generic_column(p: int):
    """Size-p DFT column map, kernel w^(-s*t), on (p-1)-coordinate tuples:
    output t counts coordinate i of input s at exponent i - s*t, and only
    the nonzero coordinates are added, so the powers of w of a transform
    cost p^2 additions, as the direct sum."""
    shifts = [[-s * t % p for s in range(p)] for t in range(p)]

    def column(rows):
        out = [[] for _ in range(p)]
        for col in zip(*rows):
            terms = [(i, s, c) for s, v in enumerate(col) for i, c in enumerate(v) if c]
            for res, row in zip(out, shifts):
                acc = [0] * (2 * p - 1)
                for i, s, c in terms:
                    acc[i + row[s]] += c
                res.append(tuple([a + b - acc[p - 1] for a, b in zip(acc, acc[p:])]))
        return out
    return column


def _trace_sums(ctx: FieldCtx, vals, table) -> list:
    """F(vals)(y) = sum_x vals[x] * w^(-Tr(xy)) for the p^n entries of the
    iterable `vals`, read at table[0], table[1], ...  Tr(xy) = x . v(y) with
    v the trace-dual coordinates, so the passes run on `vals` as given and
    F(vals)(y) sits at index `FieldCtx.dual_table[y]` of their output."""
    column = _dft3_column if ctx.p == 3 else _dft_generic_column(ctx.p)
    flat = axis_passes(vals, ctx.p, ctx.n, column)
    return list(map(flat.__getitem__, table))


def walsh_fast(f: PFunction) -> WalshSpectrum:
    """Tensor-decomposed transform, memoized on f; same values as walsh_naive."""
    if f._spectrum is None:
        ctx = f.ctx
        omega = signed_powers(ctx.p)[::2].__getitem__  # w^j
        # a lazy map: `axis_passes` copies its input anyway, and a q-entry
        # list held across the passes raised the n = 12 peak RSS by 7 MB;
        # the table is read before the passes, as its first build after
        # them raised that peak by 1.8 MB
        sums = _trace_sums(ctx, map(omega, f.values), ctx.dual_table)
        f._spectrum = WalshSpectrum(ctx, sums, "fast")
    return f._spectrum


def inverse_sums(ctx: FieldCtx, coords: list) -> list:
    """sum_y coords[y] * w^Tr(xy) at every x, as coordinate tuples: the
    inverse transform before its division by p^n, which is the forward
    sums read at -x."""
    return _trace_sums(ctx, coords, map(ctx.dual_table.__getitem__, ctx.neg_table))


def is_bent(s: WalshSpectrum) -> bool:
    """|W_f(y)|^2 = p^n, exactly, for every y (decided at construction)."""
    return s.bent


class BentCertificate:
    """Per-point decomposition W(y) = sign(y) * unit * p^(n/2) * w^(dual(y)),
    read from the spectrum's codes k (its own list, not a copy): the sign is
    -1 where k is odd, and dual(y) = k (p+1)/2 mod p.

    unit_kind is 'real' (unit = 1) or 'imaginary' (unit = i, realized through
    the Gauss sum: the unit times p^(n/2) is p^((n-1)/2) times the Gauss sum
    of F_p, as in `cyclo.unit_power_forms`).
    """

    __slots__ = ("ctx", "codes", "dual", "unit_kind")

    def __init__(self, ctx: FieldCtx, codes: list) -> None:
        p = ctx.p
        self.ctx = ctx
        self.codes = codes
        duals = [k * (p + 1) // 2 % p for k in range(2 * p)]  # j of z^k = +-w^j
        self.dual = PFunction(ctx, map(duals.__getitem__, codes))
        self.unit_kind = unit_class(p, ctx.n)

    @property
    def signs(self) -> list[int]:
        return [1 - 2 * (k & 1) for k in self.codes]

    def sign_histogram(self) -> dict[str, int]:
        minus = sum(k & 1 for k in self.codes)
        return {"plus": len(self.codes) - minus, "minus": minus}

    def is_constant_sign(self) -> bool:
        return len({k & 1 for k in self.codes}) == 1


def extract_certificate(s: WalshSpectrum) -> BentCertificate:
    """The certificate (dual, signs, unit kind) of a bent spectrum, read
    from its codes; built once per spectrum and cached on it."""
    if s._certificate is None:
        if not s.bent:
            raise PreconditionError("extract_certificate requires a bent spectrum")
        s._certificate = BentCertificate(s.ctx, s.codes)
    return s._certificate


class Classification:
    """One of not_bent, regular, weakly_regular (with its sign), or
    non_weakly_regular (with the dual-bent flag)."""

    __slots__ = ("variant", "sign", "dual_bent")

    def __init__(self, variant: str, sign: int | None = None,
                 dual_bent: bool | None = None) -> None:
        self.variant = variant
        self.sign = sign
        self.dual_bent = dual_bent

    @property
    def bent(self) -> bool:
        return self.variant != NOT_BENT

    def __eq__(self, other) -> bool:
        return (isinstance(other, Classification) and self.variant == other.variant
                and self.sign == other.sign and self.dual_bent == other.dual_bent)

    def __repr__(self) -> str:
        extra = ""
        if self.variant == WEAKLY_REGULAR:
            extra = "(sign=%+d)" % self.sign
        elif self.variant == NON_WEAKLY_REGULAR:
            extra = "(dual_bent=%s)" % self.dual_bent
        return "Classification(%s%s)" % (self.variant, extra)

    def to_json(self) -> dict:
        out = {"variant": self.variant}
        if self.sign is not None:
            out["sign"] = self.sign
        if self.dual_bent is not None:
            out["dual_bent"] = self.dual_bent
        return out


def classify(f: PFunction) -> Classification:
    """Spectral classification; non-bent input is a result, not an error."""
    s = walsh_fast(f)
    if not is_bent(s):
        return Classification(NOT_BENT)
    cert = extract_certificate(s)
    if cert.is_constant_sign():
        sign = 1 - 2 * (cert.codes[0] & 1)
        if sign == 1 and cert.unit_kind == "real":
            return Classification(REGULAR, sign=1, dual_bent=True)
        return Classification(WEAKLY_REGULAR, sign=sign, dual_bent=True)
    dual_ok = is_bent(walsh_fast(cert.dual))
    return Classification(NON_WEAKLY_REGULAR, dual_bent=dual_ok)


def dual_iteration_check(f: PFunction) -> dict:
    """For weakly regular bent f, follow the dual four steps around:
    f** = f(-x), f*** = f*(-x), f**** = f."""
    s = walsh_fast(f)
    if not is_bent(s):
        raise PreconditionError("dual iteration requires a bent function")
    c0 = extract_certificate(s)
    if not c0.is_constant_sign():
        raise PreconditionError("dual iteration requires a weakly regular function")
    fs = [f, c0.dual]
    for _ in range(3):
        s_i = walsh_fast(fs[-1])
        if not is_bent(s_i):
            raise PreconditionError("an iterated dual stopped being bent")
        fs.append(extract_certificate(s_i).dual)
    report = {
        "dual_dual_is_reflection": fs[2] == f.reflect(),
        "third_dual_is_reflected_dual": fs[3] == fs[1].reflect(),
        "fourth_dual_closes_cycle": fs[4] == f,
    }
    report["passed"] = all(report.values())
    return report


def bent_via_derivatives(f: PFunction) -> bool:
    """Balance of every nonzero-direction derivative (perfect nonlinearity)."""
    ctx = f.ctx
    return all(f.derivative(ctx.from_index(a)).is_balanced() for a in range(1, ctx.q))


def _second_derivative_counts(f: PFunction) -> list[int]:
    """counts[v] = #{(c, d, x) : D_{c,d} f(x) = v}.

    For g = D_c f, D_d g(x) = v exactly when y = x + d has g(y) = g(x) + v;
    over all (d, x) the pair (x, y) runs through every pair of points, so
    the count of v for one c is sum_k hist[k] hist[(k + v) % p], with hist
    the value histogram of g: O(q^2 + q p^2)."""
    p = f.ctx.p
    counts = [0] * p
    for c in map(f.ctx.from_index, range(f.ctx.q)):
        hist = f.derivative(c).value_counts()
        for v in range(p):
            counts[v] += sum(h * hist[(k + v) % p] for k, h in enumerate(hist))
    return counts


def second_derivative_triple_sum(f: PFunction) -> tuple:
    """sum over c, d, x of w^(D_{c,d} f(x)), exactly, as coordinates."""
    return coords_from_counts(f.ctx.p, _second_derivative_counts(f))


def bent_via_second_derivative_sum(f: PFunction) -> bool:
    """True iff the triple sum equals p^(2n) exactly."""
    ctx = f.ctx
    return second_derivative_triple_sum(f) == (ctx.q * ctx.q,) + (0,) * (ctx.p - 2)
