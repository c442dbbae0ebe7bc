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
`dual_table` (the linear table of the Gram matrix [Tr(alpha^(i+j))],
which lives on the `FieldCtx`, built once per field; this module keeps no
table of its own).  The column map has one direction, the kernel w^(-st):
`inverse_sums`, sum_y d(y) w^Tr(xy), the inverse sums before the division
by p^n that the identity battery of `derivanalysis` needs, is the forward
sums of d read at -x, through `neg_table` and the same gather.

Both paths produce flat coordinate tuples in Z[w] ((a, b) = a + b*w for
p = 3, p - 1 integers otherwise); a WalshSpectrum holds one code per point
into a table of values.  Its constructor looks each tuple up in the code
dict of `cyclo.unit_power_forms` in one C-level pass: f is bent exactly
when every W(y) is U p^(n/2) z^k, k < 2p, and the table is then those 2p
forms (Parseval holds by construction: q points of norm p^n sum to
p^(2n)); a bent spectrum is its own certificate (signs, dual, unit kind),
read from its codes.  Any other spectrum codes its distinct values in
order of first appearance, and one pass over them, each |W|^2 weighted by
how often it occurs, checks Parseval exactly, and that not every norm is
p^n.  So a constructed WalshSpectrum is a certificate of internal
consistency, and `is_bent` only reads its flag.  `walsh_fast` memoizes the
spectrum on f, so a command transforms f once; `walsh_naive` never reads it.
"""

from __future__ import annotations

from collections import Counter
from operator import mul, sub

from .cyclo import (CycInt, coords_from_counts, norm_coords, signed_powers, unit_class,
                    unit_power_forms)
from .errors import InternalInconsistency, PreconditionError
from .funcrep import PFunction
from .gf import FieldCtx
from .linalg import axis_passes

NOT_BENT = "not_bent"
REGULAR = "regular"
WEAKLY_REGULAR = "weakly_regular"
NON_WEAKLY_REGULAR = "non_weakly_regular"


class WalshSpectrum:
    """Full map y -> W_f(y) in Z[w], as `codes`, one per point, into
    `table`, its values: for a bent spectrum (`bent`, set at construction)
    the 2p forms U p^(n/2) z^k of `cyclo.unit_power_forms`, for any other
    its distinct values in order of first appearance.

    A bent spectrum is its own certificate W(y) = sign(y) U p^(n/2)
    w^(f*(y)): the sign is -1 where k is odd, the `dual` f*(y) = k (p+1)/2
    mod p is built on first read and kept, and `unit_kind` is 'real' (U =
    1) or 'imaginary' (U = i, realized through the Gauss sum of F_p as in
    `cyclo.unit_power_forms`)."""

    __slots__ = ("ctx", "table", "codes", "provenance", "bent", "_dual")

    def __init__(self, ctx: FieldCtx, coords: list, provenance: str) -> None:
        p, q = ctx.p, ctx.q
        if len(coords) != q:
            raise ValueError("spectrum must have p^n values")
        self.ctx, self.provenance, self._dual = ctx, provenance, None
        forms, index = unit_power_forms(p, ctx.n)
        try:  # q points of norm p^n: Parseval holds by construction
            self.codes, self.table, self.bent = list(map(index.__getitem__, coords)), forms, True
            return
        except KeyError:  # each distinct value numbered as it first appears
            index = {}
            self.codes = [index.setdefault(c, len(index)) for c in coords]
            self.table, self.bent = list(index), False
        flat = (q,) + (0,) * ((p - 3) // 2)  # the norm p^n as `norm_coords` writes it
        norms = [norm_coords(v, p) for v in self.table]
        counts = Counter(self.codes).values()  # in code order: codes number values as they appear
        if [sum(map(mul, counts, col)) for col in zip(*norms)] != [q * v for v in flat]:
            raise InternalInconsistency("Parseval failed: sum |W|^2 != p^(2n)")
        if norms.count(flat) == len(norms):  # every norm p^n, yet a value without a code
            raise InternalInconsistency("bent coefficient without unit*power form")

    @property
    def coords(self) -> list:
        """table[code] at each point, built on every read."""
        return list(map(self.table.__getitem__, self.codes))

    def _bent_codes(self) -> list:
        if not self.bent:
            raise PreconditionError("a spectrum that is not bent has no certificate")
        return self.codes

    @property
    def dual(self) -> PFunction:
        if self._dual is None:
            p = self.ctx.p
            duals = [k * (p + 1) // 2 % p for k in range(2 * p)]  # j of z^k = +-w^j
            self._dual = PFunction(self.ctx, map(duals.__getitem__, self._bent_codes()))
        return self._dual

    @property
    def signs(self) -> list[int]:
        return [1 - 2 * (k & 1) for k in self._bent_codes()]

    def sign_histogram(self) -> dict[str, int]:
        minus = sum(k & 1 for k in self._bent_codes())
        return {"plus": len(self.codes) - minus, "minus": minus}

    def is_constant_sign(self) -> bool:
        return len({k & 1 for k in self._bent_codes()}) == 1

    @property
    def unit_kind(self) -> str:
        return unit_class(self.ctx.p, self.ctx.n)

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


def extract_certificate(s: WalshSpectrum) -> WalshSpectrum:
    """A bent spectrum s, its own certificate, with its dual built; a
    spectrum that is not bent is a PreconditionError."""
    s.dual  # built on first read
    return s


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
