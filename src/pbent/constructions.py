"""Generators of bent functions: concatenation of bent slices, its
Maiorana-McFarland-style special form, quadratic addition to weakly regular
functions, and the cubic trinomial family over F_{3^(4k)} together with its
closed-form Walsh values and dual for the odd-k cases.

The two concatenations read every field from their p^m slices on one
context (`outer_degree` is the one rule for m); the special form takes the
permutation pi besides.  Every field they build the result on is a
verified `FieldCtx`, whose modulus passed Berlekamp's irreducibility test.

The trinomial family is

    f(x) = Tr_n(x^(3^k+2) - x^(2*3^k+1) + b x^(3^j+1)),   n = 4k,
    b = zeta^(t(3^k+1)/2),  zeta primitive in F_{3^(2k)},

with j odd for even k, j even for odd k, and t odd.  Every instance is
cubic, bent and not weakly regular; bentness is certifiable both
spectrally and through constant-nonzero second derivatives, whose witness
directions are produced here (lemma2_witness).

For k odd, j in {0, 2k} and t = (3^k-1)/2 the Walsh transform collapses in
closed form over the realization F_{3^k}[a] with a^4 + a = 1: expanding
y = y_3 a^3 + y_2 a^2 + y_1 a + y_0 with y_i in F_{3^k}, W_f(-y) is a
single +-3^(2k) w^e value whose sign involves the quadratic character of
F_{3^k}; its two y_0 branches (the degenerate value and the generic case,
y_0 = 0 included) are implemented exactly, with the quadratic Gauss sum
standing in for every irrational factor.
"""

from __future__ import annotations

import functools
import itertools

from .cyclo import CycInt, bent_code, unit_power_forms
from .errors import PreconditionError, InternalInconsistency
from .funcrep import PFunction, TraceForm
from .gf import FFElem, FieldCtx, get_field
from .walsh import (classify, extract_certificate, is_bent, walsh_fast, WEAKLY_REGULAR,
                    REGULAR)

TRINOMIAL_MODULUS_K1 = (2, 1, 0, 0, 1)  # x^4 + x - 1 over F_3


class TrinomialParams:
    """Parameters (k, j, t) of the trinomial family; n = 4k.

    j is the Frobenius shift of the quadratic-term exponent 3^j + 1 and
    must be odd when k is even and even when k is odd; t is an odd
    multiplier selecting b = zeta^(t(3^k+1)/2).
    """

    __slots__ = ("k", "j", "t")

    def __init__(self, k: int, j: int, t: int) -> None:
        if k < 1:
            raise PreconditionError("k must be >= 1")
        if not 0 <= j < 4 * k:
            raise PreconditionError("j must lie in [0, 4k)")
        if t < 1 or t % 2 == 0:
            raise PreconditionError("t must be a positive odd integer")
        if k % 2 == 0 and j % 2 == 0:
            raise PreconditionError("j must be odd when k is even")
        if k % 2 == 1 and j % 2 == 1:
            raise PreconditionError("j must be even when k is odd")
        self.k, self.j, self.t = k, j, t

    @property
    def n(self) -> int:
        return 4 * self.k

    def context(self) -> FieldCtx:
        """Default realization: x^4 + x - 1 for k = 1 (its root is the
        primitive element), the pinned default modulus otherwise."""
        if self.k == 1:
            return get_field(3, 4, TRINOMIAL_MODULUS_K1)
        return get_field(3, self.n)

    def realized_by(self, ctx: FieldCtx) -> FieldCtx:
        """ctx if it realizes F_{3^(4k)}; every helper below reads its field through here."""
        if ctx.p != 3 or ctx.n != self.n:
            raise PreconditionError("context must realize F_3^(4k)")
        return ctx

    def zeta(self, ctx: FieldCtx) -> FFElem:
        """Primitive element of the subfield F_{3^(2k)}."""
        return self.realized_by(ctx).gen_power((3 ** self.n - 1) // (3 ** (2 * self.k) - 1))

    def b_coefficient(self, ctx: FieldCtx) -> FFElem:
        return ctx.power(self.zeta(ctx), self.t * (3 ** self.k + 1) // 2)

    def __repr__(self) -> str:
        return "TrinomialParams(k=%d, j=%d, t=%d)" % (self.k, self.j, self.t)


def trinomial_bent(params: TrinomialParams, ctx: FieldCtx | None = None) -> TraceForm:
    """The family member as a trace form over its field context."""
    ctx = params.context() if ctx is None else ctx
    k3 = 3 ** params.k
    b = params.b_coefficient(ctx)
    return TraceForm(ctx, [
        (ctx.one(), k3 + 2),
        (ctx.scalar(-1), 2 * k3 + 1),
        (b, 3 ** params.j + 1),
    ])


def linearized_second_derivative_coeff(params: TrinomialParams, c: FFElem,
                                       d: FFElem) -> FFElem:
    """L_c(d), the x-coefficient of D_{c,d} f in c's field: zero exactly
    when the second derivative in directions (c, d) is constant."""
    ctx, k = params.realized_by(c.ctx), params.k
    u = ctx.frobenius(c, k) - c
    v = ctx.frobenius(c, 2 * k) - c
    return (ctx.frobenius(u, 3 * k) * ctx.frobenius(d, 3 * k)
            + u * ctx.frobenius(d, k)
            + ctx.frobenius(v, k) * d)


def lemma2_witness(c: FFElem, params: TrinomialParams) -> FFElem:
    """A direction d in c's field making Tr_n((b c^(3^j) + b^(3^-j) c^(3^-j)) d) nonzero.

    Defined for c in F_{3^(2k)}^* and for c outside F_{3^k} with
    Tr_k^n(bc) != 0; the search runs through F_{3^k}, then F_{3^(2k)},
    then the whole field, in canonical order (a pool holds the one before,
    all of whose elements failed, so reading them again finds the same d).
    Exhaustion would contradict the family's structure: InternalInconsistency.
    """
    ctx, k, j = c.ctx, params.k, params.j
    if c.is_zero():
        raise PreconditionError("c must be nonzero")
    b = params.b_coefficient(ctx)
    in_2k = ctx.frobenius(c, 2 * k) == c
    in_k = ctx.frobenius(c, k) == c
    tr_bc = ctx.rel_trace(b * c, k)
    if not in_2k and (in_k or tr_bc.is_zero()):
        raise PreconditionError(
            "c is outside the covered cases: need c in F_3^(2k)* or "
            "c not in F_3^k with Tr_k^n(bc) != 0")
    z = b * ctx.power(c, 3 ** j) + ctx.frobenius(b, -j) * ctx.frobenius(c, -j)
    pools = itertools.chain(ctx.subfield_indexes(k), ctx.subfield_indexes(2 * k), range(ctx.q))
    d = next((d for d in map(ctx.from_index, pools) if ctx.trace(z * d)), None)
    if d is None:
        raise InternalInconsistency("no witness direction exists; family structure violated")
    return d


def trinomial_first_derivative_form(params: TrinomialParams, c: FFElem) -> TraceForm:
    """Symbolic expansion of D_c f as a trace form over c's field (matches
    the generic derivative pointwise)."""
    ctx, k, j = c.ctx, params.k, params.j
    k3 = 3 ** k
    b = params.b_coefficient(ctx)
    ck = ctx.frobenius(c, k)      # c^(3^k)
    c2k = ck * ck                 # c^(2*3^k)
    cj = ctx.power(c, 3 ** j)
    # constant inside the trace: b c^(3^j+1) + c^(3^k+2) - c^(2*3^k+1)
    const_in = b * cj * c + ck * c * c - c2k * c
    terms = [
        (const_in, 0),
        (b * c, 3 ** j),
        (b * cj - c2k - ck * c, 1),
        (c * c + ck * c, k3),
        (ck - c, k3 + 1),
        (ck, 2),
        (-c, 2 * k3),
    ]
    return TraceForm(ctx, terms)


def _quadratic_character(z: FFElem, k: int) -> int:
    """eta(z) over F_{3^k} as +-1; z must be a nonzero subfield element."""
    val = z ** ((3 ** k - 1) // 2)
    if val == z.ctx.one():
        return 1
    if val == z.ctx.scalar(-1):
        return -1
    raise InternalInconsistency("character of a non-subfield element requested")


@functools.lru_cache(maxsize=8)
def _closed_form_setup(k: int, j: int, t: int, ctx: FieldCtx):
    """(a, B, B^-1, u) of the closed form (k odd, j in {0, 2k}, t =
    (3^k-1)/2): a the first root of x^4 + x - 1 in F_{3^(4k)} in index
    order (for the pinned k = 1 realization, the modulus root alpha), B =
    b^-1 a^20, which lies in F_{3^k}, and u with Tr^(4k)_k(u) = 1, so that
    Tr_k(z) = Tr_(4k)(u z) for z in F_{3^k}."""
    a = next((z for z in map(ctx.from_index, ctx.subfield_indexes(4))
              if ctx.power(z, 4) + z == ctx.one()), None)
    if a is None:
        raise InternalInconsistency("no root of x^4 + x - 1 in F_3^(4k)")
    big_b = TrinomialParams(k, j, t).b_coefficient(ctx).inverse() * ctx.power(a, 20)
    if ctx.frobenius(big_b, k) != big_b:
        raise InternalInconsistency("B = b^-1 a^20 escaped F_3^k")
    return a, big_b, big_b.inverse(), ctx.rel_trace_unit(k)


def trinomial_closed_form_walsh(params: TrinomialParams, y: FFElem,
                                ctx: FieldCtx | None = None) -> CycInt:
    """W_f(-y) on y's field in closed form, as an exact cyclotomic integer.

    Summing out x_0 pins x_3 = x_1 + x_2 + B y_0 and leaves a two-variable
    quadratic exponent with coefficients (s_j = +-1 for j = 0 / 2k)

        x_1^2: s_k B y_0 - s_j B^-1        x_1 x_2: -s_k B y_0
        x_2^2: -s_k B y_0 - s_j B^-1
        x_1:   y_3 + y_1 + s_j y_0         x_2: y_2 + y_1 - s_j y_0 + s_k B^2 y_0^2
        const: s_k B y_0 + s_j B y_0^2 + B y_0 y_1

    evaluated by exact Gauss completions.  Two branches on y_0: the
    degenerate value y_0 = s_j s_k B^-2 (the x_1 sum turns linear and the
    value is +3^(2k) w^e), and the generic case, sign -eta(B^-2 + y_0^2 B^2)
    with eta the quadratic character of F_3^k; at y_0 = 0 (m = c_0 = 0, two
    clean squares) it reads e = Tr_k(s_j B (l_1^2 + l_2^2)) and sign -1.
    Always equals the spectral W_f(-y).
    """
    if params.k % 2 == 0 or params.j not in (0, 2 * params.k) \
            or params.t != (3 ** params.k - 1) // 2:
        raise PreconditionError(
            "closed forms cover k odd, j in {0, 2k}, t = (3^k - 1)/2 only")
    if ctx not in (None, y.ctx):
        raise PreconditionError("ctx must be y's own field context")
    ctx, k = params.realized_by(y.ctx), params.k
    a, B, Binv, u = _closed_form_setup(k, params.j, params.t, ctx)
    s_k = 1 if k % 4 == 1 else -1
    s_j = 1 if params.j == 0 else -1
    # y = y_3 a^3 + y_2 a^2 + y_1 a + y_0
    y0, y3, y2, y1 = (ctx.rel_trace(ctx.power(a, i) * y, k) for i in range(4))
    forms = unit_power_forms(3, ctx.n)[0]  # 3^(2k) z^c by code c

    def tr(z):  # z is built from y_0..y_3 and B, all in F_3^k
        return ctx.trace(u * z)

    def value(sign, e):  # sign * 3^(2k) * w^e
        return CycInt(3, forms[bent_code(3, sign, e)])

    a1 = (B * y0).scale(s_k) - Binv.scale(s_j)       # x_1^2 coefficient
    a2 = -(B * y0).scale(s_k) - Binv.scale(s_j)      # x_2^2 coefficient
    m = -(B * y0).scale(s_k)                         # x_1 x_2 coefficient
    l1 = y3 + y1 + y0.scale(s_j)
    l2 = y2 + y1 - y0.scale(s_j) + (B * B * y0 * y0).scale(s_k)
    c0 = (B * y0).scale(s_k) + (B * y0 * y0).scale(s_j) + B * y0 * y1

    if a1.is_zero():
        # y_0 = s_j s_k B^-2: summing x_1 forces x_2 = l1 / (s_k B y_0)
        x2 = l1 * m.inverse().scale(-1)
        e = tr(c0 + a2 * x2 * x2 + l2 * x2)
        return value(1, e)

    q2pre = Binv * Binv + y0 * y0 * B * B
    nn = l2 * a1 + l1 * m
    e = (tr(c0) - tr(l1 * l1 * a1.inverse())
         - tr(nn * nn * (q2pre * a1).inverse())) % 3
    sign = -_quadratic_character(q2pre, k)
    return value(sign, e)


# -- concatenation constructions ------------------------------------------------


def _slice_certificates(slices: list) -> list:
    """The bent spectrum of every slice, its certificate; a slice that is
    not bent, or not on slice 0's context, is a PreconditionError."""
    certs = []
    for idx, sl in enumerate(slices):
        if sl.ctx is not slices[0].ctx:
            raise PreconditionError("slice %d is not on slice 0's field context" % idx)
        s = walsh_fast(sl)
        if not is_bent(s):
            raise PreconditionError("slice %d is not bent" % idx)
        certs.append(extract_certificate(s))
    return certs


def outer_degree(slices) -> int:
    """The m >= 1 with len(slices) = p^m, p the slices' characteristic: a
    concatenation indexes its slices by F_{p^m}.  Any other count is refused."""
    m, q = 0, 1
    while slices and q < len(slices):
        m, q = m + 1, q * slices[0].ctx.p
    if m < 1 or q != len(slices):
        raise PreconditionError("slice count %d: a concatenation needs p^m slices, m >= 1"
                                % len(slices))
    return m


def bent_concatenation(slices):
    """Concatenate p^m bent slices f_y on one inner field, one per element
    y of F_{p^m} = `get_field(p, m)`, into a function on the field of degree
    n + m with index split z = x + p^n * y; bent iff every s-section of the
    slice duals is bent, in which case the dual (for the component-wise
    trace pairing) is returned as well.

    Raises on a slice count other than p^m, a non-bent slice and slices of
    two contexts; a y-dependent unit pattern is reported as inapplicable.
    """
    slices = list(slices)
    m = outer_degree(slices)
    p, n = slices[0].ctx.p, slices[0].ctx.n
    certs = _slice_certificates(slices)
    outer_ctx, combined = get_field(p, m), get_field(p, n + m)
    f = PFunction(combined, [v for sl in slices for v in sl.values])

    units_constant = all(len(set(signs)) == 1 for signs in zip(*(c.signs for c in certs)))
    report = {"applicable": units_constant, "slices_bent": True}
    if not units_constant:
        report["reason"] = "unit u_y(s) depends on y"
        return f, report

    # the s-section y -> f*_y(s) of the slice duals, one per s
    sections = [walsh_fast(PFunction(outer_ctx, list(col)))
                for col in zip(*(c.dual.values for c in certs))]
    report["bent"] = all(map(is_bent, sections))
    if report["bent"]:
        duals = [extract_certificate(sp).dual.values for sp in sections]
        report["dual"] = PFunction(combined, [v for row in zip(*duals) for v in row])
    return f, report


def mm_special_form(gs, pi):
    """f(x, y1, y2) = g_{y2}(x) + Tr_d(y1 * pi(y2)) on a field of degree
    n + 2d, p^d = len(gs); bent whenever every g_c is bent, with no
    condition on units.

    pi is a permutation of F_{p^d} given as an index table; d = 1 with pi =
    range(p) gives g_{y2}(x) + y1 y2.  When every slice is dual-bent the
    dual f*(s, t1, t2) = g*_{pi^-1(t1)}(s) - Tr_d(pi^-1(t1) * t2) is
    returned too.  Slices on two contexts are refused.
    """
    gs = list(gs)
    d = outer_degree(gs)
    p, n = gs[0].ctx.p, gs[0].ctx.n
    ctx_d = get_field(p, d)
    qd = ctx_d.q
    pi = list(pi)
    if sorted(pi) != list(range(qd)):
        raise PreconditionError("pi is not a permutation of F_p^d")
    certs = _slice_certificates(gs)
    combined = get_field(p, n + 2 * d)
    pairing = [ctx_d.trace_row(c) for c in range(qd)]  # pairing[c][y] = Tr_d(c y), symmetric
    f = PFunction(combined, [(v + t) % p for g, c in zip(gs, pi)
                             for t in pairing[c] for v in g.values])

    report = {"bent": True}
    duals_bent = [is_bent(walsh_fast(c.dual)) for c in certs]
    report["slices_dual_bent"] = all(duals_bent)
    if all(duals_bent):
        pi_inv = sorted(range(qd), key=pi.__getitem__)
        report["dual"] = PFunction(combined, [(v - row[c]) % p for row in pairing
                                              for c in pi_inv for v in certs[c].dual.values])
    return f, report


# -- quadratic addition -----------------------------------------------------------


def quadratic_part_function(coeffs) -> PFunction:
    """q(x) = Tr_n(sum_j a_j x^(p^j + 1)) on the field of the a_j, as a truth table."""
    if not coeffs:
        raise PreconditionError("a quadratic needs at least one coefficient a_0")
    terms = [(a, a.ctx.p ** jj + 1) for jj, a in enumerate(coeffs) if not a.is_zero()]
    return TraceForm(coeffs[0].ctx, terms).truth_table()


def add_quadratic(f: PFunction, coeffs):
    """g = f + q for weakly regular bent f and a pure quadratic q.

    The verdict is read from g's spectrum: `is_bent(walsh_fast(g))`.  The
    paper's criterion, W_{D_c f}(-L(c)) = 0 for every c != 0, is
    equivalent (every D_c g is balanced) and is tested against it.
    """
    ctx = f.ctx
    coeffs = list(coeffs)
    if len(coeffs) != ctx.n:
        raise PreconditionError("need n quadratic coefficients")
    if classify(f).variant not in (WEAKLY_REGULAR, REGULAR):
        raise PreconditionError("add_quadratic requires a weakly regular bent function")
    g = f + quadratic_part_function(coeffs)
    return g, {"spectrally_bent": is_bent(walsh_fast(g))}


def nonvanishing_quadratic_search(p: int, n: int):
    """A pure quadratic q with q(c) != 0 for all c != 0, or None.

    Exhaustive over coefficient vectors for n <= 2.  For n >= 3 there is none
    (Chevalley-Warning; or 1 - q(x)^(p-1) = [x = 0] would equate degrees
    <= 2(p-1) and n(p-1)), so None is returned without scanning.
    """
    if n >= 3:
        return None
    ctx = get_field(p, n)
    # reversed so that the first coefficient varies fastest
    for rev in itertools.product(range(ctx.q), repeat=n):
        if any(rev):
            coeffs = [ctx.from_index(ci) for ci in reversed(rev)]
            if all(quadratic_part_function(coeffs).values[1:]):
                return coeffs
    return None
