"""Representations of p-ary functions f: F_{p^n} -> F_p and conversions.

A PFunction is a dense truth table over the canonical element enumeration
of its field context.  The other representations round-trip through it:

    trace form        sum of Tr_n(a_i x^(d_i)) terms plus a constant
    relative trace    one term Tr_{o(j)}(a_j x^j) per cyclotomic coset leader
    ANF               multivariate coefficients, exponents below p per variable

The algebraic degree is the maximal p-weight (base-p digit sum) of an
exponent carrying a nonzero univariate coefficient (equally, of a nonzero
leader of the relative trace form: Frobenius conjugates share a p-weight);
it equals the total degree of the ANF, which is how it is computed here.
`truth_to_anf` runs the packed-lane F_p kernel `linalg.lane_passes` with
the inverse Vandermonde matrix over F_p, one pass per digit on the whole
table held as one int, and `anf_to_truth` runs it with the Vandermonde
matrix itself.
The inverse is written down, not computed: it is the interpolation formula
c_0 = f(0), c_e = -sum_t t^(p-1-e) f(t) for e >= 1.
`ANF.degree` reads the largest p-weight at a nonzero coefficient from
cached per-(p, n) tables of p-weights, by `itertools.compress`.

Interpolation computes the character sums a_j = -sum_{x!=0} f(x) x^(-j)
at the cyclotomic coset leaders j only, about q/n sums of q - 1 terms each
(`analyze --dual-form` at n = 9 takes seconds).  `TraceForm.truth_table`
is the one table evaluator: a relative trace form is evaluated as a trace
form over F_{p^n}.

A function spec is a field spec, then, with whitespace removed, f=Tr(terms)
and an optional +c or -c (`parse_function_spec`).  The terms are none (the
zero form) or a sequence of [coef[*]]x[^E] with a sign before every term
but the first, whose sign is optional; coef is g^M (a power of the field's
primitive element) or an integer, an omitted coefficient or exponent is 1,
and M, E and c are ASCII [0-9]+.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from itertools import compress
from operator import sub

from .cyclo import coords_from_counts
from .errors import InternalInconsistency, ParseError, PreconditionError
from .gf import FFElem, FieldCtx, parse_field_spec, parse_int
from .linalg import lane_passes, lane_typecode


def p_weight(e: int, p: int) -> int:
    """Base-p digit sum of an exponent."""
    w = 0
    while e:
        e, r = divmod(e, p)
        w += r
    return w


class PFunction:
    """A p-ary function as a truth table in canonical index order.  The
    constructor reduces every entry mod p, so the operations below pass
    their integer results unreduced."""

    __slots__ = ("ctx", "values", "_degree", "_spectrum")

    def __init__(self, ctx: FieldCtx, values) -> None:
        self.ctx = ctx
        p = ctx.p
        self.values = [v % p for v in values]
        if len(self.values) != ctx.q:
            raise ValueError("truth table must have p^n entries")
        self._degree = None
        self._spectrum = None

    def __call__(self, x: FFElem) -> int:
        return self.values[x.index]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PFunction) and self.ctx == other.ctx
                and self.values == other.values)

    def __hash__(self):
        return hash((self.ctx, tuple(self.values)))

    def __add__(self, other: "PFunction") -> "PFunction":
        return PFunction(self.ctx, [a + b for a, b in zip(self.values, self.ctx.own(other).values)])

    def __sub__(self, other: "PFunction") -> "PFunction":
        return PFunction(self.ctx, [a - b for a, b in zip(self.values, self.ctx.own(other).values)])

    def __neg__(self) -> "PFunction":
        return PFunction(self.ctx, [-a for a in self.values])

    def reflect(self) -> "PFunction":
        """x -> f(-x)."""
        return PFunction(self.ctx, list(map(self.values.__getitem__, self.ctx.neg_table)))

    def derivative(self, a: FFElem) -> "PFunction":
        """D_a f(x) = f(x + a) - f(x)."""
        shifted = map(self.values.__getitem__, self.ctx.shift_table(a.index))
        return PFunction(self.ctx, list(map(sub, shifted, self.values)))

    def second_derivative(self, a: FFElem, b: FFElem) -> "PFunction":
        """D_a D_b f; symmetric in (a, b)."""
        return self.derivative(b).derivative(a)

    def value_counts(self) -> list[int]:
        counts = [0] * self.ctx.p
        for v in self.values:
            counts[v] += 1
        return counts

    def is_balanced(self) -> bool:
        """Each prime-field value occurs exactly p^(n-1) times.

        Cross-checked against the character sum in W_f(0) being the exact
        zero of Z[w]; the two can only disagree on an implementation bug.
        """
        counts = self.value_counts()
        target = self.ctx.q // self.ctx.p
        balanced = all(c == target for c in counts)
        char_zero = not any(coords_from_counts(self.ctx.p, counts))
        if balanced != char_zero:
            raise InternalInconsistency("balance count disagrees with character sum")
        return balanced

    def algebraic_degree(self) -> int:
        if self._degree is None:
            self._degree = self.to_anf().degree()
        return self._degree

    def to_anf(self) -> "ANF":
        return truth_to_anf(self)

    def __repr__(self) -> str:
        return "PFunction(p=%d, n=%d, deg=%s)" % (self.ctx.p, self.ctx.n, self.algebraic_degree())


class TraceForm:
    """f(x) = Tr_n(sum of coeff * x^exp) + constant."""

    __slots__ = ("ctx", "terms", "constant")

    def __init__(self, ctx: FieldCtx, terms, constant: int = 0) -> None:
        self.ctx = ctx
        merged: dict[int, FFElem] = {}
        for coeff, exp in terms:
            if not 0 <= exp <= ctx.q - 1:
                raise ParseError("exponent %d out of range [0, %d]" % (exp, ctx.q - 1))
            merged[exp] = merged[exp] + coeff if exp in merged else ctx.own(coeff)
        self.terms = tuple(sorted(((c, e) for e, c in merged.items() if not c.is_zero()),
                                  key=lambda t: t[1]))
        self.constant = constant % ctx.p

    def truth_table(self) -> PFunction:
        ctx = self.ctx
        q, order = ctx.q, ctx.order
        base = self.constant
        vals = [0] * q
        # exponent-0 terms contribute Tr(coeff) everywhere, including x = 0
        zero_exp = sum(ctx.trace(c) for c, e in self.terms if e == 0) % ctx.p
        vals[0] = (base + zero_exp) % ctx.p
        live = [(c, e) for c, e in self.terms if e > 0]
        if not live:
            return PFunction(ctx, [(base + zero_exp) % ctx.p] * q)
        ctx.ensure_tables()
        exp_t = ctx.exp_table
        log_t = ctx.log_table
        p = ctx.p
        pairs = [(log_t[c.index], e) for c, e in live]
        troe = ctx._trace_of_exp
        for m in range(order):
            acc = base + zero_exp
            for lc, e in pairs:
                acc += troe[(lc + m * e) % order]
            vals[exp_t[m]] = acc % p
        return PFunction(ctx, vals)

    def __repr__(self) -> str:
        return "TraceForm(%d terms, constant=%d)" % (len(self.terms), self.constant)

    def spec_string(self) -> str:
        """Render in the function-spec grammar."""
        ctx = self.ctx
        ctx.ensure_tables()
        parts = []
        for coeff, exp in self.terms:
            cs = "" if coeff == ctx.one() else "g^%d*" % ctx.log_table[coeff.index]
            parts.append("%sx^%d" % (cs, exp))
        out = "Tr(%s)" % "+".join(parts)
        if self.constant:
            out += "+%d" % self.constant
        return out


class RelativeTraceForm:
    """The unique form sum_j Tr_{o(j)}(a_j x^j) + top * x^(q-1) over coset
    leaders j, with a_j in the subfield of size p^o(j)."""

    __slots__ = ("ctx", "entries", "top_coeff")

    def __init__(self, ctx: FieldCtx, entries, top_coeff: int = 0) -> None:
        self.ctx = ctx
        self.entries = tuple(sorted(entries, key=lambda t: t[0]))
        self.top_coeff = top_coeff % ctx.p
        for j, a in self.entries:
            size = coset_size(j, ctx.p, ctx.order)
            if ctx.frobenius(a, size) != a:
                raise InternalInconsistency(
                    "coefficient at leader %d escapes its subfield" % j)

    def truth_table(self) -> PFunction:
        """One TraceForm evaluation: a_j x^j lies in F_{p^s} (s = o(j)), so
        Tr_s(a_j x^j) = Tr_n(u_s a_j x^j) for any u_s with Tr^n_s(u_s) = 1,
        and top * x^(q-1) = Tr_n(u_1 top x^(q-1))."""
        ctx = self.ctx
        terms = [(ctx.rel_trace_unit(coset_size(j, ctx.p, ctx.order)) * a, j)
                 for j, a in self.entries]
        if self.top_coeff:
            terms.append((ctx.rel_trace_unit(1).scale(self.top_coeff), ctx.q - 1))
        return TraceForm(ctx, terms).truth_table()

    def nonlinear_term_count(self) -> int:
        """Entries at leaders of p-weight >= 2 with nonzero coefficient."""
        n = sum(1 for j, a in self.entries if p_weight(j, self.ctx.p) >= 2)
        if self.top_coeff:
            n += 1
        return n

    def __repr__(self) -> str:
        return "RelativeTraceForm(%d entries, top=%d)" % (len(self.entries), self.top_coeff)


@lru_cache(maxsize=64)
def coset_leaders(p: int, modulus: int) -> tuple[int, ...]:
    """Leaders (minimal members) of the cyclotomic classes of p mod modulus."""
    seen = [False] * modulus
    leaders = []
    for e in range(modulus):
        if seen[e]:
            continue
        leaders.append(e)
        cur = e
        while True:
            seen[cur] = True
            cur = (cur * p) % modulus
            if cur == e:
                break
    return tuple(leaders)


def coset_size(e: int, p: int, modulus: int) -> int:
    size = 1
    cur = (e * p) % modulus
    while cur != e:
        size += 1
        cur = (cur * p) % modulus
    return size


def to_relative_trace_form(f: PFunction) -> RelativeTraceForm:
    """The relative trace form of f, interpolated at the coset leaders only.

    a_j = -sum_{x != 0} f(x) x^(-j) for a leader 0 < j < q-1, a_0 = f(0),
    and the top coefficient is -sum_x f(x).  The form is validated once, by
    re-evaluation.
    """
    ctx = f.ctx
    ctx.ensure_tables()
    p, n, order = ctx.p, ctx.n, ctx.order
    exp_t, vals = ctx.exp_table, f.values
    # each g^m packed as one int, a digit field of `width` bits per
    # coordinate, so that the sum over x adds coordinates without carries
    width = ((p - 1) ** 2 * order).bit_length()
    packed = [sum(c << (width * i) for i, c in enumerate(ctx.from_index(exp_t[m]).coeffs))
              for m in range(order)]
    mask = (1 << width) - 1
    live = [(m, vals[exp_t[m]]) for m in range(order) if vals[exp_t[m]]]
    entries = [(0, ctx.scalar(vals[0]))] if vals[0] else []
    for j in coset_leaders(p, order)[1:]:
        acc = sum(v * packed[(-j * m) % order] for m, v in live)
        a = ctx.elem([-((acc >> (width * i)) & mask) for i in range(n)])
        if not a.is_zero():
            entries.append((j, a))
    form = RelativeTraceForm(ctx, entries, -sum(vals))
    if form.truth_table().values != vals:
        raise InternalInconsistency("relative trace form failed to re-evaluate")
    return form


class ANF:
    """Multivariate coefficients indexed like truth tables: the coefficient
    of prod x_i^(e_i) sits at index sum e_i p^i."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs) -> None:
        self.ctx = ctx
        self.coeffs = [c % ctx.p for c in coeffs]
        if len(self.coeffs) != ctx.q:
            raise ValueError("ANF needs p^n coefficients")

    def degree(self) -> int:
        """The largest p-weight at a nonzero coefficient.  Index h*m + l, with
        m = p^(n//2), has weight wt(h) + wt(l), so two cached tables of about
        p^(n/2) weights serve each block of m coefficients.  One table of all
        p^n weights raised the peak RSS of repeated n = 12 analyses by 1.8 MB."""
        p, n, coeffs = self.ctx.p, self.ctx.n, self.coeffs
        low = _weights(p, n // 2)
        m = len(low)
        best = 0
        for h, high in enumerate(_weights(p, n - n // 2)):
            block = coeffs[h * m:(h + 1) * m]
            if any(block):
                best = max(best, high + max(compress(low, block)))
        return best

    def __eq__(self, other) -> bool:
        return (isinstance(other, ANF) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return "ANF(p=%d, n=%d, deg=%d)" % (self.ctx.p, self.ctx.n, self.degree())


@lru_cache(maxsize=16)
def _vandermonde(p: int, inverse: bool) -> tuple:
    """[t^e] over F_p (rows t, columns e), or its inverse, as row tuples.
    The inverse is the interpolation formula c_0 = f(0) and, for e >= 1,
    c_e = -sum_t t^(p-1-e) f(t) with 0^0 = 1."""
    if inverse:
        return ((1,) + (0,) * (p - 1),) + tuple(
            tuple(-pow(t, p - 1 - e, p) % p for t in range(p)) for e in range(1, p))
    return tuple(tuple(pow(t, e, p) for e in range(p)) for t in range(p))


@lru_cache(maxsize=16)
def _weights(p: int, n: int) -> array:
    """The p-weight of every index below p^n, built one top digit at a time."""
    weights = [0]
    for _ in range(n):
        weights = [w + t for t in range(p) for w in weights]
    return array(lane_typecode(n * (p - 1)), weights)


def truth_to_anf(f: PFunction) -> ANF:
    ctx = f.ctx
    return ANF(ctx, lane_passes(f.values, ctx.p, ctx.n, _vandermonde(ctx.p, True)))


def anf_to_truth(a: ANF) -> PFunction:
    ctx = a.ctx
    return PFunction(ctx, lane_passes(a.coeffs, ctx.p, ctx.n, _vandermonde(ctx.p, False)))


# -- the function-spec grammar ----------------------------------------------------

_COEFF = r"g\^[0-9]+|[0-9]+"
# one term: its sign, its coefficient g^M or integer (omitted: 1), x, its exponent (omitted: 1)
_TERM_RE = re.compile(r"([+-]?)(?:(%s)\*?)?x(?:\^([0-9]+))?" % _COEFF)
# Tr(terms) and a +c or -c tail; `match` stops where the longest valid prefix ends
_SPEC_RE = re.compile(r"Tr\((?P<terms>(?:%s(?=[-+)]))*)(?P<close>\)(?P<const>[+-][0-9]+)?)?"
                      % _TERM_RE.pattern)


def parse_coeff(ctx: FieldCtx, token: str) -> FFElem:
    """A coefficient of the spec grammars: g^M, a power of the context's
    primitive element, or a prime-field scalar -?[0-9]+ (ASCII digits)."""
    if not re.fullmatch(_COEFF + "|-[0-9]+", token):
        raise ParseError("coefficient %r is neither an integer nor g^<integer>" % token)
    if token.startswith("g^"):
        return ctx.gen_power(parse_int(token[2:]))
    return ctx.scalar(parse_int(token))


def parse_function_spec(text: str, max_points: int | None = None):
    """Parse "p=3 n=6 f=Tr(g^7*x^98)" into (FieldCtx, TraceForm).

    With whitespace removed, the text after f= matches `_SPEC_RE`: Tr(, the
    terms of `_TERM_RE` ([sign][coef[*]]x[^E]), each followed by a sign or
    ")", the ")" and an optional +c or -c (module docstring).  Even p is
    refused with PreconditionError.  With max_points, a field of more
    elements, or above the exp/log table cap, is refused (BudgetError)
    before it is built.  Every integer goes through `gf.parse_int`.
    """
    at = text.find("f=")
    if at < 0:
        raise ParseError("missing 'f=' in %r" % text)
    ctx = parse_field_spec(text[:at], max_points)
    if ctx.p % 2 == 0:
        raise PreconditionError(
            "p=%d: functions are analyzed for odd p only (the Gauss-sum unit "
            "class and the bent normal form assume it)" % ctx.p)
    body = re.sub(r"\s+", "", text[at + 2:])
    m = _SPEC_RE.match(body)
    if not (m and m["close"] and m.end() == len(body)):
        pos = m.end() if m else 0
        raise ParseError("bad function at position %d after f= (spaces removed), at %r: "
                         "expected Tr(terms) and an optional +c or -c" % (pos, body[pos:pos + 20]))
    terms = []
    for sign, coef, exp in _TERM_RE.findall(m["terms"]):
        coeff = parse_coeff(ctx, coef) if coef else ctx.one()
        terms.append((coeff.scale(-1) if sign == "-" else coeff, parse_int(exp) if exp else 1))
    constant = parse_int(m["const"].lstrip("+")) if m["const"] else 0
    return ctx, TraceForm(ctx, terms, constant)
