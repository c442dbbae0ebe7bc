"""Second-order-derivative certificates and weakly-regular first-derivative
identity checks.

A function is "cubic-like bent" when every nonzero direction a admits a b
with D_{a,b} f a nonzero constant; this implies bentness, and for functions
of degree <= 3 it is equivalent to it.  For such functions the witness
search is linear algebra on the trilinear form T(a, b, x) = D_a D_b D_x
f(0), built once per function: D_a D_b f(x) = D_a D_b f(0) + T(a, b, x),
so the b with D_{a,b} f constant are the kernel of T(a, ., .), on which
b -> D_a D_b f(0) is linear, and a reduced kernel basis yields the first
witness in index order without enumerating the kernel.

One scan, `_constant_derivatives(g)`, finds every b with D_b g constant,
reading x + b point by point so that a direction is dropped at its first
failing point.  Run on g = D_a f it is the exact oracle for the
trilinear-form path and the path for degree > 3; run on g = f it gives the
linear space E_f and the balance witness of a quadratic.

The weakly-regular identity battery checks, per direction pair (b, c),
over all pairs when p^2n <= 3^8 and a seeded sample otherwise: symmetry of
W_{D_c f} in b and c negation, the phase identity against the dual's
derivative transform, vanishing whenever Tr(bc) != 0, and realness on
Tr(bc) = 0.  It reads -b from a negation table built once per battery and
Tr(bc) from the trace-of-exp table at log b + log c, with no field product
per pair.  Weak regularity implies only the phase identity, so only its
violations certify that a bent function is NOT weakly regular; the
symmetry and vanishing checks carry over from characteristic 2 and fail
already on quadratic bent functions.
"""

from __future__ import annotations

import functools
import itertools
import random

from .cyclo import conj_coords, rotate_coords
from .errors import PreconditionError
from .funcrep import PFunction
from .gf import FFElem
from .linalg import mat_kernel
from .walsh import extract_certificate, is_bent, walsh_fast

EXHAUSTIVE_PAIR_LIMIT = 3 ** 8
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
    as n flattened n x n matrices T(e_i, ., .); T is symmetric."""
    p, n, add = f.ctx.p, f.ctx.n, f.ctx.add_index
    e = [p ** i for i in range(n)]
    tri = [[0] * (n * n) for _ in range(n)]
    for ijk in itertools.combinations_with_replacement(range(n), 3):
        val = 0
        for picks in itertools.product((0, 1), repeat=3):
            x = functools.reduce(add, (e[d] for pick, d in zip(picks, ijk) if pick), 0)
            val += (-1) ** (3 - sum(picks)) * f.values[x]
        for i, j, k in set(itertools.permutations(ijk)):
            tri[i][j * n + k] = val % p
    return tri


def _first_witness_low_degree(f: PFunction, tri: list, a_idx: int):
    """First b (canonical order) with D_{a,b} f a nonzero constant, for
    deg f <= 3: the first vector of the reduced basis of ker T(a, ., .)
    (`mat_kernel`) whose constant D_a D_b f(0) is nonzero."""
    p, n, vals = f.ctx.p, f.ctx.n, f.values
    acc = [0] * (n * n)
    x = a_idx
    for ti in tri:
        x, ai = divmod(x, p)
        if ai:
            acc = [m + ai * t for m, t in zip(acc, ti)]
    mat = [[v % p for v in acc[r:r + n]] for r in range(0, n * n, n)]
    for vec in mat_kernel(mat, p):
        b_idx = sum(c * p ** i for i, c in enumerate(vec))
        const = (vals[f.ctx.add_index(a_idx, b_idx)] - vals[b_idx]
                 - vals[a_idx] + vals[0]) % p
        if const:
            return b_idx, const
    return None


def _constant_derivatives(g: PFunction):
    """Yield (b, D_b g) in index order for every b where D_b g is constant.

    x + b is read point by point with `add_index`, so a direction is
    dropped at its first point where D_b g(x) != D_b g(0)."""
    ctx = g.ctx
    p, add, vals = ctx.p, ctx.add_index, g.values
    for b in range(ctx.q):
        const = (vals[b] - vals[0]) % p
        if all((vals[add(x, b)] - vals[x]) % p == const for x in range(1, ctx.q)):
            yield b, const


def _first_witness_scan(f: PFunction, a_idx: int):
    """The same witness by scanning every b: the exact oracle for
    `_first_witness_low_degree`, and the path for degree > 3."""
    g = f.derivative(f.ctx.from_index(a_idx))
    return next(((b, c) for b, c in _constant_derivatives(g) if c), None)


def cubic_like_certificate(f: PFunction) -> CubicLikeCertificate:
    """Search every nonzero direction for a constant-nonzero second
    derivative; complete certificates imply bentness."""
    tri = _trilinear_form(f) if f.algebraic_degree() <= 3 else None
    witnesses = {}
    complete = True
    for a_idx in range(1, f.ctx.q):
        hit = (_first_witness_low_degree(f, tri, a_idx) if tri is not None
               else _first_witness_scan(f, a_idx))
        if hit is None:
            complete = False
        else:
            witnesses[a_idx] = hit
    return CubicLikeCertificate(witnesses, complete)


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
    """Outcome of the weakly-regular first-derivative identity battery.

    Of the recorded checks, only the dual-phase identity
    W_{D_c f}(b) = w^Tr(bc) W_{D_b f*}(-c) is implied by weak regularity
    for odd p; its violations are therefore a sound certificate of
    non-weak-regularity.  The symmetry and vanishing checks are kept for
    completeness but fail already for quadratic bent functions, whose
    derivative transforms are one-point spikes at b = 2c (asymmetric, and
    supported on a point with Tr(bc) = 2 Tr(c^2) != 0 in general), so their
    violations prove nothing.  Realness on Tr(bc) = 0 holds on the
    quadratic and binomial baselines but is not proven to follow from weak
    regularity, so it is not counted as sound either.
    """

    __slots__ = ("pair_count", "violations", "exhaustive")

    SOUND_CHECKS = ("dual_phase_identity",)

    def __init__(self, pair_count: int, violations: list, exhaustive: bool) -> None:
        self.pair_count = pair_count
        self.violations = violations
        self.exhaustive = exhaustive

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def sound_violations(self) -> list:
        return [v for v in self.violations if v["check"] in self.SOUND_CHECKS]

    @property
    def sound_clean(self) -> bool:
        return not self.sound_violations

    def violations_by_check(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v["check"]] = out.get(v["check"], 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "pairs_checked": self.pair_count,
            "exhaustive": self.exhaustive,
            "violation_count": len(self.violations),
            "sound_violation_count": len(self.sound_violations),
            "violations_by_check": self.violations_by_check(),
            "violations": self.violations[:32],
        }

    def __repr__(self) -> str:
        return "WrIdentityReport(pairs=%d, violations=%d, sound=%d)" % (
            self.pair_count, len(self.violations), len(self.sound_violations))


def wr_identity_check(f: PFunction, seed: int = 0) -> WrIdentityReport:
    """Run the derivative-transform identity battery on a bent function.

    Violations of the checks in `WrIdentityReport.SOUND_CHECKS` certify
    non-weak-regularity; the other checks can fail on weakly regular
    functions too (see `WrIdentityReport`).

    Exhaustive over all (b, c) when p^2n <= 3^8, otherwise a seeded sample
    of `SAMPLED_PAIRS` pairs.
    """
    ctx = f.ctx
    p, q = ctx.p, ctx.q
    s = walsh_fast(f)
    if not is_bent(s):
        raise PreconditionError("wr_identity_check requires a bent function")
    fstar = extract_certificate(s).dual

    spec_c: dict[int, list] = {}
    spec_b: dict[int, list] = {}

    def deriv_spectrum(base: PFunction, idx: int, cache: dict) -> list:
        """Coordinate tuples of W_{D_idx base}, cached per direction."""
        if idx not in cache:
            cache[idx] = walsh_fast(base.derivative(ctx.from_index(idx))).coords
        return cache[idx]

    exhaustive = q * q <= EXHAUSTIVE_PAIR_LIMIT
    if exhaustive:
        pairs = [(b, c) for c in range(q) for b in range(q)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(SAMPLED_PAIRS)]
    neg = [ctx.neg_index(i) for i in range(q)]
    ctx.ensure_tables()
    log, trace_of_exp, order = ctx.log_table, ctx._trace_of_exp, ctx.order
    violations = []
    for b, c in pairs:
        wc = deriv_spectrum(f, c, spec_c)
        wcb = wc[b]
        if wcb != wc[neg[b]]:
            violations.append({"b": b, "c": c, "check": "symmetry_in_b"})
        wneg = deriv_spectrum(f, neg[c], spec_c)
        if wcb != wneg[b]:
            violations.append({"b": b, "c": c, "check": "symmetry_in_c"})
        tr = trace_of_exp[(log[b] + log[c]) % order] if b and c else 0
        wb = deriv_spectrum(fstar, b, spec_b)
        if wcb != rotate_coords(wb[neg[c]], tr, p):
            violations.append({"b": b, "c": c, "check": "dual_phase_identity"})
        if tr != 0:
            if any(wcb):
                violations.append({"b": b, "c": c, "check": "vanishing_on_nonzero_trace"})
        elif wcb != conj_coords(wcb, p):
            violations.append({"b": b, "c": c, "check": "realness"})
    return WrIdentityReport(len(pairs), violations, exhaustive)


def quad_like_implication_check(f: PFunction, c: FFElem, d: FFElem) -> bool:
    """Given D_{c,d} f = lambda != 0 (checked), verify W_{D_c f}(b) = 0 for
    every b with Tr(bd) != lambda."""
    ctx = f.ctx
    dd = f.second_derivative(c, d)
    lam = dd.values[0]
    if lam == 0 or any(v != lam for v in dd.values):
        raise PreconditionError("D_{c,d} f is not a nonzero constant")
    spec = walsh_fast(f.derivative(c))
    for b in range(ctx.q):
        if ctx.trace(ctx.from_index(b) * d) != lam and any(spec.coords[b]):
            return False
    return True
