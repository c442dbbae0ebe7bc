"""Seeded checks of the paper's claims, run by the CLI's property-suite.

Part 1: the derivative criteria of bentness agree with the spectrum, a
function of degree <= 3 is bent iff cubic-like, a quadratic is balanced
iff it has a balance witness, a weakly regular function satisfies the dual
phase identity (a trinomial violates it), and a weakly regular quadratic's
dual has balanced derivatives.  Part 2: the cubic trinomials are bent and
not weakly regular, their second-derivative lemmas hold, and their Walsh
values have the closed form.  With them: classification is invariant
under affine additions, the sporadic table reproduces, and the
Maiorana-McFarland special form is bent.  Each check returns (passed,
detail); quick level trims sample sizes, full level runs the documented
counts.
"""

from __future__ import annotations

import itertools
import random

from .catalog import list_catalog, verify_entry
from .constructions import (TrinomialParams, linearized_second_derivative_coeff,
                            mm_special_form, trinomial_bent,
                            trinomial_closed_form_walsh,
                            trinomial_first_derivative_form)
from .derivanalysis import (_trilinear_form, _trilinear_slice,
                            cubic_like_certificate, derivative_linear_space,
                            quadratic_balance_witness, wr_identity_check)
from .errors import ParseError
from .funcrep import ANF, PFunction, TraceForm, anf_to_truth, p_weight
from .gf import get_field
from .linalg import mat_kernel
from .walsh import (bent_via_derivatives, bent_via_second_derivative_sum,
                    classify, extract_certificate, is_bent, walsh_fast,
                    walsh_naive)


def _random_function(ctx, rng):
    return PFunction(ctx, [rng.randrange(ctx.p) for _ in range(ctx.q)])


def check_criteria_agreement(seed, level):
    rng = random.Random(seed)
    ctx = get_field(3, 2)
    trials = 40 if level == "quick" else 200
    for _ in range(trials):
        f = _random_function(ctx, rng)
        spectral = is_bent(walsh_fast(f))
        if spectral != bent_via_derivatives(f):
            return False, "derivative criterion disagrees"
        if spectral != bent_via_second_derivative_sum(f):
            return False, "second-derivative sum criterion disagrees"
    return True, "%d random functions, three criteria agree" % trials


def check_cubic_like(seed, level):
    rng = random.Random(seed)
    ctx = get_field(3, 3)
    trials = 30 if level == "quick" else 200
    for _ in range(trials):
        coeffs = [0] * ctx.q
        for i in range(ctx.q):
            if p_weight(i, 3) <= 3:
                coeffs[i] = rng.randrange(3)
        f = anf_to_truth(ANF(ctx, coeffs))
        if f.algebraic_degree() > 3:
            return False, "generator produced degree > 3"
        cert = cubic_like_certificate(f)
        if cert.complete != is_bent(walsh_fast(f)):
            return False, "cubic-like certificate disagrees with spectrum"
    return True, "certificate completeness iff bent on %d low-degree functions" % trials


def check_quadratic_balance(seed, level):
    ctx = get_field(3, 2)
    monomials = [0, 1, 3, 2, 6, 4]  # 1, x1, x2, x1^2, x2^2, x1x2
    count = 0
    for code, digs in enumerate(itertools.product(range(3), repeat=6)):  # top digit first
        coeffs = [0] * 9
        for mono, c in zip(reversed(monomials), digs):
            coeffs[mono] = c
        f = anf_to_truth(ANF(ctx, coeffs))
        witness = quadratic_balance_witness(f)
        if f.is_balanced() != (witness is not None):
            return False, "biconditional failed at pattern %d" % code
        count += 1
    return True, "exhaustive over %d quadratic patterns" % count


def check_classification_ea_invariance(seed, level):
    rng = random.Random(seed)
    ctx = get_field(3, 4)
    params = TrinomialParams(1, 2, 1)
    tctx = params.context()
    funcs = [(ctx, TraceForm(ctx, [(ctx.one(), 2)]).truth_table()),
             (tctx, trinomial_bent(params, tctx).truth_table())]
    for fctx, f in funcs:
        want = classify(f).variant
        for _ in range(3 if level == "quick" else 10):
            c = fctx.from_index(rng.randrange(fctx.q))
            const = rng.randrange(3)
            lin = TraceForm(fctx, [(c, 1)], const).truth_table()
            if classify(f + lin).variant != want:
                return False, "affine addition changed the classification"
    return True, "classification invariant under affine additions"


def check_wr_sound_identity(seed, level):
    ctx = get_field(3, 4)
    quad = TraceForm(ctx, [(ctx.one(), 2)]).truth_table()
    rep = wr_identity_check(quad)
    if not rep.sound_clean:
        return False, "dual-phase identity violated for a weakly regular function"
    f = trinomial_bent(TrinomialParams(1, 2, 1)).truth_table()
    rep2 = wr_identity_check(f)
    if rep2.sound_clean:
        return False, "trinomial produced no sound violations"
    return True, "dual-phase identity clean on weakly regular, violated on trinomial"


def check_trinomial_family(seed, level):
    cases = [(1, 0, 1), (1, 2, 1)] if level == "quick" else [(1, 0, 1), (1, 2, 1), (1, 0, 3), (2, 1, 1)]
    for k, j, t in cases:
        params = TrinomialParams(k, j, t)
        f = trinomial_bent(params).truth_table()
        if f.algebraic_degree() != 3:
            return False, "degree != 3 at %s" % (params,)
        cls = classify(f)
        if cls.variant != "non_weakly_regular":
            return False, "classification %s at %s" % (cls, params)
    return True, "%d instances all cubic and non-weakly regular" % len(cases)


def check_trinomial_second_derivatives(seed, level):
    """The second proof's lemmas on seeded directions c: ker T(c, ., .) of
    the trilinear form equals ker L_c (by `mat_kernel`),
    the symbolic D_c f equals the generic derivative, and E_f = {0}."""
    rng = random.Random(seed)
    cases = [(1, 2, 1)] if level == "quick" else [(1, 2, 1), (2, 1, 1)]
    for k, j, t in cases:
        params = TrinomialParams(k, j, t)
        ctx = params.context()
        p, n = ctx.p, ctx.n
        f = trinomial_bent(params, ctx).truth_table()
        tri = _trilinear_form(f)
        basis = [ctx.from_index(p ** i) for i in range(n)]
        for c_idx in rng.sample(range(1, ctx.q), 20):
            c = ctx.from_index(c_idx)
            # L_c is F_p-linear: its matrix has columns L_c(e_i) on the polynomial basis
            cols = [linearized_second_derivative_coeff(params, c, e).coeffs for e in basis]
            if mat_kernel(_trilinear_slice(tri, c_idx, p), p) != mat_kernel(list(zip(*cols)), p):
                return False, "ker T(c, ., .) != ker L_c at %s, c=%d" % (params, c_idx)
            if trinomial_first_derivative_form(params, c).truth_table() != f.derivative(c):
                return False, "symbolic D_c f mismatch at %s, c=%d" % (params, c_idx)
        if derivative_linear_space(f) != [ctx.zero()]:
            return False, "E_f != {0} at %s" % (params,)
    names = ", ".join("(%d,%d,%d)" % case for case in cases)
    return True, "ker T = ker L_c and symbolic D_c f on 20 directions, E_f = {0}: %s" % names


def check_closed_forms(seed, level):
    for j in (0, 2):
        params = TrinomialParams(1, j, 1)
        ctx = params.context()
        f = trinomial_bent(params, ctx).truth_table()
        spec = walsh_naive(f).coords
        for idx in range(ctx.q):
            got = trinomial_closed_form_walsh(params, ctx.from_index(idx))
            if got.coords != spec[ctx.neg_table[idx]]:
                return False, "closed form mismatch at j=%d idx=%d" % (j, idx)
    return True, "all 81 points for j in {0, 2}"


def check_catalog(seed, level):
    for entry in list_catalog():
        if verify_entry(entry)["status"] == "mismatch":
            return False, "catalog entry %s mismatched" % entry.label
    return True, "all catalog entries verify under their pinned realization"


def check_mm_form(seed, level):
    ctx1 = get_field(3, 1)
    g = PFunction(ctx1, [0, 1, 1])
    h = PFunction(ctx1, [0, 2, 2])
    count = 0
    for pi in itertools.permutations(range(3)):
        for slices in ((g, g, g), (g, h, g)):
            f, rep = mm_special_form(slices, pi)
            if not is_bent(walsh_fast(f)):
                return False, "special form output not bent for pi=%s" % (pi,)
            count += 1
    return True, "special-form outputs bent for all %d slice/permutation combos" % count


def check_dual_balance(seed, level):
    ctx = get_field(3, 4)
    f = TraceForm(ctx, [(ctx.one(), 2)]).truth_table()
    dual = extract_certificate(walsh_fast(f)).dual
    for b in range(1, ctx.q):
        if not dual.derivative(ctx.from_index(b)).is_balanced():
            return False, "dual derivative unbalanced at %d" % b
    return True, "dual derivatives balanced in all 80 nonzero directions"


ALL_CHECKS = [
    ("criteria_agreement", check_criteria_agreement),
    ("cubic_like_certificates", check_cubic_like),
    ("quadratic_balance_biconditional", check_quadratic_balance),
    ("classification_ea_invariance", check_classification_ea_invariance),
    ("wr_sound_identity", check_wr_sound_identity),
    ("trinomial_family", check_trinomial_family),
    ("trinomial_second_derivatives", check_trinomial_second_derivatives),
    ("trinomial_closed_forms", check_closed_forms),
    ("catalog", check_catalog),
    ("mm_special_form", check_mm_form),
    ("dual_derivative_balance", check_dual_balance),
]


def run_suite(seed: int = 0, level: str = "quick", names=None) -> list[dict]:
    """Run the batteries (all when `names` is None, else those in `names`)
    in canonical order;
    returns one record per check.  An unknown name is a ParseError."""
    unknown = sorted(set(names or ()) - {name for name, _ in ALL_CHECKS})
    if unknown:
        raise ParseError("unknown check name(s): %s" % ", ".join(map(repr, unknown)))
    out = []
    for name, fn in ALL_CHECKS:
        if names is not None and name not in names:
            continue
        try:
            passed, detail = fn(seed, level)
        except Exception as exc:  # a crash is a failure with its message
            passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
        out.append({"name": name, "passed": passed, "detail": detail})
    return out
