"""Output checks of the benchmark, run outside the timed phase.

Each checker takes one parsed command report and returns a list of
problems (empty when the report passes).  A report is never compared with
a stored copy of an earlier output: it is checked against a property the
method must have, or recomputed by another path than the one the command
took.  The truth tables come from `TraceForm.truth_table`; everything else
(field addition, bilinear-form rank, derivatives, |W|^2, direct Walsh sums
through `single_walsh_value`, closed forms through
`trinomial_closed_form_walsh`) bypasses the fast transform, the spectrum
classes and the ANF that the commands use.
"""

from __future__ import annotations

import random

P = 3
SAMPLED_PAIRS = 10000          # wr_identity_check's default sample size
EXHAUSTIVE_PAIR_LIMIT = 3 ** 8
WALSH_POINTS = 3               # direct sums per bent report
WITNESS_POINTS = 6             # second derivatives per certify report
SEARCH_LIMIT = 64              # seeded tries for sign pairs and derivative sets


# -- field arithmetic on element indexes (digits are polynomial coefficients)

def add_index(i: int, j: int, p: int = P) -> int:
    out, mult = 0, 1
    while i or j:
        i, a = divmod(i, p)
        j, b = divmod(j, p)
        out += (a + b) % p * mult
        mult *= p
    return out


def neg_index(i: int, p: int = P) -> int:
    out, mult = 0, 1
    while i:
        i, a = divmod(i, p)
        out += (-a) % p * mult
        mult *= p
    return out


def shift(q: int, a: int) -> list[int]:
    """x -> index(x + a) over the whole field."""
    return [add_index(x, a) for x in range(q)]


def rank_mod_p(rows: list[list[int]], p: int = P):
    """(rank, one kernel vector or None) of a square matrix over F_p."""
    m = [list(r) for r in rows]
    n = len(m)
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(n):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if r == n:
        return r, None
    free = next(c for c in range(n) if c not in pivots)
    vec = [0] * n
    vec[free] = 1
    for row, c in enumerate(pivots):
        vec[c] = (-m[row][free]) % p
    return r, vec


def bilinear_rank(values: list[int], n: int):
    """Rank of B(x, y) = f(x+y) - f(x) - f(y) + f(0) on the coordinate
    basis, and a radical direction (as an index) when it is degenerate."""
    basis = [P ** i for i in range(n)]
    f0 = values[0]
    mat = [[(values[add_index(bi, bj)] - values[bi] - values[bj] + f0) % P
            for bj in basis] for bi in basis]
    rank, vec = rank_mod_p(mat)
    radical = None if vec is None else sum(c * b for c, b in zip(vec, basis))
    return rank, radical


def derivative_counts(values: list[int], a: int) -> list[int]:
    q = len(values)
    counts = [0] * P
    for x, xa in enumerate(shift(q, a)):
        counts[(values[xa] - values[x]) % P] += 1
    return counts


def norm_sq(coords) -> int:
    """|u + v w|^2 = u^2 - uv + v^2 for p = 3."""
    u, v = coords
    return u * u - u * v + v * v


def unit_power(coords, mag: int):
    """(s, j) with value = s * mag * w^j, or None."""
    for j, unit in enumerate(((1, 0), (0, 1), (-1, -1))):
        for s in (1, -1):
            if coords == (s * mag * unit[0], s * mag * unit[1]):
                return s, j
    return None


# -- the checks -------------------------------------------------------------

def check_shape(analysis: dict, n: int) -> list[str]:
    out = []
    if analysis.get("p") != P or analysis.get("n") != n:
        out.append("report is for p=%s n=%s, expected p=3 n=%d"
                   % (analysis.get("p"), analysis.get("n"), n))
    variant = analysis.get("classification", {}).get("variant")
    if analysis.get("bent") != (variant != "not_bent"):
        out.append("bent=%s disagrees with variant %s" % (analysis.get("bent"), variant))
    return out


def check_bent_report(analysis: dict, ctx, values: list[int], rng, pb,
                      points: int = WALSH_POINTS) -> list[str]:
    """A report that says bent: sign histogram sums to q, its shape matches
    the variant, and direct O(q) sums at `points` seeded points have
    |W|^2 = q."""
    out = []
    q = len(values)
    hist = analysis.get("sign_histogram", {})
    if hist.get("plus", 0) + hist.get("minus", 0) != q:
        out.append("sign histogram %s does not sum to %d" % (hist, q))
    variant = analysis["classification"]["variant"]
    one_sided = min(hist.get("plus", 0), hist.get("minus", 0)) == 0
    if one_sided != (variant in ("regular", "weakly_regular")):
        out.append("sign histogram %s does not fit variant %s" % (hist, variant))
    f = pb.PFunction(ctx, values)
    for _ in range(points):
        y = rng.randrange(q)
        w = pb.single_walsh_value(f, y).coords
        if norm_sq(w) != q:
            out.append("direct sum at y=%d has |W|^2=%d, not %d" % (y, norm_sq(w), q))
    return out


def check_trinomial_family(analysis: dict) -> list[str]:
    """Every member of the family is bent, non-weakly-regular and cubic."""
    out = []
    variant = analysis["classification"]["variant"]
    if variant != "non_weakly_regular":
        out.append("trinomial reported %s, not non_weakly_regular" % variant)
    if analysis.get("algebraic_degree") != 3:
        out.append("trinomial reported degree %s, not 3" % analysis.get("algebraic_degree"))
    return out


def check_quadratic(analysis: dict, values: list[int], n: int) -> list[str]:
    """Bent exactly when the bilinear form has rank n; bent quadratics are
    (weakly) regular with a quadratic dual."""
    out = []
    rank, radical = bilinear_rank(values, n)
    expect_degree = 2 if rank else 0
    if analysis.get("algebraic_degree") != expect_degree:
        out.append("quadratic of form rank %d reported degree %s"
                   % (rank, analysis.get("algebraic_degree")))
    if analysis["bent"] != (rank == n):
        out.append("form rank %d/%d but reported bent=%s" % (rank, n, analysis["bent"]))
    if rank == n and analysis["bent"]:
        variant = analysis["classification"]["variant"]
        if variant not in ("regular", "weakly_regular"):
            out.append("bent quadratic reported %s" % variant)
        if analysis.get("dual_degree") != 2:
            out.append("bent quadratic reported dual degree %s" % analysis.get("dual_degree"))
    if radical is not None and max(derivative_counts(values, radical)) != len(values):
        out.append("radical direction %d does not give a constant derivative" % radical)
    return out


def check_not_bent(values: list[int]) -> list[str]:
    """A function is bent iff every nonzero-direction derivative is
    balanced, so a non-bent report needs an unbalanced one."""
    q = len(values)
    for a in range(1, q):
        if any(c != q // P for c in derivative_counts(values, a)):
            return []
    return ["reported not bent, but every derivative is balanced"]


def check_certify(analysis: dict, values: list[int], rng) -> list[str]:
    out = []
    q = len(values)
    cl = analysis.get("cubic_like")
    if cl is None:
        return ["certify report has no cubic_like section"]
    bent = analysis["bent"]
    if cl["complete"] and not bent:
        out.append("complete cubic-like certificate on a function reported not bent")
    if cl["complete"] and cl["witness_count"] != q - 1:
        out.append("complete certificate with %d witnesses, not %d" % (cl["witness_count"], q - 1))
    if bent and analysis.get("algebraic_degree", 99) <= 3 and not cl["complete"]:
        out.append("bent of degree <= 3 without a complete cubic-like certificate")
    if len(cl["witnesses"]) != cl["witness_count"]:
        out.append("witness_count %d but %d witnesses listed"
                   % (cl["witness_count"], len(cl["witnesses"])))
    keys = sorted(cl["witnesses"], key=int)
    for a_key in rng.sample(keys, min(WITNESS_POINTS, len(keys))):
        a = int(a_key)
        b, c = cl["witnesses"][a_key]
        if not c % P:
            out.append("witness %d -> %d has constant 0" % (a, b))
            continue
        ab = add_index(a, b)
        for x in range(q):
            dd = (values[add_index(x, ab)] - values[add_index(x, a)]
                  - values[add_index(x, b)] + values[x]) % P
            if dd != c % P:
                out.append("D_%d D_%d f(%d) = %d, witness says %d" % (a, b, x, dd, c))
                break
    wr = analysis.get("wr_identities")
    if bent != (wr is not None):
        out.append("identity battery present=%s on bent=%s" % (wr is not None, bent))
    if wr is not None:
        exhaustive = q * q <= EXHAUSTIVE_PAIR_LIMIT
        pairs = q * q if exhaustive else SAMPLED_PAIRS
        if wr["pairs_checked"] != pairs or wr["exhaustive"] != exhaustive:
            out.append("battery checked %d pairs (exhaustive=%s), expected %d (%s)"
                       % (wr["pairs_checked"], wr["exhaustive"], pairs, exhaustive))
        if wr["sound_violation_count"] > wr["violation_count"]:
            out.append("more sound violations than violations")
        variant = analysis["classification"]["variant"]
        if variant in ("regular", "weakly_regular") and wr["sound_violation_count"]:
            out.append("%d sound violations on a %s function"
                       % (wr["sound_violation_count"], variant))
    return out


def check_closed_form(analysis: dict, values: list[int], params: tuple, rng,
                      min_dual_degree: int, pb) -> list[str]:
    """Trinomial with a closed-form spectrum (k odd, j in {0, 2k},
    t = (3^k-1)/2): closed form against direct sums, non-weak-regularity
    from two closed-form values of opposite sign, and a nonzero
    D-fold derivative of the closed-form dual for the reported degree D."""
    out = []
    tp = pb.TrinomialParams(*params)
    ctx = tp.context()
    q, n = ctx.q, ctx.n
    mag = P ** (n // 2)
    f = pb.PFunction(ctx, values)

    def dual_and_sign(y: int):
        # closed form gives W_f(-y)
        w = pb.trinomial_closed_form_walsh(tp, ctx.from_index(neg_index(y)), ctx).coords
        return unit_power(w, mag), w

    for _ in range(WALSH_POINTS):
        y = rng.randrange(q)
        rec, w = dual_and_sign(y)
        direct = pb.single_walsh_value(f, y).coords
        if rec is None or direct != w:
            out.append("closed form %s != direct sum %s at y=%d" % (w, direct, y))
    signs = {}
    for _ in range(SEARCH_LIMIT):
        y = rng.randrange(q)
        rec, _w = dual_and_sign(y)
        if rec is None:
            out.append("closed form at y=%d is not +-3^%d w^j" % (y, n // 2))
            break
        signs.setdefault(rec[0], y)
        if len(signs) == 2:
            break
    if len(signs) != 2:
        out.append("no two closed-form values of opposite sign in %d points" % SEARCH_LIMIT)
    degree = analysis.get("dual_degree")
    if not isinstance(degree, int) or degree < min_dual_degree:
        out.append("dual degree %s below %d" % (degree, min_dual_degree))
        return out
    for _ in range(SEARCH_LIMIT):
        dirs = [rng.randrange(1, q) for _ in range(degree)]
        total = 0
        for mask in range(1 << degree):
            z = 0
            for i, d in enumerate(dirs):
                if mask >> i & 1:
                    z = add_index(z, d)
            rec, _w = dual_and_sign(z)
            if rec is None:
                return out + ["closed form at y=%d is not +-3^%d w^j" % (z, n // 2)]
            total += (-1) ** (degree - bin(mask).count("1")) * rec[1]
        if total % P:
            return out
    out.append("no nonzero %d-fold derivative of the dual in %d direction sets"
               % (degree, SEARCH_LIMIT))
    return out


def truth_table(op, pb):
    """(field context, truth table) of the command's input function."""
    if op.params is not None:
        tp = pb.TrinomialParams(*op.params)
        tf = pb.trinomial_bent(tp, tp.context())
    else:
        tf = pb.parse_function_spec(op.spec)[1]
    return tf.ctx, tf.truth_table().values


def check_op(op, analysis: dict, rng: random.Random, pb, min_dual_degree: int = 0) -> list[str]:
    """All checks that apply to one command's report."""
    problems = check_shape(analysis, op.n)
    if problems:
        return problems
    ctx, values = truth_table(op, pb)
    if op.kind == "trinomial":
        problems += check_trinomial_family(analysis)
    if op.kind == "quadratic":
        problems += check_quadratic(analysis, values, op.n)
    if analysis["bent"]:
        # the closed-form check makes its own direct sums
        points = 0 if min_dual_degree else WALSH_POINTS
        problems += check_bent_report(analysis, ctx, values, rng, pb, points)
    elif op.kind != "quadratic":
        problems += check_not_bent(values)
    if op.certify:
        problems += check_certify(analysis, values, rng)
    if min_dual_degree:
        problems += check_closed_form(analysis, values, op.params, rng, min_dual_degree, pb)
    return problems
