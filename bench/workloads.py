"""Seeded inputs of the benchmark workloads.

A workload is one round of pbent CLI commands (argv lists) plus the fields
its set-up builds.  The round is a pure function of (workload, seed, smoke):
the seed picks coefficients, exponents, command order and the --seed of each
certify command, while the make-up of a round (how many commands of each
kind and size) is fixed, so rounds of different seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

P = 3


@dataclass(frozen=True)
class Op:
    """One pbent command and what its checker needs to know about it."""

    kind: str                 # trinomial, quadratic, sparse, binomial, sporadic
    argv: tuple
    n: int
    spec: str | None = None   # function spec of `analyze` commands
    params: tuple | None = None  # (k, j, t) of `construct trinomial` commands
    certify: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple                # one round, in execution order
    fields: tuple             # ("spec", n) or ("trinomial", (k, j, t)), built at set-up
    setup_repeats: int
    # trinomial_n12: lower bound the reported dual degree must reach
    min_dual_degree: int = 0


def _spec(n: int, terms) -> str:
    body = "+".join("g^%d*x^%d" % (m, e) for m, e in terms)
    return "p=%d n=%d f=Tr(%s)" % (P, n, body)


def _p_weight(e: int) -> int:
    w = 0
    while e:
        e, r = divmod(e, P)
        w += r
    return w


def _analyze(kind: str, n: int, spec: str, certify: bool = False,
             cmd_seed: int | None = None) -> Op:
    argv = ["analyze", spec]
    if certify:
        argv += ["--certify", "--seed", str(cmd_seed)]
    return Op(kind, tuple(argv), n, spec=spec, certify=certify)


def _trinomial(k: int, j: int, t: int, certify: bool = False,
               cmd_seed: int | None = None) -> Op:
    argv = ["construct", "trinomial", "--k", str(k), "--j", str(j), "--t", str(t),
            "--analyze"]
    if certify:
        argv += ["--certify", "--seed", str(cmd_seed)]
    return Op("trinomial", tuple(argv), 4 * k, params=(k, j, t), certify=certify)


def trinomial_members(k: int):
    """Every (j, t) of the family at this k: j in [0, 4k) of the parity
    the family needs, t odd and below 2(3^k - 1), the multiplicative order
    of zeta^((3^k+1)/2), so each t gives a distinct b."""
    js = [j for j in range(4 * k) if j % 2 != k % 2]
    return [(j, t) for j in js for t in range(1, 2 * (3 ** k - 1), 2)]


def classify_n8(seed: int, smoke: bool = False) -> Workload:
    """analyze and construct --analyze, no --certify, at n = 8 (n = 4 in smoke)."""
    k = 1 if smoke else 2
    n = 4 * k
    q = P ** n
    rng = random.Random("classify:%d" % seed)
    ops = [_trinomial(k, j, t) for j, t in trinomial_members(k)]
    # quadratic forms Tr(g^m x^(3^i+1)), one per seeded i
    for i in rng.sample(range(n), 4):
        ops.append(_analyze("quadratic", n, _spec(n, [(rng.randrange(q - 1), P ** i + 1)])))
    # sparse random trace forms of 2-3 terms with exponents of p-weight >= 3
    for _ in range(4):
        terms = []
        for _ in range(rng.choice((2, 3))):
            e = rng.randrange(1, q - 1)
            while _p_weight(e) < 3:
                e = rng.randrange(1, q - 1)
            terms.append((rng.randrange(q - 1), e))
        ops.append(_analyze("sparse", n, _spec(n, terms)))
    rng.shuffle(ops)
    return Workload("classify_n8", tuple(ops), (("spec", n),), setup_repeats=9)


def certify_n4_6(seed: int, smoke: bool = False) -> Workload:
    """analyze --certify and construct --analyze --certify on bent inputs.

    Quadratics are drawn only from Tr(a x^(3^i+1)) with n / gcd(i, n) odd
    (i = 0 included), which is bent for every a != 0.
    """
    rng = random.Random("certify:%d" % seed)

    def cs():
        return rng.randrange(1 << 30)

    ops = [_trinomial(1, j, t, certify=True, cmd_seed=cs())
           for j, t in trinomial_members(1)]
    ops.append(_analyze("binomial", 4, "p=3 n=4 f=Tr(x^34+x^2)", True, cs()))
    ops.append(_analyze("sporadic", 4, "p=3 n=4 f=Tr(x^4+g^10*x^22)", True, cs()))
    for m in rng.sample(range(80), 6):
        ops.append(_analyze("quadratic", 4, _spec(4, [(m, 2)]), True, cs()))
    sizes = [(3, (0, 1, 2))] if smoke else [(5, (0, 1, 2, 3, 4)), (6, (0, 2, 4))]
    for n, odd_cofactor_is in sizes:
        i = rng.choice(odd_cofactor_is)
        spec = _spec(n, [(rng.randrange(P ** n - 1), P ** i + 1)])
        ops.append(_analyze("quadratic", n, spec, True, cs()))
    rng.shuffle(ops)
    fields = (("trinomial", (1, 0, 1)), ("spec", 4)) + tuple(("spec", n) for n, _ in sizes)
    return Workload("certify_n4_6", tuple(ops), fields, setup_repeats=9)


def trinomial_n12(seed: int, smoke: bool = False) -> Workload:
    """construct trinomial --k 3 --j 6 --t 13 --analyze (k = 1 in smoke).

    The command does not depend on the seed; the seed picks the points of
    the output checks.  The n = 12 set-up builds tables of 531,441 entries
    and is timed once per run, not five times.
    """
    params = (1, 2, 1) if smoke else (3, 6, 13)
    ops = (_trinomial(*params),)
    return Workload("trinomial_n12", ops, (("trinomial", params),),
                    setup_repeats=1 if not smoke else 2,
                    min_dual_degree=4 if smoke else 8)


WORKLOADS = {
    "classify_n8": classify_n8,
    "certify_n4_6": certify_n4_6,
    "trinomial_n12": trinomial_n12,
}
