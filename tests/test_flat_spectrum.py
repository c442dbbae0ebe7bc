"""The flat-coordinate spectrum path against the ring oracle.

`WalshSpectrum` recognizes the bent normal form by table lookup, and
decides Parseval from integer norm expressions on the coordinate tuples of
a spectrum that is not bent.  Here both are checked point by point against
the reference arithmetic of `ring_oracle` (norms, products with the Gauss
sum), on seeded random functions for p in {3, 5, 7} at even and odd n, and
the coordinate functions of `pbent.cyclo` against the same oracle.  A bent
spectrum, held by its codes, is checked against the direct sums.
"""

import random

import pytest

from pbent import derivanalysis
from pbent.constructions import TrinomialParams, trinomial_bent
from pbent.cyclo import (conj_coords, coords_from_counts, gauss_sum, mul_coords,
                         norm_coords, unit_power_forms)
from pbent.derivanalysis import wr_identity_check
from pbent.errors import InternalInconsistency, PreconditionError
from pbent.funcrep import PFunction, TraceForm
from pbent.gf import get_field
from pbent.walsh import (WalshSpectrum, extract_certificate, is_bent, single_walsh_value,
                         walsh_fast, walsh_naive)
from ring_oracle import Zw, gauss
from test_walsh import reconstruct

FIELDS = [(3, 4), (3, 5), (5, 2), (5, 3), (7, 1), (7, 2)]


def random_functions(ctx, rng):
    """A seeded random truth table (not bent in practice), two random
    quadratics Tr(a x^2) + Tr(c x) + e (bent), and at p = 3, n = 4 a
    trinomial-family member plus a random affine term (bent, not weakly
    regular)."""
    q = ctx.q
    out = [PFunction(ctx, [rng.randrange(ctx.p) for _ in range(q)])]
    for _ in range(2):
        a = ctx.from_index(rng.randrange(1, q))
        c = ctx.from_index(rng.randrange(q))
        out.append(TraceForm(ctx, [(a, 2), (c, 1)], rng.randrange(ctx.p)).truth_table())
    if (ctx.p, ctx.n) == (3, 4):
        tri = trinomial_bent(TrinomialParams(1, 2, 1), ctx).truth_table()
        c = ctx.from_index(rng.randrange(q))
        out.append(tri + TraceForm(ctx, [(c, 1)]).truth_table())
    return out


def oracle_bent(s):
    ctx = s.ctx
    target = Zw.integer(ctx.p, ctx.q)
    return all(Zw(ctx.p, c).norm_sq() == target for c in s.coords)


def oracle_form(v, p, n, sign, j):
    """v matches s * unit * p^(n/2) * w^j, by oracle products alone."""
    if n % 2 == 0:
        return v == Zw.omega_pow(p, j) * (sign * p ** (n // 2))
    return v * gauss(p).conj() == Zw.omega_pow(p, j) * (sign * p ** ((n + 1) // 2))


@pytest.mark.parametrize("p,n", FIELDS)
def test_flat_path_matches_cycint_oracle(p, n):
    ctx = get_field(p, n)
    rng = random.Random(1000 * p + n)
    kinds = []
    for f in random_functions(ctx, rng):
        s = walsh_fast(f)
        assert s.coords == walsh_naive(f).coords
        assert is_bent(s) is s.bent is oracle_bent(s)
        kinds.append(s.bent)
        if not s.bent:
            with pytest.raises(PreconditionError):
                extract_certificate(s)
            continue
        cert = extract_certificate(s)
        assert cert is extract_certificate(s)
        assert cert.unit_kind == ("real" if n % 2 == 0 or p % 4 == 1 else "imaginary")
        for y in range(ctx.q):
            v = Zw(p, s.coords[y])
            sign, j = cert.signs[y], cert.dual.values[y]
            assert sign in (1, -1)
            assert oracle_form(v, p, n, sign, j)
            assert unit_power_forms(p, n)[1].get(v.coords) == cert.codes[y]
            assert cert.codes[y] == (2 * j + p * (sign < 0)) % (2 * p)
            assert reconstruct(cert, y) == v
    assert kinds[0] is False and all(kinds[1:])


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_coordinate_arithmetic_matches_cycint(p):
    # the oracle (`ring_oracle`) reduces by Phi_p; `pbent.cyclo` folds
    # exponents mod p, so neither checks the other against itself
    rng = random.Random(p)
    assert gauss_sum(p) == gauss(p).coords
    for _ in range(100):
        x = Zw(p, [rng.randrange(-7, 8) for _ in range(p - 1)])
        y = Zw(p, [rng.randrange(-7, 8) for _ in range(p - 1)])
        j = rng.randrange(p)
        # w^j * x shifts the exponent counts (coordinates, then 0) by j
        counts = x.coords + (0,)
        rotated = coords_from_counts(p, [counts[(i - j) % p] for i in range(p)])
        assert mul_coords(x.coords, Zw.omega_pow(p, j).coords, p) == rotated
        assert rotated == (x * Zw.omega_pow(p, j)).coords
        assert mul_coords(x.coords, y.coords, p) == (x * y).coords
        assert conj_coords(x.coords, p) == x.conj().coords
        tally = [rng.randrange(-7, 8) for _ in range(p)]
        assert coords_from_counts(p, tally) == Zw.from_exponent_counts(p, tally).coords
        # norm_coords is (N_0 - N_1, N_2 - N_1, ..., N_h - N_1); the
        # canonical coordinates of |x|^2 are N_k - N_1 at k, N_k = N_(p-k)
        key = norm_coords(x.coords, p)
        half = (0,) + key[1:]
        want = (key[0],) + tuple(half[min(k, p - k) - 1] for k in range(1, p - 1))
        assert want == x.norm_sq().coords


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (3, 6), (5, 2)])
def test_parseval_still_guards_construction(p, n):
    ctx = get_field(p, n)
    f = TraceForm(ctx, [(ctx.one(), 2)]).truth_table()
    s = walsh_fast(f)
    assert WalshSpectrum(ctx, list(s.coords), "copy").coords == s.coords
    bad = list(s.coords)
    bad[1] = tuple(2 * c for c in bad[1])
    with pytest.raises(InternalInconsistency):
        WalshSpectrum(ctx, bad, "corrupted")
    # 20 random spectra pass the constructor's check, and sum_y |W(y)|^2 =
    # p^(2n) by the oracle's norms
    rng = random.Random(0)
    for _ in range(20):
        total = Zw.integer(p, 0)
        for c in walsh_fast(PFunction(ctx, [rng.randrange(p) for _ in range(ctx.q)])).coords:
            total = total + Zw(p, c).norm_sq()
        assert total == Zw.integer(p, ctx.q ** 2)


@pytest.mark.parametrize("p,n", FIELDS)
def test_certified_spectrum_is_rebuilt_from_its_certificate(p, n):
    """A bent spectrum holds no tuples of its own from construction on, only
    its codes, which its certificate shares; `coords` rebuilt from the
    codes equals the direct sums and the oracle's products."""
    ctx = get_field(p, n)
    rng = random.Random(2000 * p + n)
    for f in random_functions(ctx, rng)[1:]:
        s = walsh_fast(f)
        assert s._coords is None and len(s.codes) == ctx.q
        cert = extract_certificate(s)
        assert cert.codes is s.codes and s._coords is None
        assert s.coords == [single_walsh_value(f, y).coords for y in range(ctx.q)]
        assert s.coords is s.coords  # rebuilt once, then kept
        assert s.coords == [reconstruct(cert, y).coords for y in range(ctx.q)]


@pytest.mark.parametrize("p,n", FIELDS)
def test_altered_bent_spectrum_fails_parseval(p, n):
    """One coordinate of one point moved by +-1 breaks Parseval; for p >= 5
    the altered spectra mix points read as bent normal forms with points
    whose norm is computed, one to three of the latter."""
    ctx = get_field(p, n)
    rng = random.Random(3000 * p + n)
    coords = walsh_fast(random_functions(ctx, rng)[1]).coords
    for _ in range(10):
        bad = list(coords)
        for y in rng.sample(range(ctx.q), 1 if p == 3 else rng.randint(1, 3)):
            i = rng.randrange(p - 1)
            bad[y] = bad[y][:i] + (bad[y][i] + rng.choice((1, -1)),) + bad[y][i + 1:]
        assert sum(c not in unit_power_forms(p, n)[1] for c in bad) >= 1
        with pytest.raises(InternalInconsistency):
            WalshSpectrum(ctx, bad, "altered")


@pytest.mark.parametrize("p,n", FIELDS)
def test_derivative_spectrum_is_not_bent(p, n):
    """The derivatives of a bent function have unrecognized points (a
    quadratic's are affine: one spike of norm p^(2n)); their spectra pass
    Parseval and stay not bent, as the ring oracle says."""
    ctx = get_field(p, n)
    rng = random.Random(4000 * p + n)
    for f in random_functions(ctx, rng)[1:]:
        g = f.derivative(ctx.from_index(rng.randrange(1, ctx.q)))
        s = walsh_fast(g)
        assert s.bent is False and oracle_bent(s) is False
        assert s.coords == walsh_naive(g).coords


@pytest.mark.parametrize("p,n", FIELDS)
def test_a_bent_spectrum_holds_codes_from_construction(p, n):
    """`WalshSpectrum(...)` on the direct sums of a bent function keeps
    codes and no tuples; `coords` rebuilt from them are those sums."""
    ctx = get_field(p, n)
    f = random_functions(ctx, random.Random(5000 * p + n))[1]
    sums = [single_walsh_value(f, y).coords for y in range(ctx.q)]
    s = WalshSpectrum(ctx, list(sums), "direct")
    assert s.bent and s._coords is None
    assert s.codes == [unit_power_forms(p, n)[1][c] for c in sums]
    assert s.coords == sums == walsh_naive(f).coords


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 1)])
def test_a_flat_spectrum_outside_the_code_table_is_inconsistent(p, n, monkeypatch):
    """Every |W(y)|^2 = p^n but one value missing from the code dict: the
    constructor raises instead of calling the spectrum not bent."""
    ctx = get_field(p, n)
    sums = [single_walsh_value(TraceForm(ctx, [(ctx.one(), 2)]).truth_table(), y).coords
            for y in range(ctx.q)]
    monkeypatch.delitem(unit_power_forms(p, n)[1], sums[0])
    with pytest.raises(InternalInconsistency, match="without unit\\*power form"):
        WalshSpectrum(ctx, sums, "patched")


@pytest.mark.parametrize("n,exps", [(2, (2,)), (3, (8, 14))])
def test_the_battery_reads_the_dual_codes_without_a_certificate(n, exps, monkeypatch):
    """`wr_identity_check` reads the codes of a bent dual's spectrum, and
    builds no certificate of it: `extract_certificate` sees f's spectrum
    only (Tr(x^2) is weakly regular, Tr(x^8 + x^14) is not)."""
    ctx = get_field(3, n)
    f = TraceForm(ctx, [(ctx.one(), e) for e in exps]).truth_table()
    s_dual = walsh_fast(extract_certificate(walsh_fast(f)).dual)
    assert s_dual.bent
    seen = []

    def recording(s):
        seen.append(s)
        return extract_certificate(s)
    monkeypatch.setattr(derivanalysis, "extract_certificate", recording)
    wr_identity_check(f)
    assert seen and all(x is walsh_fast(f) for x in seen)
