import itertools
import math
import random

import pytest

from pbent.cyclo import (CycInt, bent_code, conj_coords, coords_from_counts, gauss_sum,
                         mul_coords, unit_class, unit_power_forms)
from ring_oracle import Zw, bent_value

W = Zw.omega_pow


def recognize(x, p, n):
    """(s, j) of x = s U p^(n/2) w^j, read from its code k (s = -1 exactly
    when k is odd, j = k (p+1)/2 mod p), or None for any other x."""
    k = unit_power_forms(p, n)[1].get(x.coords)
    return None if k is None else ((-1) ** k, k * (p + 1) // 2 % p)


def zero(p):
    return (0,) * (p - 1)


def integer(p, m):
    return (m,) + (0,) * (p - 2)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def rand_coords(rng, p, bound):
    return tuple(rng.randrange(-bound, bound + 1) for _ in range(p - 1))


def test_phi_relation():
    assert coords_from_counts(3, [1, 1, 1]) == zero(3)
    for p in (3, 5, 7):
        assert not any(CycInt.from_exponent_counts(p, [1] * p).coords)


def test_root_of_unity():
    for p in (3, 5, 7):
        assert mul_coords(W(p, 1).coords, W(p, p - 1).coords, p) == integer(p, 1)


def test_gauss_magnitude_product():
    # (1 + 2w)(1 + 2w^-1) = 3 for p = 3
    x = (1, 2)
    assert mul_coords(x, conj_coords(x, 3), 3) == integer(3, 3)


def test_conj():
    rng = random.Random(0)
    assert conj_coords(integer(5, 7), 5) == integer(5, 7)
    for p in (3, 5, 7):
        for _ in range(30):
            x = rand_coords(rng, p, 9)
            assert conj_coords(conj_coords(x, p), p) == x
    # conj(1 + 2w) = 1 + 2w^2, canonically (-1, -2)
    assert conj_coords((1, 2), 3) == (-1, -2)


def test_ring_laws_sampled():
    rng = random.Random(1)
    for p in (3, 5, 7):
        for _ in range(25):
            x, y, z = (rand_coords(rng, p, 9) for _ in range(3))
            assert mul_coords(x, y, p) == mul_coords(y, x, p)
            assert mul_coords(mul_coords(x, y, p), z, p) == mul_coords(x, mul_coords(y, z, p), p)
            assert mul_coords(x, add(y, z), p) == add(mul_coords(x, y, p), mul_coords(x, z, p))


def test_norm_sq():
    assert CycInt(3, zero(3)).norm_sq() == CycInt(3, zero(3))
    for p in (3, 5, 7):
        for j in range(p):
            assert CycInt(p, W(p, j).coords).norm_sq() == CycInt(p, integer(p, 1))
    assert CycInt(3, (1, 2)).norm_sq() == CycInt(3, integer(3, 3))


def test_gauss_sums():
    assert gauss_sum(3) == (1, 2)
    for p, square in ((3, -3), (5, 5), (7, -7)):
        g = gauss_sum(p)
        assert mul_coords(g, g, p) == integer(p, square)
        assert mul_coords(g, conj_coords(g, p), p) == integer(p, p)


def test_recognition_direct_forms():
    assert recognize(W(3, 2) * 9, 3, 4) == (1, 2)
    # the n = 1 spectrum value of x^2 at y = 0
    assert recognize(CycInt(3, (1, 2)), 3, 1) == (1, 0)
    # balanced-looking non-bent value: norm 3, not 9
    assert recognize(CycInt(3, (2, 1)), 3, 2) is None


def test_recognition_roundtrip_all_signs_and_powers():
    for p in (3, 5, 7):
        for n in (1, 2, 3, 4):
            for j in range(p):
                for sign in (1, -1):
                    assert recognize(bent_value(p, n, sign, j), p, n) == (sign, j)


def test_unit_class_case_split():
    assert unit_class(3, 4) == "real"
    assert unit_class(3, 3) == "imaginary"
    assert unit_class(5, 3) == "real"
    assert unit_class(7, 1) == "imaginary"


def test_scalar_mul_and_views():
    x = (4, -2)
    assert mul_coords(integer(3, 2), x, 3) == (8, -4)
    assert mul_coords(x, zero(3), 3) == zero(3)
    assert coords_from_counts(3, [9, 0, 0]) == (9, 0)
    assert str(CycInt(3, (1, 2))) == "1 + 2*w"
    assert str(CycInt(5, (0, 1, 0, -3))) == "1*w + -3*w^3"
    with pytest.raises(ValueError):
        CycInt(5, (1, 2))


def test_coordinates_must_be_integers():
    # a float or a string is refused, not truncated or parsed
    with pytest.raises(TypeError):
        CycInt(3, (1.5, 2))
    with pytest.raises(TypeError):
        CycInt(3, ("7", 2))


def test_real_detection():
    # w + w^(p-1) is real but irrational for p = 5
    x = (W(5, 1) + W(5, 4)).coords
    assert conj_coords(x, 5) == x and any(x[1:])
    assert conj_coords(W(5, 1).coords, 5) != W(5, 1).coords


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bent_codes_round_trip_through_the_list_and_the_dict(p):
    # code k is z^k times U p^(n/2): odd k is the sign -1, and k (p+1)/2
    # mod p the exponent j, each value checked against the ring oracle
    for n in (1, 2, 3, 4):
        forms, index = unit_power_forms(p, n)
        assert len(forms) == len(index) == 2 * p
        for k, v in enumerate(forms):
            assert index[v] == k
            sign, j = (-1 if k % 2 else 1), k * (p + 1) // 2 % p
            assert bent_code(p, sign, j) == k
            assert v == bent_value(p, n, sign, j).coords


def _recognized_iff_norm(p, n, tuples):
    """Each tuple is in the code dict exactly when its oracle norm is p^n;
    the counts of (recognized, not) are returned."""
    index = unit_power_forms(p, n)[1]
    target = Zw.integer(p, p ** n)
    seen = [0, 0]
    for t in tuples:
        bent = Zw(p, t).norm_sq() == target
        assert (t in index) is bent, (p, n, t)
        seen[bent] += 1
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recognition_holds_exactly_at_norm_p_to_the_n_p3(n):
    bound = math.isqrt(3 ** n) + 2  # floor(3^(n/2)) + 2
    box = itertools.product(range(-bound, bound + 1), repeat=2)
    not_bent, bent = _recognized_iff_norm(3, n, box)
    assert bent == 6 and not_bent > 0


@pytest.mark.parametrize("p", [5, 7])
def test_recognition_holds_exactly_at_norm_p_to_the_n_near_the_forms(p):
    # 2,000 seeded tuples: a bent value with 0-2 coordinates moved by up to
    # 2, so about a fifth of them are bent values themselves
    rng = random.Random(p)
    seen = [0, 0]
    for n in (1, 2, 3, 4):
        forms = unit_power_forms(p, n)[0]
        tuples = []
        for _ in range(500):
            t = list(rng.choice(forms))
            for i in rng.sample(range(p - 1), rng.choice((0, 1, 1, 2, 2))):
                t[i] += rng.choice((-2, -1, 1, 2))
            tuples.append(tuple(t))
        seen = [a + b for a, b in zip(seen, _recognized_iff_norm(p, n, tuples))]
    assert min(seen) > 100


def test_unit_power_forms_need_n_at_least_one():
    with pytest.raises(ValueError):
        unit_power_forms(3, 0)
