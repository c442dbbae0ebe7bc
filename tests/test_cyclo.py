import random

import pytest

from pbent.cyclo import CycInt, gauss_sum, unit_class, unit_power_forms

W = CycInt.omega_pow


def recognize(x, p, n):
    return unit_power_forms(p, n).get(x.coords)


def test_phi_relation():
    assert CycInt.integer(3, 1) + W(3, 1) + W(3, 2) == CycInt.integer(3, 0)
    for p in (3, 5, 7):
        total = CycInt.integer(p, 0)
        for j in range(p):
            total = total + W(p, j)
        assert total.is_zero()


def test_root_of_unity():
    for p in (3, 5, 7):
        assert W(p, 1) * W(p, p - 1) == CycInt.integer(p, 1)


def test_gauss_magnitude_product():
    # (1 + 2w)(1 + 2w^-1) = 3 for p = 3
    x = CycInt(3, (1, 2))
    assert x * x.conj() == CycInt.integer(3, 3)


def test_conj():
    rng = random.Random(0)
    assert CycInt.integer(5, 7).conj() == CycInt.integer(5, 7)
    for p in (3, 5):
        for _ in range(30):
            x = CycInt(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
            assert x.conj().conj() == x
    # conj(1 + 2w) = 1 + 2w^2, canonically (-1, -2)
    assert CycInt(3, (1, 2)).conj() == CycInt(3, (-1, -2))


def test_ring_laws_sampled():
    rng = random.Random(1)
    for p in (3, 5):
        for _ in range(25):
            x = CycInt(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
            y = CycInt(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
            z = CycInt(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


def test_norm_sq():
    assert CycInt.integer(3, 0).norm_sq() == CycInt.integer(3, 0)
    for p in (3, 5, 7):
        for j in range(p):
            assert W(p, j).norm_sq() == CycInt.integer(p, 1)
    assert CycInt(3, (1, 2)).norm_sq() == CycInt.integer(3, 3)


def test_gauss_sums():
    assert gauss_sum(3) == CycInt(3, (1, 2))
    assert gauss_sum(3) * gauss_sum(3) == CycInt.integer(3, -3)
    assert gauss_sum(5) * gauss_sum(5) == CycInt.integer(5, 5)
    assert gauss_sum(7) * gauss_sum(7) == CycInt.integer(7, -7)
    for p in (3, 5, 7):
        assert gauss_sum(p) * gauss_sum(p).conj() == CycInt.integer(p, p)


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
                    if n % 2 == 0:
                        v = W(p, j) * (sign * p ** (n // 2))
                    else:
                        v = gauss_sum(p) * W(p, j) * (sign * p ** ((n - 1) // 2))
                    assert recognize(v, p, n) == (sign, j)


def test_unit_class_case_split():
    assert unit_class(3, 4) == "real"
    assert unit_class(3, 3) == "imaginary"
    assert unit_class(5, 3) == "real"
    assert unit_class(7, 1) == "imaginary"


def test_scalar_mul_and_views():
    x = CycInt(3, (4, -2))
    assert 2 * x == CycInt(3, (8, -4))
    assert x * 0 == CycInt.integer(3, 0)
    assert CycInt.integer(3, 9).coords == (9, 0)
    assert str(CycInt(3, (1, 2))) == "1 + 2*w"
    assert str(CycInt(5, (0, 1, 0, -3))) == "1*w + -3*w^3"
    with pytest.raises(ValueError):
        CycInt(5, (1, 2))


def test_real_detection():
    # w + w^(p-1) is real but irrational for p = 5
    x = W(5, 1) + W(5, 4)
    assert x.conj() == x and any(x.coords[1:])
    assert W(5, 1).conj() != W(5, 1)
