import itertools
import random
from array import array

import pytest

from pbent.funcrep import _vandermonde
from pbent.linalg import _lane_plan, axis_passes, lane_passes, mat_inverse, mat_kernel


def mat_vec(mat, vec, p):
    """Matrix-vector product over F_p."""
    return [sum(m * v for m, v in zip(row, vec)) % p for row in mat]


def list_passes(vals, p, n, mat):
    """The labelled oracle of `lane_passes`: `axis_passes` with a column map
    multiplying each column by `mat`, one list entry per point."""
    def column(rows):
        return list(zip(*(mat_vec(mat, col, p) for col in zip(*rows))))
    return axis_passes(vals, p, n, column)


def _index(vec, p):
    return sum(c * p ** i for i, c in enumerate(vec))


def test_kernel_basis_is_reduced_by_top_digit():
    # against the brute-force kernel: the basis spans it, each vector's top
    # nonzero coordinate is a 1 where the other vectors are 0, and each
    # vector is the smallest kernel element (as a base-p index) whose top
    # digit sits there
    rng = random.Random(41)
    for p, rows, cols in ((3, 3, 4), (3, 4, 4), (5, 2, 3), (3, 1, 5), (7, 2, 2)):
        for _ in range(15):
            mat = [[rng.randrange(p) if rng.random() < 0.6 else 0
                    for _ in range(cols)] for _ in range(rows)]
            basis = mat_kernel(mat, p)
            kernel = [list(v) for v in itertools.product(range(p), repeat=cols)
                      if not any(mat_vec(mat, list(v), p))]
            assert len(kernel) == p ** len(basis)
            tops = [max(i for i, c in enumerate(v) if c) for v in basis]
            assert tops == sorted(set(tops))
            for v, top in zip(basis, tops):
                assert not any(mat_vec(mat, v, p))
                assert v[top] == 1
                assert all(w[top] == 0 for w in basis if w is not v)
                same_top = [_index(u, p) for u in kernel
                            if any(u) and max(i for i, c in enumerate(u) if c) == top]
                assert _index(v, p) == min(same_top)
            assert [_index(v, p) for v in basis] == sorted(_index(v, p) for v in basis)


def test_kernel_of_zero_and_invertible_matrices():
    assert mat_kernel([[0, 0], [0, 0]], 3) == [[1, 0], [0, 1]]
    assert mat_kernel([[1, 2], [0, 1]], 3) == []


def test_mat_inverse_is_a_two_sided_inverse_and_refuses_singular():
    rng = random.Random(43)
    identity = {n: [[int(i == j) for j in range(n)] for i in range(n)] for n in range(1, 6)}
    invertible = singular = 0
    for p in (3, 5, 7):
        for n in range(1, 6):
            for _ in range(20):
                mat = [[rng.randrange(p) if rng.random() < 0.7 else 0
                        for _ in range(n)] for _ in range(n)]
                if mat_kernel(mat, p):
                    singular += 1
                    with pytest.raises(ValueError):
                        mat_inverse(mat, p)
                    continue
                invertible += 1
                inv = mat_inverse(mat, p)
                assert all(0 <= v < p for row in inv for v in row)
                # column j of M * M^-1 and of M^-1 * M is e_j
                cols = [[row[j] for row in inv] for j in range(n)]
                assert [mat_vec(mat, c, p) for c in cols] == identity[n]
                mcols = [[row[j] for row in mat] for j in range(n)]
                assert [mat_vec(inv, c, p) for c in mcols] == identity[n]
    assert invertible > 100 and singular > 20


def _extreme_columns(mat, p):
    """Per row of `mat`, the two columns that give its largest and smallest
    lane sum in centred residues: p - 1 under the coefficients of one sign."""
    for row in mat:
        centred = [c - p if 2 * c > p else c for c in row]
        yield [p - 1 if c > 0 else 0 for c in centred]
        yield [p - 1 if c < 0 else 0 for c in centred]


def test_lane_passes_match_the_list_kernel():
    # both directions of the ANF conversion, every n with p^n <= 3^8; at
    # p = 11 and 13 the lanes are wider than a byte
    rng = random.Random(44)
    for p in (3, 5, 7, 11, 13):
        for inverse in (True, False):
            mat = _vandermonde(p, inverse)
            assert (array(_lane_plan(mat, p)[1]).itemsize > 1) == (p > 7)
            for col in _extreme_columns(mat, p):
                assert lane_passes(col, p, 1, mat) == mat_vec(mat, col, p)
            n = 1
            while p ** n <= 3 ** 8:
                for vals in ([rng.randrange(p) for _ in range(p ** n)], [p - 1] * p ** n):
                    assert lane_passes(vals, p, n, mat) == list_passes(vals, p, n, mat)
                n += 1
