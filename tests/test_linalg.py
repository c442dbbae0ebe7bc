import itertools
import random
from array import array

from pbent.funcrep import PFunction, _vandermonde, anf_to_truth
from pbent.gf import get_field, is_prime
from pbent.linalg import _lane_plan, axis_passes, f3_add, f3_times, lane_passes, mat_kernel


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


def _f3_pack(entries):
    """Entries in [0, 3) bit-sliced: entry k is bit k of the first mask
    where it is 1 and of the second where it is 2."""
    return (sum(1 << k for k, v in enumerate(entries) if v == 1),
            sum(1 << k for k, v in enumerate(entries) if v == 2))


def _f3_vector(masks, n):
    u, v = masks
    return [(u >> i & 1) + 2 * (v >> i & 1) for i in range(n)]


DIGIT_PAIRS = list(itertools.product(range(3), repeat=2))
X, Y = _f3_pack([a for a, _ in DIGIT_PAIRS]), _f3_pack([b for _, b in DIGIT_PAIRS])


def test_f3_add_is_addition_mod_3():
    assert _f3_vector(f3_add(X, Y), 9) == [(a + b) % 3 for a, b in DIGIT_PAIRS]
    assert _f3_vector(f3_add(X, Y[::-1]), 9) == [(a - b) % 3 for a, b in DIGIT_PAIRS]


def test_f3_times_is_multiplication_mod_3():
    assert _f3_vector(f3_times(X, Y), 9) == [a * b % 3 for a, b in DIGIT_PAIRS]
    assert _f3_vector(f3_times(X, Y[::-1]), 9) == [-a * b % 3 for a, b in DIGIT_PAIRS]


def test_closed_form_inverse_vandermonde_is_a_two_sided_inverse():
    for p in filter(is_prime, range(2, 32)):
        v, inv = _vandermonde(p, False), _vandermonde(p, True)
        assert all(0 <= c < p for row in inv for c in row)
        identity = [[int(i == j) for j in range(p)] for i in range(p)]
        # column j of V * V^-1 and of V^-1 * V is e_j
        assert [mat_vec(v, [row[j] for row in inv], p) for j in range(p)] == identity
        assert [mat_vec(inv, [row[j] for row in v], p) for j in range(p)] == identity
    # the ANF round trip through both matrices, with lanes wider than a byte
    rng = random.Random(45)
    for p, n in ((211, 1), (13, 2)):
        ctx = get_field(p, n)
        for _ in range(5):
            f = PFunction(ctx, [rng.randrange(p) for _ in range(ctx.q)])
            assert anf_to_truth(f.to_anf()) == f


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
