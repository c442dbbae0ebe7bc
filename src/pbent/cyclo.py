"""Exact arithmetic in Z[w], w = exp(2*pi*i/p) a primitive p-th root of unity.

Every Walsh value computed by this package lives here.  Elements are kept
in the canonical integer basis {1, w, ..., w^(p-2)}: the relation
1 + w + ... + w^(p-1) = 0 is applied eagerly, so equality is coordinate-wise
and zero has all-zero coordinates.  No floating point anywhere: bentness
and sign classifications are certificates, not approximations.  The ring's
arithmetic is the functions on bare coordinate tuples (`coords_from_counts`,
`mul_coords`, `conj_coords`, `norm_coords`), and the powers of w are read
from one table, `signed_powers`: z^k for k < 2p, z = -w^((p+1)/2).  A bent
Walsh value is U p^(n/2) z^k with U a fixed unit, and its code k is the one
encoding of it (`unit_power_forms`, `bent_code`: s w^j is k = 2j + p[s < 0]
mod 2p).  `CycInt` is a plain value, a tuple with its p, that only the
one-point functions `single_walsh_value` and `trinomial_closed_form_walsh`
return.

The quadratic Gauss sum g = sum_{x in F_p} w^(x^2) realizes sqrt(p) inside
the ring (g * conj(g) = p, g^2 = (-1)^((p-1)/2) * p), which is how values
of magnitude p^(n/2) for odd n are recognized without irrational numbers.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, mul


class CycInt:
    """An element of Z[w] in canonical coordinates; each coordinate must be
    an integer (`operator.index`), so a float or a string is refused."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords) -> None:
        self.p = p
        coords = tuple(map(index, coords))
        if len(coords) != p - 1:
            raise ValueError("need %d coordinates for p=%d" % (p - 1, p))
        self.coords = coords

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "CycInt":
        """sum_j counts[j] * w^j for a length-p count vector."""
        return cls(p, coords_from_counts(p, counts))

    def norm_sq(self) -> "CycInt":
        """x * conj(x); the squared complex magnitude as a ring element."""
        return CycInt(self.p, mul_coords(self.coords, conj_coords(self.coords, self.p), self.p))

    def __eq__(self, other) -> bool:
        return isinstance(other, CycInt) and self.p == other.p and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.p, self.coords))

    def __repr__(self) -> str:
        return "CycInt(p=%d, %s)" % (self.p, self)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "w" if i == 1 else "w^%d" % i
                parts.append("%d*%s" % (c, mon))
        return " + ".join(parts) if parts else "0"


# -- flat coordinate tuples ------------------------------------------------------
#
# All ring arithmetic of the package: Walsh spectra hold their values as bare
# coordinate tuples, and CycInt defines no operators of its own.


def coords_from_counts(p: int, counts) -> tuple:
    """Canonical coordinates of sum_j counts[j] * w^j (length-p counts)."""
    top = counts[p - 1]
    return tuple([c - top for c in counts[:p - 1]])


def conj_coords(coords: tuple, p: int) -> tuple:
    """Coordinates of conj(x), w -> w^(p-1): w^i goes to w^(p-i), and the
    count of w^(p-1), the old coefficient of w, is subtracted from all."""
    c1 = coords[1]
    return tuple([v - c1 for v in (coords[0], 0) + coords[:1:-1]])


def mul_coords(x: tuple, y: tuple, p: int) -> tuple:
    """Coordinates of x * y, from the exponent counts of the coordinate
    products."""
    acc = [0] * p
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                acc[(i + j) % p] += a * b
    return coords_from_counts(p, acc)


def norm_coords(coords: tuple, p: int) -> tuple:
    """|x|^2 = x * conj(x) as the integer tuple (N_0 - N_1, N_2 - N_1, ...,
    N_h - N_1), h = (p-1)/2, where N_k = sum_{i-j = k mod p} c_i c_j.

    Since N_k = N_(p-k), the tuple determines |x|^2 exactly and is linear in
    it: |x|^2 is the rational integer m iff the tuple is (m, 0, ..., 0).
    For p = 3 it is (a^2 - ab + b^2,).
    """
    c = coords + (0,)
    acf = [sum(map(mul, c, c[-k:] + c[:-k])) for k in range((p + 1) // 2)]  # c[i] c[i - k]
    n1 = acf[1]
    return (acf[0] - n1,) + tuple(v - n1 for v in acf[2:])


def _signed_rotations(p: int, counts: tuple, scale: int) -> list:
    """scale z^k x for k < 2p, x given by its p exponent counts: z^k =
    (-1)^k w^j, j = k (p+1)/2 mod p, moves x's counts up j places."""
    js = [k * (p + 1) // 2 % p for k in range(2 * p)]
    return [coords_from_counts(p, [s * c for c in counts[-j:] + counts[:-j]])
            for s, j in zip([scale, -scale] * p, js)]


@lru_cache(maxsize=8)
def signed_powers(p: int) -> tuple:
    """Coordinates of z^k, k in [0, 2p), z = -w^((p+1)/2): as z^2 = w and
    z^p = -1, s w^j = z^(2j + p[s < 0]), and w^j is entry 2j."""
    return tuple(_signed_rotations(p, (1,) + (0,) * (p - 1), 1))


@lru_cache(maxsize=8)
def gauss_sum(p: int) -> tuple:
    """The quadratic Gauss sum of F_p as the coordinates of an exact
    element of Z[w]."""
    counts = [0] * p
    for x in range(p):
        counts[(x * x) % p] += 1
    return coords_from_counts(p, counts)


@lru_cache(maxsize=32)
def unit_power_forms(p: int, n: int) -> tuple[list, dict]:
    """The 2p bent values U p^(n/2) z^k, z^k = `signed_powers(p)[k]`, as a
    list indexed by their code k < 2p, and the dict from value back to k.

    For even n, U p^(n/2) = p^(n/2); for odd n it is p^((n-1)/2) g with g
    the Gauss sum, which absorbs the imaginary unit occurring when p = 3 mod
    4.  Each value is U's exponent counts rotated (`_signed_rotations`):
    O(p^2) in all.  The values are pairwise distinct for odd p, so a
    dictionary lookup recognizes a coordinate tuple exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    unit = gauss_sum(p) if n % 2 else (1,) + (0,) * (p - 2)
    forms = _signed_rotations(p, unit + (0,), p ** (n // 2))  # U's counts: its coordinates, 0
    return forms, {c: k for k, c in enumerate(forms)}


def bent_code(p: int, s: int, j: int) -> int:
    """The code k of s w^j, s = +-1: k is odd exactly when s = -1."""
    return (2 * j + p * (s < 0)) % (2 * p)


def unit_class(p: int, n: int) -> str:
    """Which unit multiplies w^(dual) in a bent coefficient: 'real' for
    even n or p = 1 mod 4, 'imaginary' for odd n with p = 3 mod 4."""
    if n % 2 == 0 or p % 4 == 1:
        return "real"
    return "imaginary"
