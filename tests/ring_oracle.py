"""Reference arithmetic of Z[w], w a primitive p-th root of unity: the
tests' oracle of the coordinate functions in `pbent.cyclo`.

It imports nothing from `pbent`.  An element is held as in `pbent.cyclo`,
by its canonical coordinates in the basis {1, w, ..., w^(p-2)}, but every
operation is computed another way.  A product is the plain polynomial
product, of degree up to 2p - 4, and conjugation is the substitution
x -> x^(p-1).  Both are then reduced by long division by the monic
cyclotomic polynomial Phi_p = 1 + x + ... + x^(p-1).  `pbent.cyclo`
instead folds exponents modulo p and subtracts the count of w^(p-1).
"""


def reduce_phi(p: int, poly) -> tuple:
    """Canonical coordinates of sum_i poly[i] x^i modulo Phi_p: the top
    term a x^d, d >= p - 1, is x^(d-p+1) x^(p-1) = -a (x^(d-p+1) + ... +
    x^(d-1))."""
    c = list(poly) + [0] * (p - 1)
    for d in range(len(c) - 1, p - 2, -1):
        top = c[d]
        for i in range(d - p + 1, d):
            c[i] -= top
    return tuple(c[:p - 1])


class Zw:
    """An element of Z[w] with the reference ring operations."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords) -> None:
        coords = tuple(coords)
        if len(coords) != p - 1:
            raise ValueError("need %d coordinates for p=%d" % (p - 1, p))
        self.p, self.coords = p, coords

    @classmethod
    def integer(cls, p: int, m: int) -> "Zw":
        return cls(p, (m,) + (0,) * (p - 2))

    @classmethod
    def omega_pow(cls, p: int, j: int) -> "Zw":
        return cls(p, reduce_phi(p, [0] * (j % p) + [1]))

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "Zw":
        """sum_j counts[j] * w^j, j in [0, p)."""
        return cls(p, reduce_phi(p, counts))

    def __add__(self, other: "Zw") -> "Zw":
        return Zw(self.p, [a + b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other) -> "Zw":
        if isinstance(other, int):
            return Zw(self.p, [other * a for a in self.coords])
        prod = [0] * (2 * self.p - 3)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                prod[i + j] += a * b
        return Zw(self.p, reduce_phi(self.p, prod))

    __rmul__ = __mul__

    def conj(self) -> "Zw":
        """x -> x^(p-1) on the coordinate polynomial, reduced."""
        p = self.p
        poly = [0] * ((p - 1) * (p - 2) + 1)
        for i, a in enumerate(self.coords):
            poly[i * (p - 1)] = a
        return Zw(p, reduce_phi(p, poly))

    def norm_sq(self) -> "Zw":
        return self * self.conj()

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Zw) and (self.p, self.coords) == (other.p, other.coords)

    def __repr__(self) -> str:
        return "Zw(p=%d, %s)" % (self.p, self.coords)


def gauss(p: int) -> Zw:
    """sum_{x in F_p} w^(x^2)."""
    total = Zw.integer(p, 0)
    for x in range(p):
        total = total + Zw.omega_pow(p, x * x)
    return total


def bent_value(p: int, n: int, sign: int, j: int) -> Zw:
    """sign * U * p^(n/2) * w^j: U = 1 for even n; for odd n, U p^(n/2) is
    p^((n-1)/2) times the Gauss sum."""
    if n % 2 == 0:
        return Zw.omega_pow(p, j) * (sign * p ** (n // 2))
    return gauss(p) * Zw.omega_pow(p, j) * (sign * p ** ((n - 1) // 2))
