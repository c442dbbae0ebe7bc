"""The kernel of a small matrix modulo a prime, and the per-digit kernels.

Matrices are lists of row lists with entries in [0, p).  `mat_kernel`, by
Gaussian elimination, serves the derivative certificates, whose matrices
are tiny (n x n for n <= 12); for p = 3, `f3_add` and `f3_times` reduce
them all at once, bit-sliced.  Nothing here inverts a matrix: the two
changes of basis that need an inverse have closed forms, the trace-dual
gather table in `walsh` and the interpolation formula in `funcrep`.

Two kernels apply a size-p map along every base-p digit of a table's index,
one pass per digit, each pass mapping the top digit and moving it to the
bottom.  `lane_passes` is the F_p kernel of the ANF conversions: the table
is one Python int with a fixed-width lane per entry, so a pass is a few
dozen whole-table integer operations.  Its reduction mod p, `lane_mod`,
also serves `gf`'s table build.  `axis_passes` is the kernel of the
Z[w] transforms in `walsh`, whose entries are coordinate tuples.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache


def mat_kernel(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel {v : mat v = 0} over F_p.

    `mat` may be rectangular (rows x cols); returns a list of length-cols
    basis vectors (possibly empty), reduced by the last nonzero coordinate:
    vector k is 1 at c_k and 0 above it, the others are 0 at c_k; c_1 < c_2 < ...
    """
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] % p != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-rows[ri][fc]) % p
        basis.append(v)
    return basis


def f3_add(x: tuple, y: tuple) -> tuple:
    """Entrywise sum over F_3 of two bit-sliced (ones, twos) operands, in
    seven logical operations; -y is y with its masks swapped."""
    (x1, x2), (y1, y2) = x, y
    t = (x1 | y2) ^ (x2 | y1)
    return (x2 | y2) ^ t, (x1 | y1) ^ t


def f3_times(x: tuple, y: tuple) -> tuple:
    """Entrywise product over F_3 of two bit-sliced (ones, twos) operands."""
    (x1, x2), (y1, y2) = x, y
    return x1 & y1 | x2 & y2, x1 & y2 | x2 & y1


def lane_typecode(bound: int) -> str:
    """The narrowest `array` typecode whose items hold 0..bound below their
    top bit, which `lane_passes` keeps free as a guard bit."""
    return next(tc for tc in "BHILQ" if bound < 1 << (8 * array(tc).itemsize - 1))


@lru_cache(maxsize=16)
def _lane_plan(mat: tuple, p: int):
    """Per output row of `mat`: its nonzero coefficients (t, c), centred
    into (-p/2, p/2); the bias, the least multiple of p that keeps every
    lane of the row's sum non-negative; and the largest lane value the
    row's sum can reach.  Also the lane typecode, sized for the largest of
    those."""
    rows, bound = [], p - 1
    for row in mat:
        coeffs = [(t, c - p if 2 * c > p else c) for t, c in enumerate(row) if c]
        bias = -((p - 1) * sum(c for _, c in coeffs if c < 0) // p) * p
        top = bias + (p - 1) * sum(c for _, c in coeffs if c > 0)
        rows.append((coeffs, bias, top))
        bound = max(bound, top)
    return rows, lane_typecode(bound)


def lane_mod(p: int, width: int, ones: int, top: int):
    """`reduce(acc)`: every `width`-bit lane of the int acc, at most the
    lanes where `ones` has a 1, each holding 0..top below its top bit,
    reduced mod p.

    It makes conditional subtractions of p*2^j, j descending:
    (lane | guard) - p*2^j keeps a lane's guard (top) bit exactly where
    lane >= p*2^j, so no borrow crosses a lane, and that bit, moved down
    to bit j and multiplied by p, is what the lane loses.  A lane of acc
    beyond its top stays 0.
    """
    guard = ones << (width - 1)
    steps = [((p << j) * ones, width - 1 - j) for j in reversed(range((top // p).bit_length()))]

    def reduce(acc: int) -> int:
        for sub, shift in steps:
            acc -= (((acc | guard) - sub & guard) >> shift) * p
        return acc
    return reduce


def lane_passes(vals: list[int], p: int, n: int, mat: tuple) -> list[int]:
    """Apply the p x p matrix `mat` over F_p (a tuple of row tuples) along
    every base-p digit of the index of `vals`, p^n entries in [0, p).
    Returns a new list.

    The table is one int, entry x in lane x: the items of an `array` of
    typecode `lane_typecode(bound)`, read by `int.from_bytes`.  The lanes
    are bytes for p <= 7 and two bytes for p = 11, 13 (the Vandermonde
    matrices).  A pass cuts row t, the m = p^(n-1) entries whose
    top digit is t, out of the contiguous lanes [t*m, (t+1)*m) with one
    shift and mask.  Output row u is sum_t c_ut row_t + bias_u, formed on
    all m lanes at once and reduced by `lane_mod`.  Row u then goes to the
    entries r*p + u by a strided array store, which moves the mapped digit
    to the bottom, as in `axis_passes`.  The lane constants are 1/p of the
    table and are rebuilt on every call.
    """
    rows, tc = _lane_plan(mat, p)
    size = array(tc).itemsize
    width = 8 * size
    m = p ** (n - 1)
    ones = int.from_bytes(array(tc, [1]) * m, sys.byteorder)
    low = (1 << width * m) - 1
    prog = [(coeffs, bias * ones, lane_mod(p, width, ones, top)) for coeffs, bias, top in rows]
    # array items are native-endian: on a big-endian machine entry 0 is the top lane
    order = range(p) if sys.byteorder == "little" else range(p - 1, -1, -1)
    out = array(tc, vals)
    for _ in range(n):
        table = int.from_bytes(out, sys.byteorder)
        cut = [(table >> width * m * t) & low for t in order]
        for u, (coeffs, acc, reduce) in enumerate(prog):
            for t, c in coeffs:
                acc += c * cut[t]
            out[u::p] = array(tc, reduce(acc).to_bytes(size * m, sys.byteorder))
    return out.tolist()


def axis_passes(vals, p: int, n: int, column) -> list:
    """Apply a size-p column map along every base-p digit of the index: the
    kernel of the Z[w] transforms.

    Entry x of `vals` (p^n entries) sits at index sum_i x_i p^i; the p
    entries that differ only in one digit form a column.  `column(rows)`
    takes p equal-length lists, row t holding the entries whose digit is t
    for a run of columns, and returns the p output rows.  Maps along
    different digits commute, so one pass per digit applies the tensor
    power of the column map.

    Each pass maps the top digit and moves it to the bottom: entry t*m + r
    (m = p^(n-1)) feeds output row u at r*p + u.  After n passes every
    digit has been mapped once and is back in place.  A pass reads runs of
    at most p^6 columns and blanks them in its source as it reads them, so
    the entries of the old table are freed while the new one is built.

    `vals` may be any iterable of the p^n entries; it is read once into
    the working list.  Returns a new list; `vals` is unchanged.
    """
    out = list(vals)
    q = len(out)
    m = q // p
    run = min(m, p ** 6)
    blank = [None] * run
    for _ in range(n):
        src, out = out, [None] * q
        for r in range(0, m, run):
            heads = range(r, q, m)
            rows = [src[i:i + run] for i in heads]
            for i in heads:
                src[i:i + run] = blank
            for u, row in enumerate(column(rows)):
                out[r * p + u:(r + run) * p:p] = row
    return out
