"""Small dense linear algebra modulo a prime, and the per-axis kernel.

Matrices are lists of row lists with entries in [0, p).  Sizes here are
tiny (n x n for extension degrees n <= 12), so plain Gaussian elimination
is the right tool.  `axis_passes` is the package's one tensor kernel,
shared by the Walsh transforms and the ANF conversions.
"""

from __future__ import annotations


def mat_inverse(mat: list[list[int]], p: int) -> list[list[int]]:
    """Invert a square matrix over F_p.  Raises ValueError if singular.

    Read off the kernel of [M | I]: the n x 2n matrix has rank n, and M is
    invertible exactly when its free columns are the last n, in which case
    kernel vector j is (-M^-1 e_j, e_j)."""
    n = len(mat)
    basis = mat_kernel([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(mat)], p)
    if any(v[n + j] != 1 for j, v in enumerate(basis)):
        raise ValueError("matrix is singular mod %d" % p)
    return [[-v[i] % p for v in basis] for i in range(n)]


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


def mat_vec(mat: list[list[int]], vec: list[int], p: int) -> list[int]:
    """Matrix-vector product over F_p."""
    return [sum(m * v for m, v in zip(row, vec)) % p for row in mat]


def axis_passes(vals: list, p: int, n: int, column) -> list:
    """Apply a size-p column map along every base-p digit of the index.

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

    Returns a new list; `vals` is unchanged.
    """
    q = len(vals)
    m = q // p
    run = min(m, p ** 6)
    blank = [None] * run
    out = list(vals)
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
