"""Index arithmetic of F_{p^n} one base-p digit at a time: the oracle of
the field's index tables (`neg_table`, `shift_row`, `half_rows`,
`shift_table`, `linear_table`) and of the linear-structure scan
`_constant_derivatives`."""


def index_add(p: int, i: int, j: int, sign: int = 1) -> int:
    """Index of x_i + sign * x_j: digit by digit, since adding field
    elements carries nothing between digits.  index_add(p, 0, j, -1) is
    the index of -x_j."""
    out, mult = 0, 1
    while i or j:
        i, a = divmod(i, p)
        j, b = divmod(j, p)
        out += (a + sign * b) % p * mult
        mult *= p
    return out
