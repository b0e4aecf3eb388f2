"""Gauss–Jordan elimination over Fractions, a test oracle for `ratlin.rref`.

It follows a fixed pivot rule: scan columns left to right, take the first
nonzero row at or below the cursor, scale the pivot to 1 and eliminate the
column in every other row.  The package eliminates over integer rows
instead; the reduced row echelon form of a row space is unique, so the two
must agree entry for entry and pivot for pivot.

`solve` reads one solution of an affine system off the same elimination of
its augmented matrix, so tests can build solutions without the package's
own elimination.
"""

from fractions import Fraction

from formalpde.ratlin import RatMatrix


def reference_rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """(R, pivots) as `ratlin.rref` returns them, by Fraction Gauss–Jordan."""
    work = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    cursor = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(cursor, nrows) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[cursor], work[pivot_row] = work[pivot_row], work[cursor]
        prow = work[cursor]
        inv = Fraction(1) / prow[col]
        prow[:] = [x * inv for x in prow]
        for i in range(nrows):
            factor = work[i][col]
            if i != cursor and factor:
                work[i] = [x - factor * p for x, p in zip(work[i], prow)]
        pivots.append(col)
        cursor += 1
        if cursor == nrows:
            break
    return RatMatrix(work, cols=ncols), tuple(pivots)


def solve(a: RatMatrix, b) -> tuple[Fraction, ...] | None:
    """The solution of A x = b that is zero at every free column, or None if
    the system is infeasible, read off the reference rref of [A | b]."""
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    aug = RatMatrix([list(a.row(i)) + [b[i]] for i in range(a.rows)], cols=a.cols + 1)
    r, pivots = reference_rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [Fraction(0)] * a.cols
    for i, p in enumerate(pivots):
        x[p] = r.row(i)[a.cols]
    return tuple(x)
