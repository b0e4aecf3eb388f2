"""Exact rational linear algebra.

Every decision this package makes reduces to ranks, kernels and images over
Q, so arithmetic is exact: entries are Fractions or ints,
the one set of exact values, and floating point never enters.
Matrices are immutable and sparse: a `RatMatrix` stores each row as its
nonzero (column, value) pairs in ascending column order, because
prolongation moves each coefficient to one new column and every matrix the
package builds is sparse by construction.

A matrix is built from dense rows, validated and converted once, or from rows
already in pair form.  Entries are validated by type at every boundary
(`RatMatrix`, `apply`, the vectors a `Subspace` is asked about): a dense row
whose entries are all Fractions or ints is kept as is, any other row is
coerced entry by entry, and a float is refused either way; pair values must
be Fractions or ints.  Zeros are skipped by structure, not by testing each
entry: dense rows are read into pairs once, in `RatMatrix`, every stage reads
and emits pairs from there, a subspace is its basis vectors' integer pairs,
and `apply` reads the vector's nonzeros once.
Membership (`Subspace._coords`, behind every membership and coordinate query)
reads a basis over one denominator (`Subspace.scaled`: D, the lcm of the
leads d_j, and the rows D·b_j, held outside equality and hashing) as
D·v - sum x_j·(D·b_j), touching only a vector's coordinates and the rows its
pivot entries select; every command hands it integer rows, the crosscheck
its jet points as pairs end to end, and the connection route reads its σ and
A_i off the same rows.  `reduce_mod` is dense.

Determinism is part of the contract, not an aspiration.  The reduced row
echelon form of a row space is unique, so echelon forms, kernel bases and
canonical subspace bases depend on the spans alone, not on how they are
eliminated, and are reproducible across runs and platforms.  Elimination runs
over integer rows (`_reduced`), and `kernel` alone reads a canonical basis
off them; `rref`, the kernel of the kernel rendered as Fractions, runs only
behind `from_spanning`, which no analysis calls.  A `Subspace`
stores the canonical basis of its span, the nonzero rows of the rref of any
spanning set, each as its primitive integer row, hence two equal subspaces
compare equal as plain data; Fractions are rendered on demand.

Kernels need only one elimination.  Integer rows are keyed by their own
columns, and the elimination leads each row at its greatest column, its top;
that echelon form leaves each free column's kernel vector with its leading 1
at that column and zeros at every other free column, which is exactly the
canonical basis, read off the integer pivot rows as primitive integer rows.
The subspace `kernel` returns keeps those echelon rows, a row basis of the
matrix, as its annihilator (`Subspace.annihilator`); in a wider space each
still leads at its top, so copies handed to a later `kernel` become its pivot
rows unreduced.

A canonical basis answers its own slices without elimination: the projection
before a cut (`Subspace.head`), the vectors vanishing before it
(`Subspace.tail`) and, for a subspace no kernel built, the annihilator
(`Subspace.constraint_matrix`, held once read) are read off it.  Where only
a rank is needed, `rank` counts the pivot rows of the same integer insertion
and stops there.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress, filterfalse, repeat
from math import gcd, lcm
from operator import is_not, itemgetter
from typing import Iterable, Sequence

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact rational: {x!r}")


_RATIONAL = {Fraction, int}  # the exact values


def _frozen_row(row: Iterable) -> tuple[Fraction | int, ...]:
    """The row as a tuple of exact values: kept as is when every entry is a
    Fraction or an int (a type check run in C), else coerced to Fractions."""
    row = tuple(row)
    if _RATIONAL.issuperset(map(type, row)):
        return row
    return tuple(rat(x) for x in row)


def _nonzeros(row: Sequence[Fraction | int]) -> tuple[tuple[int, Fraction | int], ...]:
    # zeros are mostly one shared object, so an identity test run in C skips
    # them, and only the other entries are tested
    zero = next(filterfalse(None, row), None)
    return tuple(filter(itemgetter(1), compress(enumerate(row), map(is_not, row, repeat(zero)))))


# --------------------------- matrices ---------------------------


class RatMatrix:
    """Immutable sparse matrix over Q.

    ``pairs[i]`` is row i's nonzero (column, value) pairs in ascending
    column order; it is the only storage, so equal matrices are equal as
    data.  ``RatMatrix(data)`` takes dense rows, validates them and reads
    their nonzeros, Fractions and ints kept as given: the one place dense
    rows become pairs.  ``RatMatrix(pairs=rows, cols=w)`` takes rows already
    in that form and checks only that every value is a Fraction or an int.
    Either way 1 and Fraction(1) build equal matrices; each producer keeps
    its columns ascending and its values nonzero by construction.  ``row``
    and ``col`` render dense on demand.

    Zero-row and zero-column shapes are first-class: pass ``cols=`` when the
    row list is empty so the shape survives.
    """

    __slots__ = ("pairs", "rows", "cols")

    def __init__(self, data: Sequence[Sequence] = (), *, cols: int | None = None, pairs=None):
        if pairs is not None:
            if cols is None:
                raise ValueError("pair rows need an explicit column count")
            pairs = tuple(map(tuple, pairs))
            if not _RATIONAL.issuperset(map(type, map(itemgetter(1), chain.from_iterable(pairs)))):
                raise ValueError("pair values must be Fractions or ints")
        else:
            rows = tuple(_frozen_row(r) for r in data)
            if rows:
                width = len(rows[0])
                if any(len(r) != width for r in rows):
                    raise ValueError("ragged rows")
                if cols is not None and cols != width:
                    raise ValueError("cols does not match row width")
                cols = width
            elif cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            pairs = tuple(map(_nonzeros, rows))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "rows", len(pairs))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("RatMatrix is immutable")

    # -- constructors --

    @staticmethod
    def vstack(mats: Sequence["RatMatrix"]) -> "RatMatrix":
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column counts differ")
        return RatMatrix(pairs=chain.from_iterable(m.pairs for m in mats), cols=cols)

    # -- access --

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple[Fraction, ...]:
        line = [_ZERO] * self.cols
        for j, x in self.pairs[i]:
            line[j] = x
        return tuple(line)

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(dict(r).get(j, _ZERO) for r in self.pairs)

    # -- algebra --

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.pairs))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product as a tuple."""
        v = _frozen_row(vec)
        if len(v) != self.cols:
            raise ValueError("shape mismatch in apply")
        return tuple(sum((a * b for j, a in r if (b := v[j])), _ZERO) for r in self.pairs)

    def transpose(self) -> "RatMatrix":
        out: list[list] = [[] for _ in range(self.cols)]
        for i, r in enumerate(self.pairs):  # ascending i keeps each column's order
            for j, x in r:
                out[j].append((i, x))
        return RatMatrix(pairs=out, cols=self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form: (R, pivots), pivots the pivot columns in order.

    The reduced row echelon form of a row space is unique: its nonzero rows
    have leading 1s in strictly increasing columns, and every other row
    vanishes at each of those columns.  R is those rows followed by zero rows
    up to m.rows, so R and the pivots depend on the span of m's rows alone.

    Over Q the row space of m is the kernel of its kernel ((V^⊥)^⊥ = V), so
    `kernel`, run twice, reads its canonical basis; only R becomes Fractions.
    """
    space = kernel(RatMatrix(pairs=kernel(m).rows, cols=m.cols))
    out = space.fraction_rows() + [()] * (m.rows - space.dim)
    return RatMatrix(pairs=out, cols=m.cols), space.pivots


def _reduced(rows: Iterable[dict[int, int]]) -> tuple[dict[int, dict[int, int]], tuple[int, ...]]:
    """The reduced echelon form of the integer rows, each led at its top
    column, before any division: (pivot_rows, pivots), pivot_rows[c] the
    integer row whose division by its entry at c, which is positive, is the
    reduced row with pivot c, and pivots those columns in ascending order.

    `_echelon` inserts each row into pivot rows by top column.  Then each
    pivot column is cleared from the rows above it, from the lowest pivot up.
    """
    pivot_rows = _echelon(rows, {})
    pivots = tuple(sorted(pivot_rows))
    # a pivot row has entries only at and below its pivot, and the rows of
    # lower pivots are cleared first, so each vanishes at every other pivot
    # column, and clearing one column never refills another
    for c in pivots:
        row = pivot_rows[c]
        for j in [j for j in row if j != c and j in pivot_rows]:
            row = _eliminate(row, pivot_rows[j], j)
        pivot_rows[c] = row
    return pivot_rows, pivots


def rank(rows: Iterable[Iterable[tuple[int, Fraction | int]]]) -> int:
    """Rank over Q of the rows given by their nonzero (column, value) pairs:
    the number of pivot rows `_echelon`'s integer insertion leaves, with no
    back-substitution and no Fractions built (int rows pass as they are)."""
    return len(_echelon(map(_integer_row, rows), {}))


def _echelon(rows: Iterable[dict[int, int]], pivot_rows: dict) -> dict[int, dict[int, int]]:
    """pivot_rows, by top column, with the integer rows inserted.

    Each row is inserted in turn: while its top column, its greatest, holds
    a pivot row, it is reduced against that row (`_eliminate`); a row left
    nonzero, divided by its content and made positive there, becomes the
    pivot row of its top column.  A row already primitive and positive there
    is stored itself, not a copy.
    """
    for row in rows:
        while row:
            c = max(row)
            prow = pivot_rows.get(c)
            if prow is None:
                g = gcd(*row.values())
                pivot_rows[c] = _divided(row, -g if row[c] < 0 else g)
                break
            row = _eliminate(row, prow, c)
    return pivot_rows


def _integer_row(pairs: Iterable[tuple[int, Fraction]]) -> dict[int, int]:
    """The row of the (column, value) pairs as {column: int}, scaled by the
    lcm of its denominators (ints pass as they are).  Zero numerators are
    dropped: every key must be able to lead, or a pivot of 0 would be kept."""
    row: dict[int, int] = {}
    dens: dict[int, int] = {}
    for j, x in pairs:
        num, den = (x, 1) if type(x) is int else x.as_integer_ratio()
        if num:
            row[j] = num
            if den != 1:
                dens[j] = den
    if dens:
        scale = lcm(*dens.values())
        row = {j: v * (scale // dens.get(j, 1)) for j, v in row.items()}
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """The multiple (p/g)·row − (f/g)·prow that vanishes at c, where p and f
    are the entries of prow and row there and g = gcd(p, f).

    Entries that cancel are dropped, so the keys stay the nonzero columns
    and a reduction loop ends.  A row scaled up is divided by its content,
    which keeps the integers as small as the row space allows.
    """
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]
    if a != 1 and row:
        row = _divided(row, gcd(*row.values()))
    return row


def _divided(row: dict[int, int], g: int) -> dict[int, int]:
    return row if g == 1 else {j: v // g for j, v in row.items()}


# --------------------------- subspaces ---------------------------


class Subspace:
    """A linear subspace of Q^ambient_dim with a canonical basis.

    The basis is in reduced echelon form: b_j is 1 at its pivot p_j, pivots
    strictly increase, and every other b_l is 0 at p_j.  ``rows[j]``, the
    only storage, is d_j·b_j as nonzero (index, int) pairs in ascending
    index order, led by (p_j, d_j), d_j > 0 the lcm of b_j's denominators:
    b_j's primitive integer row.  Canonicality means equal subspaces are
    equal as data, which the rest of the package leans on for caching and
    for byte-stable reports; ``scaled``, ``fraction_rows`` and ``basis`` render b_j.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_kept", "_table")

    def __init__(self, ambient_dim: int, rows: Iterable[Iterable[tuple[int, int]]], kept=None):
        # Not for direct use -- go through from_spanning, full or kernel, whose
        # rows are canonical as built; the last two pass kept (see `annihilator`).
        rows = tuple(map(tuple, rows))
        pivots = tuple(row[0][0] for row in rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_kept", kept)
        object.__setattr__(self, "_table", None)  # filled by the first `scaled`

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_spanning(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """Span of the given vectors: the nonzero rows of their rref, scaled to integers."""
        r, pivots = rref(RatMatrix(list(vectors), cols=ambient_dim))
        return Subspace(ambient_dim, (_integer_row(row).items() for row in r.pairs[: len(pivots)]))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (((i, 1),) for i in range(ambient_dim)), kept=())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def fraction_rows(self) -> list[list[tuple[int, Fraction]]]:
        """Each basis vector b_j as its nonzero (index, Fraction) pairs: rows[j] over d_j."""
        return [[(i, Fraction(x, row[0][1])) for i, x in row] for row in self.rows]

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basis vectors as dense tuples of Fractions."""
        dense = RatMatrix(pairs=self.fraction_rows(), cols=self.ambient_dim)
        return tuple(map(dense.row, range(self.dim)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    # -- membership and coordinates --

    def reduce_mod(self, vec: Sequence) -> tuple[Fraction | int, ...]:
        """Canonical coset representative of vec modulo this subspace.

        Subtracts the unique combination of basis vectors matching vec on the
        pivot coordinates; the result vanishes there.  reduce_mod(v) == 0 iff
        v lies in the subspace.
        """
        v = list(self._checked(vec))
        for p, row in zip(self.pivots, self.fraction_rows()):
            c = v[p]
            if c:
                for i, x in row:
                    v[i] -= c * x
        return tuple(v)

    def _checked(self, vec: Sequence) -> tuple[Fraction | int, ...]:
        v = _frozen_row(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        return v

    def leads(self) -> list[int]:
        """Each basis vector's d_j, the lead of its integer row d_j·b_j."""
        return [row[0][1] for row in self.rows]

    def scaled(self) -> tuple[int, dict[int, tuple[int, tuple[tuple[int, int], ...]]]]:
        """(D, table): D the lcm of the leads d_j, table[p_j] = (j, D·b_j), each
        row D·b_j as (index, int) pairs led by (p_j, D); built once and held."""
        if self._table is None:
            scale, table = lcm(*self.leads()), {}
            for j, row in enumerate(self.rows):
                k = scale // row[0][1]
                table[row[0][0]] = (j, row if k == 1 else tuple((i, k * x) for i, x in row))
            object.__setattr__(self, "_table", (scale, table))
        return self._table

    def _coords(self, pairs: Sequence[tuple[int, Fraction | int]]) -> list | None:
        """Canonical coordinates (j, x_j) of the vector with these nonzero
        (index, value) pairs, or None if it lies outside: x_j is its entry at
        pivot p_j, where b_j alone is nonzero, and v lies inside exactly when
        D·v - sum x_j·(D·b_j) vanishes (`scaled`), its pivot entries cancelling."""
        scale, table = self.scaled()
        coords, rest = [], {}
        for i, x in pairs:
            rest[i] = rest.get(i, 0) + scale * x
            if i in table:
                j, row = table[i]
                coords.append((j, x))
                for c, b in row:
                    rest[c] = rest.get(c, 0) - x * b
        return None if any(rest.values()) else coords

    def contains_vector(self, vec: Sequence) -> bool:
        return self._coords(_integer_row(_nonzeros(self._checked(vec))).items()) is not None

    def head(self, stop: int) -> "Subspace":
        """The projection onto the coordinates before stop: the basis vectors
        with pivot < stop, cut there, already are its canonical basis, and
        every other basis vector projects to zero.  A cut integer row is
        divided by its content again; one led by 1 has none."""
        j = bisect_left(self.pivots, stop)
        cut = []
        for row in self.rows[:j]:
            row = row[: bisect_left(row, stop, key=itemgetter(0))]
            g = 1 if row[0][1] == 1 else gcd(*map(itemgetter(1), row))
            cut.append(row if g == 1 else [(i, x // g) for i, x in row])
        return Subspace(stop, cut)

    def tail(self, start: int) -> "Subspace":
        """The vectors vanishing before start, cut at start: the basis vectors
        with pivot >= start, shifted there, already are its canonical basis."""
        j = bisect_left(self.pivots, start)
        shifted = ([(i - start, x) for i, x in row] for row in self.rows[j:])
        return Subspace(self.ambient_dim - start, shifted)

    def constraint_matrix(self) -> RatMatrix:
        """A matrix with kernel exactly this subspace, read off the integer rows:
        row sum_p b_p[j] e_p - e_j for each non-pivot j (b_p has pivot p), as a
        primitive integer row; for a kernel, its echelon rows, negated and scaled."""
        d = self.ambient_dim
        rows = {j: [] for j in sorted(set(range(d)).difference(self.pivots))}
        for p, row in zip(self.pivots, self.rows):  # ascending p keeps each row's order
            for j, x in row[1:]:  # a canonical basis has tail entries off the pivots only
                rows[j].append((p, x, row[0][1]))
        out = []
        for j, entries in rows.items():
            # b_p[j] = x/d_p, so times D, the lcm of the d_p, row j is integral;
            # b_p vanishes before its pivot p, so every p in row j is below j
            scale = lcm(*(lead for _, _, lead in entries))
            line = [(p, x * (scale // lead)) for p, x, lead in entries] + [(j, -scale)]
            g = 1 if scale == 1 else gcd(*(x for _, x in line))
            out.append(line if g == 1 else [(i, x // g) for i, x in line])
        return RatMatrix(pairs=out, cols=d)

    def annihilator(self) -> tuple[dict[int, int], ...]:
        """Integer rows {column: int}, one topped by each non-pivot column,
        whose kernel is this subspace: the echelon rows `kernel` kept, positive
        at their tops, none for `full`, or else `constraint_matrix`'s, held."""
        if self._kept is None:
            object.__setattr__(self, "_kept", tuple(map(dict, self.constraint_matrix().pairs)))
        return self._kept


# --------------------------- derived maps ---------------------------


def kernel(m: RatMatrix | Iterable[dict[int, int]], *, cols: int | None = None) -> Subspace:
    """Null space of m as a canonical Subspace of Q^cols.  m is a RatMatrix,
    or integer rows {column: int} with cols, which the elimination takes
    over as they are: rows primitive and positive at distinct tops, as
    `Subspace.annihilator` gives a kernel's, become pivot rows unreduced, so
    a caller that keeps them hands in copies.

    One elimination gives it.  `_reduced` leads each row of m at its top
    column; its pivots, the pivot columns of that unique echelon form, are
    the rightmost independent columns of m, and every other column f is
    free.  The kernel vector of a free column f is 1 at f and, at each pivot
    column, minus the echelon entry of f in that pivot's row: v/P, v and P
    the entries of the integer pivot row at f and at its pivot.  A pivot row
    has such entries only below its pivot, so f is the vector's leading
    entry, and every other kernel vector vanishes there.  Taken in ascending
    f, these vectors already are the canonical echelon basis, with the free
    columns as its pivots, and no second reduction is needed; each is built
    as its primitive integer row, with no Fraction.

    The Subspace keeps those echelon rows, a row basis of m, as its
    annihilator.
    """
    if isinstance(m, RatMatrix):
        cols, m = m.cols, map(_integer_row, m.pairs)
    elif cols is None:
        raise ValueError("integer rows need an explicit column count")
    pivot_rows, pivots = _reduced(m)
    free = sorted(set(range(cols)).difference(pivots))
    # a pivot row's lead P > 0; its other entries v lie at free columns f
    # only, and b_f is -v/P there.  d_f, the lcm of the reduced denominators
    # P/gcd(v, P) over f's entries, makes d_f·b_f primitive, with the
    # integer -v·d_f/P at p.  Each row keeps its lead, as the Subspace keeps
    # the rows; popping and re-adding it would regrow small dicts
    leads = [pivot_rows[p][p] for p in pivots]
    scale = dict.fromkeys(free, 1)
    for p, lead in zip(pivots, leads):
        for j, v in pivot_rows[p].items():
            if j != p:
                scale[j] = lcm(scale[j], lead // gcd(v, lead))
    rows = {f: [(f, d)] for f, d in scale.items()}
    # ascending p keeps each row's pairs in order
    for p, lead in zip(pivots, leads):
        for j, v in pivot_rows[p].items():
            if j != p:
                rows[j].append((p, -v * scale[j] // lead))
    return Subspace(cols, rows.values(), kept=tuple(pivot_rows[p] for p in pivots))


def image(m: RatMatrix) -> Subspace:
    """Column span of m as a canonical Subspace of Q^rows."""
    return Subspace.from_spanning(m.rows, zip(*map(m.row, range(m.rows))))
