"""Exact rational linear algebra.

Every decision this package makes reduces to ranks, kernels, images and affine
solvability over Q, so arithmetic is exact: entries are `fractions.Fraction`,
floating point never enters.  Matrices are dense, immutable and built from
their rows.

Entries are validated by type at every boundary (`RatMatrix`, `apply`,
`Subspace.reduce_mod`): a row whose entries are all Fractions is kept as is,
any other row is coerced entry by entry, and a float is refused either way.
Zeros are skipped by structure, not by testing each entry: elimination reads
the pivot row's nonzero columns once per pivot, a subspace reads a basis
vector's nonzero (index, value) pairs the first time a membership test
subtracts it and keeps them, and `apply` reads the vector's nonzeros once.

Determinism is part of the contract, not an aspiration.  Row reduction uses a
fixed pivot rule -- leftmost nonzero column, first nonzero row at or below the
cursor, pivot scaled to 1, full elimination above and below -- so echelon
forms, kernel bases and canonical subspace bases are reproducible across runs
and platforms.  A `Subspace` stores the canonical basis of its span as a tuple
of vectors, the nonzero rows of the reduced row echelon form of any spanning
set, hence two equal subspaces compare equal as plain data.

Kernels need only one elimination.  Reducing a matrix with its columns in
reverse order, under the same pivot rule, leaves each free column's kernel
vector with its leading 1 at that column and zeros at every other free
column, which is exactly the canonical basis; the nonzero rows of that one
echelon form also give a row basis of the matrix (`kernel_with_row_basis`).

A canonical basis answers its own slices without elimination: the vectors
vanishing before a coordinate (`Subspace.tail`) and the annihilator
(`Subspace.constraint_matrix`) are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantViolation

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact rational: {x!r}")


_EXACT = {Fraction}


def _frozen_row(row: Iterable) -> tuple[Fraction, ...]:
    """The row as a tuple of Fractions: kept as is when every entry already
    is one (a type check run in C), otherwise coerced entry by entry."""
    row = tuple(row)
    if _EXACT.issuperset(map(type, row)):
        return row
    return tuple(rat(x) for x in row)


# --------------------------- matrices ---------------------------


class RatMatrix:
    """Immutable dense matrix over Q.

    Zero-row and zero-column shapes are first-class: pass ``cols=`` when the
    row list is empty so the shape survives.
    """

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, data: Sequence[Sequence], *, cols: int | None = None):
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
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("RatMatrix is immutable")

    # -- constructors --

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)],
            cols=n,
        )

    @staticmethod
    def vstack(mats: Sequence["RatMatrix"]) -> "RatMatrix":
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column counts differ")
        data: list[tuple[Fraction, ...]] = []
        for m in mats:
            data.extend(m._rows)
        return RatMatrix(data, cols=cols)

    # -- access --

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    # -- algebra --

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._rows))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-x for x in r] for r in self._rows], cols=self.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @")
        out = [[_ZERO] * other.cols for _ in range(self.rows)]
        orows = other._rows
        for i, rowa in enumerate(self._rows):
            oi = out[i]
            for k, a in enumerate(rowa):
                if a:  # skip-zero: matrices here are mostly sparse
                    rb = orows[k]
                    for j, b in enumerate(rb):
                        if b:
                            oi[j] += a * b
        return RatMatrix(out, cols=other.cols)

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product as a tuple."""
        v = _frozen_row(vec)
        if len(v) != self.cols:
            raise ValueError("shape mismatch in apply")
        support = [(j, b) for j, b in enumerate(v) if b]
        out = []
        for r in self._rows:
            s = _ZERO
            for j, b in support:
                a = r[j]
                if a:
                    s += a * b
            out.append(s)
        return tuple(out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self._rows[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def is_zero(self) -> bool:
        return all(not x for r in self._rows for x in r)

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        return rref(self)

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._rows)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form with the fixed pivot rule.

    Returns (R, pivots) where pivots are the pivot column indices in order.
    Pivot choice: scan columns left to right; within a column take the first
    nonzero row at or below the cursor; scale the pivot to 1; eliminate the
    column everywhere else.
    """
    work = [list(r) for r in m._rows]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    cursor = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(cursor, nrows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[cursor], work[pivot_row] = work[pivot_row], work[cursor]
        prow = work[cursor]
        # the pivot row's nonzero columns, read once: scaling keeps them
        # nonzero, and elimination only ever touches them
        support = [j for j in range(col, ncols) if prow[j]]
        inv = _ONE / prow[col]
        if inv != 1:
            for j in support:
                prow[j] *= inv
        pairs = [(j, prow[j]) for j in support]
        for i in range(nrows):
            if i == cursor:
                continue
            target = work[i]
            factor = target[col]
            if factor:
                for j, x in pairs:
                    target[j] -= factor * x
        pivots.append(col)
        cursor += 1
        if cursor == nrows:
            break
    return RatMatrix(work, cols=ncols), tuple(pivots)


# --------------------------- subspaces ---------------------------


class Subspace:
    """A linear subspace of Q^ambient_dim with a canonical basis.

    ``basis`` is a tuple of vectors (tuples of Fraction) in reduced echelon
    form: vector j has entry 1 at its pivot p_j, pivots strictly increase,
    and every other basis vector vanishes at p_j.  Canonicality means equal
    subspaces are equal as data, which the rest of the package leans on for
    caching and for byte-stable reports.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_support")

    def __init__(
        self,
        ambient_dim: int,
        basis: tuple[tuple[Fraction, ...], ...],
        pivots: tuple[int, ...],
    ):
        # Not for direct use -- go through from_spanning/zero/full, or
        # kernel_with_row_basis, whose basis is canonical as built.
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)
        # each basis vector's nonzero (index, value) pairs, read the first
        # time reduce_mod needs them; a cache, so no part of equality,
        # hashing or repr
        object.__setattr__(self, "_support", [None] * len(basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_spanning(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """Span of the given vectors: the nonzero rows of their rref."""
        r, pivots = rref(RatMatrix(list(vectors), cols=ambient_dim))
        return Subspace(ambient_dim, r._rows[: len(pivots)], pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(
            ambient_dim, RatMatrix.identity(ambient_dim)._rows, tuple(range(ambient_dim))
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    # -- membership and coordinates --

    def reduce_mod(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Canonical coset representative of vec modulo this subspace.

        Subtracts the unique combination of basis vectors matching vec on the
        pivot coordinates; the result vanishes there.  reduce_mod(v) == 0 iff
        v lies in the subspace.
        """
        v = list(_frozen_row(vec))
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        support = self._support
        for j, p in enumerate(self.pivots):
            c = v[p]
            if c:
                pairs = support[j]
                if pairs is None:
                    pairs = support[j] = [
                        (i, x) for i, x in enumerate(self.basis[j]) if x
                    ]
                for i, x in pairs:
                    v[i] -= c * x
        return tuple(v)

    def contains_vector(self, vec: Sequence) -> bool:
        return not any(self.reduce_mod(vec))

    def coords_of(self, vec: Sequence) -> tuple[Fraction, ...] | None:
        """Coordinates of vec in the canonical basis, or None if outside."""
        if any(self.reduce_mod(vec)):
            return None
        # basis vector j is the only one nonzero at its pivot
        return tuple(rat(vec[p]) for p in self.pivots)

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(self.contains_vector(v) for v in other.basis)

    def tail(self, start: int) -> "Subspace":
        """The vectors vanishing before start, cut at start: the basis vectors
        with pivot >= start, cut there, already are its canonical basis."""
        keep = [j for j, p in enumerate(self.pivots) if p >= start]
        basis = tuple(self.basis[j][start:] for j in keep)
        pivots = tuple(self.pivots[j] - start for j in keep)
        return Subspace(self.ambient_dim - start, basis, pivots)

    def constraint_matrix(self) -> RatMatrix:
        """A matrix with kernel exactly this subspace, read off the basis: row
        e_j - sum_p v_p[j] e_p for each non-pivot j (v_p has pivot p)."""
        rows = []
        for j in sorted(set(range(self.ambient_dim)) - set(self.pivots)):
            row = [_ZERO] * self.ambient_dim
            row[j] = _ONE
            for v, p in zip(self.basis, self.pivots):
                if v[j]:
                    row[p] = -v[j]
            rows.append(row)
        return RatMatrix(rows, cols=self.ambient_dim)


# --------------------------- derived maps ---------------------------


def kernel_with_row_basis(m: RatMatrix) -> tuple[Subspace, RatMatrix]:
    """Null space of m as a canonical Subspace, and a row basis of m.

    One elimination gives both.  ``rref`` runs, with its usual pivot rule, on
    m with the column order reversed, so its pivots are the rightmost
    independent columns of m and every other column f is free.  The kernel
    vector of a free column f is 1 at f and, at each pivot column, minus the
    echelon entry of f in that pivot's row.  Reversed reduction leaves such
    entries only for pivots to the right of f, so f is the vector's leading
    entry, and every other kernel vector vanishes there.  Taken in ascending
    f, these vectors already are the canonical echelon basis, with
    the free columns as its pivots, and no second reduction is needed.

    The nonzero rows of the same echelon form, with the columns put back in
    order, are a row basis of m.  Their leading entries sit in the rightmost
    columns first: for jet matrices, the highest-order coordinates.
    """
    cols = m.cols
    r, rev_pivots = rref(RatMatrix([row[::-1] for row in m._rows], cols=cols))
    pivots = [cols - 1 - p for p in rev_pivots]
    pivot_set = set(pivots)
    free = [f for f in range(cols) if f not in pivot_set]
    echelon = [r.row(i) for i in range(len(pivots))]
    basis = []
    for f in free:
        v = [_ZERO] * cols
        v[f] = _ONE
        rev_f = cols - 1 - f
        for row, p in zip(echelon, pivots):
            coeff = row[rev_f]
            if coeff:
                v[p] = -coeff
        basis.append(tuple(v))
    space = Subspace(cols, tuple(basis), tuple(free))
    return space, RatMatrix([row[::-1] for row in echelon], cols=cols)


def kernel(m: RatMatrix) -> Subspace:
    """Null space of m as a canonical Subspace of Q^cols (see kernel_with_row_basis)."""
    return kernel_with_row_basis(m)[0]


def image(m: RatMatrix) -> Subspace:
    """Column span of m as a canonical Subspace of Q^rows."""
    return Subspace.from_spanning(m.rows, zip(*m._rows))


@dataclass(frozen=True)
class AffineSolution:
    """Outcome of an affine system A x = b.

    Either feasible (a particular solution plus the kernel of A) or
    infeasible, in which case ``witness`` is a Fredholm certificate:
    y with yᵀA = 0 and <y, b> != 0.  Infeasibility is a value, not an error.
    """

    particular: tuple[Fraction, ...] | None
    kernel: Subspace
    witness: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.particular is not None


def solve(a: RatMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One solution of A x = b, or None if infeasible."""
    bv = [rat(x) for x in b]
    if len(bv) != a.rows:
        raise ValueError("right-hand side has wrong length")
    aug = RatMatrix([row + (x,) for row, x in zip(a._rows, bv)], cols=a.cols + 1)
    r, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [_ZERO] * a.cols
    for i, p in enumerate(pivots):
        x[p] = r[i, a.cols]
    return tuple(x)


def solve_affine(a: RatMatrix, b: Sequence) -> AffineSolution:
    particular = solve(a, b)
    ker = kernel(a)
    witness = None
    if particular is None:
        bv = [rat(x) for x in b]
        for y in kernel(a.transpose()).basis:
            pairing = sum((yi * bi for yi, bi in zip(y, bv) if yi and bi), _ZERO)
            if pairing:
                witness = y
                break
        if witness is None:
            raise InvariantViolation("infeasible system without a Fredholm witness")
    return AffineSolution(particular, ker, witness)
