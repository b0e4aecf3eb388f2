"""Tableaux and prolongation towers.

A classical tableau of degree d is a subspace g of S^d E* ⊗ F (degree 1 is
the textbook Hom(E, F) case); its prolongation is

    g^(1) = { xi in S^(d+1) E* ⊗ F : iota_v xi in g for every v },

computed as an intersection of contraction preimages, with every contraction
read off `tensorspace.iota_table`.  A generalized tableau is an abstract
carrier subspace g together with a degree-lowering map ∂ : g -> Hom(E, F)
(rows b*n + i); its first prolongation lives in S^1 ⊗ R^p over the canonical
basis of g (p = dim g),

    g^(1)(∂) = { eta : ∂(eta(X))(Y) = ∂(eta(Y))(X) for all X, Y },

and higher prolongations are classical prolongations of g^(1)(∂), so ∂ is
consumed exactly once, at level 1.

Towers re-verify, level by level, that each computed space really contracts
into the previous one, and keep the coordinates of those contractions: they
are the level's degree-lowering map ∂ in basis coordinates, the one encoding
from which `TableauTower.chain` feeds every Spencer differential.  A vanished
level makes all later ones zero by construction (monotone vanishing is
structural, not re-derived).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, kernel
from .spencer import TableauChain
from .tensorspace import iota_apply, iota_table, sym_dim

_ZERO = Fraction(0)


# --------------------------- the tableau type ---------------------------


@dataclass(frozen=True)
class Tableau:
    """A classical or generalized tableau.

    Classical (partial_map is None): ``space`` sits in S^degree ⊗ F, flat
    coordinates a * sym_dim + sym_rank; for degree 1 that ambient is n*f.
    Generalized: ``space`` sits in an abstract carrier Q^ambient, and
    ``partial_map`` gives ∂ on the canonical basis of ``space`` (columns =
    space.dim, rows = n*f with convention b*n + i).  Generalized carriers are
    not required to have ambient n*f -- symbol tableaux of connections live in
    their own source space.
    """

    n: int
    f: int
    space: Subspace
    degree: int = 1
    partial_map: RatMatrix | None = None

    def __post_init__(self):
        if self.n < 0 or self.f < 0:
            raise ValueError("negative dimensions")
        if self.partial_map is None:
            if self.degree < 1:
                raise ValueError("classical tableaux need degree >= 1")
            want = sym_dim(self.n, self.degree) * self.f
            if self.space.ambient_dim != want:
                raise ValueError(
                    f"classical carrier has ambient {self.space.ambient_dim}, want {want}"
                )
        else:
            if self.degree != 1:
                raise ValueError("generalized tableaux carry no symmetric degree")
            if self.partial_map.rows != self.n * self.f:
                raise ValueError("partial_map must have n*f rows (convention b*n+i)")
            if self.partial_map.cols != self.space.dim:
                raise ValueError("partial_map columns must match the carrier basis")

    @property
    def classical(self) -> bool:
        return self.partial_map is None

    @property
    def dim(self) -> int:
        return self.space.dim

    @staticmethod
    def classical_from(n: int, f: int, space: Subspace, degree: int = 1) -> "Tableau":
        return Tableau(n=n, f=f, space=space, degree=degree)

    @staticmethod
    def generalized(n: int, f: int, space: Subspace, partial: RatMatrix) -> "Tableau":
        return Tableau(n=n, f=f, space=space, partial_map=partial)

    @staticmethod
    def full(n: int, f: int, degree: int = 1) -> "Tableau":
        return Tableau(n=n, f=f, space=Subspace.full(sym_dim(n, degree) * f), degree=degree)

    @staticmethod
    def zero(n: int, f: int, degree: int = 1) -> "Tableau":
        return Tableau(n=n, f=f, space=Subspace.zero(sym_dim(n, degree) * f), degree=degree)

    @staticmethod
    def from_matrices(n: int, f: int, mats) -> "Tableau":
        """Degree-1 classical tableau spanned by Hom(E,F) matrices M[a][i]."""
        vecs = []
        for m in mats:
            vecs.append([Fraction(m[a][i]) for a in range(f) for i in range(n)])
        return Tableau(n=n, f=f, space=Subspace.from_spanning(n * f, vecs))


# --------------------------- prolongation ---------------------------


def _classical_prolong(n: int, f: int, degree: int, space: Subspace) -> Subspace:
    target_dim = sym_dim(n, degree + 1) * f
    if target_dim == 0 or n == 0:
        return Subspace.zero(target_dim)
    q = space.constraint_matrix()
    if q.rows == 0:  # free tableau: every contraction lands inside
        return Subspace.full(target_dim)
    # iota_i xi in g  <=>  Q iota_i xi = 0; column c of Q iota_i is
    # alpha_i times the column of Q at c's contraction target
    qrows = [q.row(r) for r in range(q.rows)]
    rows = [
        [_ZERO if hit is None else qrow[hit[0]] * hit[1] for hit in entries]
        for entries in iota_table(n, degree + 1, f)
        for qrow in qrows
    ]
    return kernel(RatMatrix(rows, cols=target_dim))


def _symmetry_equations(t: Tableau) -> RatMatrix:
    """∂(eta_i)(e_j) = ∂(eta_j)(e_i) for i < j, as rows over eta (flat c*n + i)."""
    n, f, p = t.n, t.f, t.space.dim
    partial = t.partial_map
    ambient = sym_dim(n, 1) * p
    rows: list[list[Fraction]] = []
    for b in range(f):
        for i in range(n):
            for j in range(i + 1, n):
                row = [_ZERO] * ambient
                for c in range(p):
                    # ∂(eta_i)(e_j) - ∂(eta_j)(e_i) at output coordinate b
                    co_j = partial[b * n + j, c]
                    co_i = partial[b * n + i, c]
                    if co_j:
                        row[c * n + i] += co_j
                    if co_i:
                        row[c * n + j] -= co_i
                rows.append(row)
    return RatMatrix(rows, cols=ambient)


def prolong(t: Tableau) -> Subspace:
    """First prolongation; S^(degree+1) ⊗ F for classical, S^1 ⊗ R^p for generalized."""
    if t.classical:
        return _classical_prolong(t.n, t.f, t.degree, t.space)
    return kernel(_symmetry_equations(t))


# --------------------------- towers ---------------------------


@dataclass(frozen=True)
class TableauTower:
    """Levels g^(1) .. g^(depth) over a base tableau, each with its ∂.

    For a classical base, level i sits in S^(degree+i) ⊗ F.  For a generalized
    base, levels sit in S^i ⊗ R^p over the canonical basis of the carrier
    (p = base.dim), and level 1 consumed ∂.  contractions[i-1] is ∂ on level
    i: ι of its basis vectors in the basis of level i-1 (g, or R^p for a
    generalized base), as plain rows b*n + i.
    """

    base: Tableau
    levels: tuple[Subspace, ...]
    contractions: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(level.dim for level in self.levels)

    def chain(self) -> TableauChain:
        """The tower as a chain ready for cohomology.

        Classical: level 0 is g, and its ∂ is ι into the full S^(degree-1) ⊗ F.
        Generalized: level 0 is the full carrier-coordinate space R^p, and its
        ∂ is the tableau's own.
        """
        t = self.base
        if t.classical:
            level0 = t.space
            bottom = Subspace.full(sym_dim(t.n, t.degree - 1) * t.f)
            rows0 = _verify_contracts_into(t.n, t.f, t.degree, t.space, bottom)
            partial0 = RatMatrix(rows0, cols=t.dim)
        else:
            level0, partial0 = Subspace.full(t.dim), t.partial_map
        partials = tuple(
            RatMatrix(rows, cols=level.dim)
            for rows, level in zip(self.contractions, self.levels)
        )
        return TableauChain(
            n=t.n, levels=(level0,) + self.levels, partials=(partial0,) + partials
        )


def _verify_contracts_into(n: int, f: int, degree: int, level: Subspace, prev: Subspace):
    """ι of every basis vector of level in prev's basis, rows b*n + i.

    Raises InvariantViolation when a contraction escapes prev.
    """
    rows = [()] * (n * prev.dim)
    for i, entries in enumerate(iota_table(n, degree, f)):
        images = []
        for v in level.basis:
            img = iota_apply(entries, v, prev.ambient_dim)
            if not prev.contains_vector(img):
                raise InvariantViolation(
                    "tower level does not contract into its predecessor"
                )
            # prev's basis vector j is the only one nonzero at its pivot
            images.append(list(map(img.__getitem__, prev.pivots)))
        for b, row in enumerate(zip(*images)):
            rows[b * n + i] = row
    return tuple(rows)


def tower(t: Tableau, depth: int) -> TableauTower:
    """Prolongations g^(1) .. g^(depth), each level re-verified against the last."""
    if depth < 1:
        raise ValueError("tower needs depth >= 1")
    levels: list[Subspace] = []
    contractions = []
    fiber = t.f if t.classical else t.dim
    prev = t.space if t.classical else Subspace.full(fiber)
    for i in range(1, depth + 1):
        degree_i = (t.degree + i) if t.classical else i
        if prev.dim == 0:
            nxt = Subspace.zero(sym_dim(t.n, degree_i) * fiber)
            contractions.append(())
        else:
            if i > 1 or t.classical:
                nxt = _classical_prolong(t.n, fiber, degree_i - 1, prev)
            else:
                equations = _symmetry_equations(t)
                nxt = kernel(equations)
                if any(any(equations.apply(v)) for v in nxt.basis):
                    raise InvariantViolation(
                        "generalized first prolongation violates ∂-symmetry"
                    )
            contractions.append(_verify_contracts_into(t.n, fiber, degree_i, nxt, prev))
        levels.append(nxt)
        prev = nxt
    return TableauTower(base=t, levels=tuple(levels), contractions=tuple(contractions))


# --------------------------- classification ---------------------------


@dataclass(frozen=True)
class TypeVerdict:
    """Finite/infinite type, certified only up to the inspected bound.

    kind == "finite": level is the smallest l with g^(l) = 0 (g^(0) = g).
    kind == "infinite-up-to": nothing vanished through l_max; no claim beyond.
    """

    kind: str
    level: int
    ranks: tuple[int, ...]


def classify_type(tw: TableauTower, l_max: int) -> TypeVerdict:
    """The type through level l_max, read off a tower at least that deep."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    if l_max > len(tw.levels):
        raise ValueError("l_max exceeds the tower depth")
    ranks = (tw.base.dim,) + tw.ranks[:l_max]
    for l, r in enumerate(ranks):
        if r == 0:
            return TypeVerdict(kind="finite", level=l, ranks=ranks)
    return TypeVerdict(kind="infinite-up-to", level=l_max, ranks=ranks)
