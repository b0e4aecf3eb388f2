"""Tableaux and prolongation towers.

A classical tableau of degree d is a subspace g of S^d E* ⊗ F (degree 1 is
the textbook Hom(E, F) case); its prolongation is

    g^(1) = { xi in S^(d+1) E* ⊗ F : iota_v xi in g for every v },

computed as an intersection of contraction preimages, with every contraction
read backwards off `tensorspace.raise_table`: in jet components, ι_i at c is
the coordinate x_i raises c to, with coefficient 1.  A generalized tableau is
an abstract carrier subspace g together with a degree-lowering map
∂ : g -> Hom(E, F) (rows b*n + i); its first prolongation lives in
S^1 ⊗ R^p over the canonical basis of g (p = dim g),

    g^(1)(∂) = { eta : ∂(eta(X))(Y) = ∂(eta(Y))(X) for all X, Y },

the kernel of ∂'s Spencer δ on 1-forms (`spencer._slot_matrix`), and higher
prolongations are classical prolongations of g^(1)(∂).

`tower` returns the `TableauChain` that cohomology and `classify_type` read.
A tower is the prolongations of one tableau: level 0 is g with ι into the
full S^(d-1) ⊗ F, and every level above it is `prolong` of the one below.  A
generalized tableau's tower is R^p with its own ∂ at level 0, g^(1)(∂) at
level 1, and the classical tower of g^(1)(∂) above that, so ∂ is used once,
under a classical tower.  `tower` re-verifies that each level contracts into
the previous one, and keeps the coordinates of those contractions as a
`RatMatrix`: the level's degree-lowering map ∂ in basis coordinates, the one
encoding from which every Spencer differential is assembled.  Both are read
off the level's integer rows d_j·b_j indexed by coordinate once: each row of
∂·D (D = diag(level.leads())) is a column, and the check one integer
residual of columns per direction and annihilator row of the level below,
the rows the prolongation raises: those the level's own elimination kept
(`Subspace.annihilator`; only level 0, cut from the solution fiber, reads
them off its basis, and holds them).  So no level is asked for coordinates,
and no Fraction and no dense vector is built.  An involutive level settles
every level above it, so `tower` stops at the first level l that passes
Cartan's test (`cartan_dims`), with levels 0 .. l+1 built by `prolong`
and contraction-checked, and the chain reads every level above off the
characters α_j (`spencer.Involution`).
`check_tower_budget` holds the tower's size budget, MAX_TOWER_WORK: `tower`
refuses a tower past it, or deeper than its square root, before the first
level is built.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, _combine, _echelon, kernel
from .spencer import Involution, TableauChain, _slot_matrix
from .tensorspace import binomial_past, raise_table, sym_dim


# --------------------------- the tableau type ---------------------------


class Tableau(namedtuple("Tableau", "n f space degree partial_map")):
    """A classical or generalized tableau.

    Classical (partial_map is None): ``space`` sits in S^degree ⊗ F, flat
    coordinates a * sym_dim + sym_rank; for degree 1 that ambient is n*f.
    Generalized: ``space`` sits in an abstract carrier Q^ambient, and
    ``partial_map`` gives ∂ on the canonical basis of ``space`` (columns =
    space.dim, rows = n*f with convention b*n + i).  Generalized carriers are
    not required to have ambient n*f -- symbol tableaux of connections live in
    their own source space.
    """

    __slots__ = ()

    def __new__(cls, n: int, f: int, space: Subspace, degree: int = 1,
                partial_map: RatMatrix | None = None):
        if n < 0 or f < 0:
            raise ValueError("negative dimensions")
        if partial_map is None:
            if degree < 1:
                raise ValueError("classical tableaux need degree >= 1")
            want = sym_dim(n, degree) * f
            if space.ambient_dim != want:
                raise ValueError(
                    f"classical carrier has ambient {space.ambient_dim}, want {want}"
                )
        else:
            if degree != 1:
                raise ValueError("generalized tableaux carry no symmetric degree")
            if partial_map.rows != n * f:
                raise ValueError("partial_map must have n*f rows (convention b*n+i)")
            if partial_map.cols != space.dim:
                raise ValueError("partial_map columns must match the carrier basis")
        return tuple.__new__(cls, (n, f, space, degree, partial_map))

    @classmethod
    def _make(cls, fields):  # so _replace checks its record too
        return cls(*fields)

    @property
    def classical(self) -> bool:
        return self.partial_map is None

    @property
    def dim(self) -> int:
        return self.space.dim

    @staticmethod
    def generalized(n: int, f: int, space: Subspace, partial: RatMatrix) -> "Tableau":
        return Tableau(n=n, f=f, space=space, partial_map=partial)


# --------------------------- prolongation ---------------------------


def _symmetry_equations(t: Tableau) -> RatMatrix:
    """∂(eta_i)(e_j) = ∂(eta_j)(e_i) for i < j, as rows over eta (flat c*n + i):
    δ of ∂ on 1-forms, its column s*p + c (e_s ⊗ v_c) renamed to c*n + s."""
    n, p = t.n, t.space.dim
    delta = _slot_matrix(n, 1, t.partial_map)
    rows = (sorted((c % p * n + c // p, x) for c, x in row) for row in delta.pairs)
    return RatMatrix(pairs=rows, cols=n * p)


def prolong(t: Tableau) -> Subspace:
    """First prolongation; S^(degree+1) ⊗ F for classical, S^1 ⊗ R^p for generalized."""
    if not t.classical:
        return kernel(_symmetry_equations(t))
    target_dim = sym_dim(t.n, t.degree + 1) * t.f
    q = t.space.annihilator()
    if not q:  # free tableau: every contraction lands inside
        return Subspace.full(target_dim)
    # iota_i xi in g  <=>  Q iota_i xi = 0; Q's column at c is the column
    # of Q iota_i at c raised by x_i.  Q's rows are integer rows keyed by
    # column, and so are these
    rows = [
        {entries[c]: x for c, x in row.items()}
        for entries in raise_table(t.n, t.degree, t.f) for row in q
    ]
    return kernel(rows, cols=target_dim)


# --------------------------- towers ---------------------------


def _verify_contracts_into(n: int, f: int, degree: int, level: Subspace, prev: Subspace):
    """∂ on level: ι of every basis vector of level in prev's basis, rows b*n + i.

    Raises InvariantViolation, naming the first direction, when a contraction
    escapes prev.  With col(u) the column u of the level's integer rows d_j·b_j,
    row b*n + i of ∂·D (D = diag(`level.leads()`)) is col(raise_i(p_b)), and
    every ι_i b_j lies in prev exactly when Σ_c q[c]·col(raise_i(c)) = 0 for
    each row q of `prev.annihilator()`, the rows `prolong` raised.
    """
    cols = [[] for _ in range(level.ambient_dim)]
    for j, row in enumerate(level.rows):  # ascending j keeps each column's order
        for c, x in row:
            cols[c].append((j, x))
    rows = [None] * (n * prev.dim)
    for i, entries in enumerate(raise_table(n, degree - 1, f)):
        for b, p in enumerate(prev.pivots):
            rows[b * n + i] = cols[entries[p]]
        for residual in prev.annihilator():
            if _combine(((entries[c], k) for c, k in residual.items()), cols):
                raise InvariantViolation(
                    f"tower level of degree {degree} (dim {level.dim}) does not contract "
                    f"into its predecessor (dim {prev.dim}) along direction {i}"
                )
    return RatMatrix(pairs=rows, cols=level.dim)


# Largest n·A^2 a tower may reach, A = f·C(n+d-1, n-1) the ambient of its
# deepest level S^d ⊗ R^f.  The first-order scalar system at depth 1 takes
# 4, 10 and 35 ms CPU in n = 20, 30 and 43, n·A^2 = 8.8e5, 6.5e6 and 3.8e7
# (in-process, budget lifted, Python 3.11, shared 2-vCPU VM).  Heat at depth 14, wave4 at
# depth 5 and u_xi = 0 in 18 variables reach 7.0e4, 5.8e4 and 5.3e5.
MAX_TOWER_WORK = 10**7


def check_tower_budget(t: Tableau, depth: int) -> None:
    """Refuse (ValueError) a depth below 1, an n·A^2 past MAX_TOWER_WORK, or a
    depth past its square root, binding only where A is flat (n <= 1, empty carriers)."""
    if depth < 1:
        raise ValueError("tower needs depth >= 1")
    if depth > isqrt(MAX_TOWER_WORK):
        raise ValueError(
            f"symbol tower to depth {depth} is deeper than {isqrt(MAX_TOWER_WORK)}, "
            f"the square root of the budget of {MAX_TOWER_WORK}"
        )
    fiber = t.f if t.classical else t.dim
    top = t.degree + depth if t.classical else depth
    # n·A^2 > W exactly when A > isqrt(W // n)
    has = t.n and binomial_past(fiber, t.n - 1, top, isqrt(MAX_TOWER_WORK // t.n))
    if has:
        raise ValueError(
            f"symbol tower to depth {depth} reaches S^{top} ⊗ R^{fiber} in {t.n} "
            f"variables, A = {has} coordinates: n·A^2 is above the budget of "
            f"{MAX_TOWER_WORK}"
        )


# Cartan's test tries the coordinate flag, then v_j = (1, t, t^2, ...) at
# t = s + j - 1 for s = 1 .. VANDERMONDE_FLAGS (δ-regularity: failing flags
# are rare).  s = 1 alone misses 4 of the 582 corpus and pool systems, s <= 2 none.
VANDERMONDE_FLAGS = 3


@lru_cache
def _flags(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Cartan's test's flags in n variables, in the order tried."""
    coordinate = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    return coordinate, *(tuple(tuple(x**i for i in range(n)) for x in range(s, s + n))
                         for s in range(1, VANDERMONDE_FLAGS + 1))


def cartan_dims(n: int, partial: RatMatrix, flag) -> tuple[int, ...]:
    """dim g_0 >= dim g_1 >= ... >= dim g_n for a chain level g with ∂·D =
    partial (rows b*n + i) under the flag v_1 .. v_n: g_j is the ξ in g with
    ι_(v_1)ξ = ... = ι_(v_j)ξ = 0, and ι_v = Σ v_i ι_i, so g_j is the kernel of
    the rows Σ_i v_i·partial[b*n + i] (over v_i ≠ 0) of v_1 .. v_j, whose ranks
    one integer elimination reads as they are added (the column scaling D keeps them)."""
    pivot_rows, dims = {}, [partial.cols]
    for v in flag:
        weights = [(i, x) for i, x in enumerate(v) if x]
        rows = [_combine(((b * n + i, x) for i, x in weights), partial.pairs)
                for b in range(partial.rows // n)]
        dims.append(partial.cols - len(_echelon(rows, pivot_rows)))
    return tuple(dims)


def _classical_tower(t: Tableau, depth: int):
    """Levels 0 .. depth of a classical tableau and their ∂: level 0 is g with
    ι into the full S^(degree-1) ⊗ F, level l+1 is `prolong` of level l.  The
    first level l to pass Cartan's test, Σ_(j<n) dim g_j = dim g^(l+1) (always
    >=), once l+1 is built, ends it: levels 0 .. l+1, their ∂ and the
    `Involution` (None if no level passes)."""
    n, f = t.n, t.f
    bottom = Subspace.full(sym_dim(n, t.degree - 1) * f)
    levels, partials = [t.space], [_verify_contracts_into(n, f, t.degree, t.space, bottom)]
    for degree in range(t.degree + 1, t.degree + depth + 1):
        prev = levels[-1]
        nxt = prolong(Tableau(n=n, f=f, space=prev, degree=degree - 1))
        levels.append(nxt)
        partials.append(_verify_contracts_into(n, f, degree, nxt, prev))
        for flag in _flags(n):
            dims = cartan_dims(n, partials[-2], flag)
            if sum(dims[:n]) == nxt.dim:
                chars = tuple(a - b for a, b in zip(dims, dims[1:]))
                return levels, partials, Involution(len(levels) - 2, flag, chars)
    return levels, partials, None


def tower(t: Tableau, depth: int) -> TableauChain:
    """Levels 0 .. depth with their ∂, each re-verified against the last, after
    the budget check, up to the first level that passes Cartan's test and the
    one above it (`_classical_tower`).  Classical: the prolongations of g.
    Generalized: R^p with the tableau's own ∂, then g^(1)(∂), checked against
    the ∂-symmetry equations, then the classical tower of g^(1)(∂) in
    S^i ⊗ R^p (p = dim g), whose levels alone Cartan's test reads."""
    check_tower_budget(t, depth)
    if t.classical:
        levels, partials, involution = _classical_tower(t, depth)
    else:
        g1 = prolong(t)
        equations = _symmetry_equations(t)
        # the equations at each stored row d_j·b_j, zero exactly where they vanish at b_j
        columns = equations.transpose().pairs
        if any(_combine(row, columns) for row in g1.rows):
            raise InvariantViolation(
                f"generalized first prolongation violates ∂-symmetry: dim {g1.dim} "
                f"in S^1 ⊗ R^{t.dim}, {equations.rows} symmetry equations"
            )
        levels, partials, involution = _classical_tower(Tableau(n=t.n, f=t.dim, space=g1), depth - 1)
        levels, partials = [Subspace.full(t.dim), *levels], [t.partial_map, *partials]
        involution = involution and involution._replace(level=involution.level + 1)
    return TableauChain(t.n, tuple(levels), tuple(partials), involution, depth)


# --------------------------- classification ---------------------------


class TypeVerdict(NamedTuple):
    """Finite/infinite type, certified only up to the inspected bound.

    kind == "finite": level is the smallest l with g^(l) = 0 (g^(0) = g).
    kind == "infinite-up-to": nothing vanished through l_max; no claim beyond.
    The field order is the JSON key order of a report's symbol_type.
    """

    kind: str
    level: int
    ranks: tuple[int, ...]


def classify_type(chain: TableauChain, l_max: int) -> TypeVerdict:
    """The type through level l_max, read off a tower at least that deep."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    if l_max > chain.depth:
        raise ValueError("l_max exceeds the tower depth")
    ranks = tuple(map(chain.level_dim, range(l_max + 1)))
    level = chain.vanishing_level()
    if level is not None and level <= l_max:
        return TypeVerdict(kind="finite", level=level, ranks=ranks)
    return TypeVerdict(kind="infinite-up-to", level=l_max, ranks=ranks)
