"""Matrix helpers that only tests call, built on `RatMatrix.apply`, `rref`,
`spencer._slot_matrix` and the membership routine `Subspace._coords`: the
library keeps no algebra without a caller.  `map_out` is a chain's exact
differential, with the leads D put back as Fractions, as a reference for
the integer ∂·D that `spencer.cohomology` ranks.  `full_tower` is the tableau
tower with no shortcut, every level built, as a reference for the one
`tableau.tower` stops at its first involutive level.  The ∂-symmetry rows of
a generalized tableau and of a connection are written out by hand here, as
references for the δ on 1-forms that `spencer._slot_matrix` assembles for
both, and `combine` is a dense Fraction sum, a reference for
`ratlin._combine`."""

from fractions import Fraction

from formalpde.ratlin import RatMatrix, Subspace, rref
from formalpde.spencer import TableauChain, _slot_matrix
from formalpde.tableau import Tableau, _verify_contracts_into, prolong
from formalpde.tensorspace import sym_dim


def zeros(rows: int, cols: int) -> RatMatrix:
    return RatMatrix([[0] * cols for _ in range(rows)], cols=cols)


def identity(n: int) -> RatMatrix:
    return RatMatrix(pairs=[((i, Fraction(1)),) for i in range(n)], cols=n)


def product(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """a b, one column of b at a time through ``a.apply``."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    cols = [a.apply(b.col(c)) for c in range(b.cols)]
    return RatMatrix([[col[r] for col in cols] for r in range(a.rows)], cols=b.cols)


def coords_of(space: Subspace, vec) -> tuple[Fraction, ...] | None:
    """vec's coordinates in space's canonical basis, or None if outside: the
    pivot entries `Subspace._coords` reads over vec's nonzeros."""
    if len(vec) != space.ambient_dim:
        raise ValueError("vector has wrong ambient dimension")
    coords = space._coords([(i, Fraction(x)) for i, x in enumerate(vec) if x])
    if coords is None:
        return None
    return tuple(dict(coords).get(j, Fraction(0)) for j in range(space.dim))


def contains(space: Subspace, other: Subspace) -> bool:
    """Whether other lies in space: every integer row of other's canonical
    basis has coordinates in space (`Subspace._coords`)."""
    if space.ambient_dim != other.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return all(space._coords(row) is not None for row in other.rows)


def rref_rank(m: RatMatrix) -> int:
    """The rank of m, its rref's pivot count, so that test ranks do not go
    through `ratlin.rank`."""
    return len(rref(m)[1])


def map_out(chain: TableauChain, l: int, m: int) -> RatMatrix:
    """The exact differential leaving slot (l, m) of chain, into slot (l-1, m+1):
    ∂ = (∂·D)·D⁻¹ with D = diag(levels[l].leads()), assembled by `_slot_matrix`."""
    if l < 0:
        raise ValueError("no outgoing map below the bottom")
    if l >= len(chain.levels):
        raise ValueError("chain too short: level not present")
    leads, partial = chain.levels[l].leads(), chain.partials[l]
    exact = ([(c, Fraction(x, leads[c])) for c, x in row] for row in partial.pairs)
    return _slot_matrix(chain.n, m, RatMatrix(pairs=exact, cols=partial.cols))


def slot_map(partial: RatMatrix, n: int, m: int) -> RatMatrix:
    """δ_∂ : Λ^m ⊗ R^G -> Λ^(m+1) ⊗ F for ∂ = partial (rows b*n + i): the map
    out of slot (0, m) of the one-level chain that ∂ starts."""
    return map_out(TableauChain(n, (Subspace.full(partial.cols),), (partial,)), 0, m)


def full_tower(t: Tableau, depth: int) -> TableauChain:
    """Levels 0 .. depth of t's tower, each built by `prolong` and its ∂
    checked by `_verify_contracts_into`: a chain with no involution, which
    every `cohomology` entry reads off ranks.  Generalized: R^p with t's own
    ∂ under the classical tower of g^(1)(∂)."""
    if not t.classical:
        rest = full_tower(Tableau(n=t.n, f=t.dim, space=prolong(t)), depth - 1)
        return TableauChain(
            t.n, (Subspace.full(t.dim), *rest.levels), (t.partial_map, *rest.partials)
        )
    below = Subspace.full(sym_dim(t.n, t.degree - 1) * t.f)
    levels, partials, space = [], [], t.space
    for degree in range(t.degree, t.degree + depth + 1):
        if levels:
            space = prolong(Tableau(n=t.n, f=t.f, space=below, degree=degree - 1))
        partials.append(_verify_contracts_into(t.n, t.f, degree, space, below))
        levels.append(space)
        below = space
    return TableauChain(t.n, tuple(levels), tuple(partials))


def symmetry_equations(t: Tableau) -> RatMatrix:
    """∂(eta_i)(e_j) = ∂(eta_j)(e_i) for i < j, as rows over eta (flat c*n + i),
    one row per output coordinate b and pair i < j, b slowest."""
    n, partial = t.n, t.partial_map
    rows = []
    for b in range(t.f):
        for i in range(n):
            for j in range(i + 1, n):
                # eta_i is the slice of the coordinates c * n + i
                row = [(c * n + i, x) for c, x in partial.pairs[b * n + j]]
                row += [(c * n + j, -x) for c, x in partial.pairs[b * n + i]]
                rows.append(sorted(row))
    return RatMatrix(pairs=rows, cols=n * t.dim)


def symmetry_rows(conn) -> RatMatrix:
    """A_j psi_i - A_i psi_j = 0 for i < j, then b, as rows over (e, psi)."""
    n, sd, cd = conn.n, conn.source_dim, conn.coeff_dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for b in range(cd):
                # i < j, so the two psi blocks are distinct and in column order
                row = [((1 + i) * sd + c, x) for c, x in conn.mats[j].pairs[b]]
                row += [((1 + j) * sd + c, -x) for c, x in conn.mats[i].pairs[b]]
                rows.append(row)
    return RatMatrix(pairs=rows, cols=(1 + n) * sd)


def combine(terms, rows, width: int) -> dict:
    """The nonzero entries {j: v} of Σ a·rows[k] over the (k, a) in terms, each
    rows[k] a row's (j, x) pairs, summed as dense Fraction vectors of the width."""
    matrix = RatMatrix(pairs=rows, cols=width)
    total = [Fraction(0)] * width
    for k, a in terms:
        total = [s + a * x for s, x in zip(total, matrix.row(k))]
    return {j: v for j, v in enumerate(total) if v}
