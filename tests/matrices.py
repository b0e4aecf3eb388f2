"""Matrix helpers that only tests call, built on `RatMatrix.apply`, `rref`,
`TableauChain.map_out` and the membership routine `Subspace._coords`: the
library keeps no algebra without a caller."""

from fractions import Fraction

from formalpde.ratlin import RatMatrix, Subspace, rref
from formalpde.spencer import TableauChain


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


def slot_map(partial: RatMatrix, n: int, m: int) -> RatMatrix:
    """δ_∂ : Λ^m ⊗ R^G -> Λ^(m+1) ⊗ F for ∂ = partial (rows b*n + i): the map
    out of slot (0, m) of the one-level chain that ∂ starts."""
    return TableauChain(n, (Subspace.full(partial.cols),), (partial,)).map_out(0, m)
