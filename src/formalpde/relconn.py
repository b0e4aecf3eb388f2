"""Connections relative to a coefficient map, and their torsion.

A relative connection is the data D = (sigma, A_1..A_n): sigma maps the
source space E' into a coefficient space W, the A_i map E' into W, and the
covariant derivative of a section s along d_i is D_i(s) = A_i s + sigma(d_i s).
Everything below is fiberwise exact linear algebra over these matrices.  On
a fiber (`RelConn.on_fiber`) they read its basis over one denominator D
(`Subspace.scaled`), in ints: W rescaled by D, the same fibration, so every
kernel is the same data, and sigma, the A_i, ∂_D and torsion representatives
carry a positive integer factor.

Fixed coordinate layouts:
* points of the first jet of a section are written (e, psi_1..psi_n) with the
  e block first, then the psi blocks in direction order -- ambient dimension
  (1 + n) * source_dim;
* the symbol g = ker(sigma) is carried by its canonical basis, and the
  degree-lowering map ∂_D(v) = (i -> A_i v) is stored with rows b*n + i;
* torsion representatives live in the Λ² ⊗ W slot with ext-major coordinates
  rank(i,j) * coeff_dim + b.

A lift's curvature K(i, j) = A_j psi_i - A_i psi_j is minus the Spencer δ
(`spencer._slot_matrix`) of the connection's ∂ over the whole source at psi.
The torsion at a source point e is read off two canonical kernels, so a
non-surjective sigma needs no special casing: it vanishes iff e lifts into the
classical prolongation fiber, and a point that does not even lift into the
partial fiber is reported with a Fredholm witness; otherwise the torsion is
the canonical representative of its class modulo the image of the ∂-built
Spencer differential.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, _combine, image, kernel, rat
from .spencer import _slot_matrix
from .tableau import Tableau, prolong

_ZERO = Fraction(0)


class RelConn:
    """A relative connection (sigma, A_1..A_n) and its symbol g = ker(sigma)."""

    __slots__ = ("n", "source_dim", "coeff_dim", "sigma", "mats", "symbol")

    def __init__(self, sigma: RatMatrix, mats: Sequence[RatMatrix]):
        n = len(mats)
        if n < 1:
            raise ValueError("need at least one direction")
        if any(m.shape != sigma.shape for m in mats):
            raise ValueError("all A_i must share sigma's shape")
        self.n = n
        self.coeff_dim, self.source_dim = sigma.shape
        self.sigma = sigma
        self.mats = tuple(mats)
        self.symbol = kernel(sigma)

    @staticmethod
    def on_fiber(fiber: Subspace, n: int, coeff_dim: int, reads: Sequence[Sequence]) -> "RelConn":
        """The connection a fiber carries over its basis rows D·b_j (`Subspace.scaled`),
        W scaled by D: reads[t] lists each (b, c) with coordinate t of a row at entry
        c of sigma (b = 0) or of -A_b (1 <= b <= n), all ints.  ``jetpde._relconn``
        passes ``_jet_reads``, ``prolongation_connection`` its (e, psi) blocks."""
        mats = [[[] for _ in range(coeff_dim)] for _ in range(1 + n)]
        for j, row in fiber.scaled()[1].values():  # ascending j keeps columns in order
            for t, x in row:
                for b, c in reads[t]:
                    mats[b][c].append((j, -x if b else x))
        sigma, *mats = [RatMatrix(pairs=rows, cols=fiber.dim) for rows in mats]
        return RelConn(sigma, mats)

    def __repr__(self) -> str:
        return (
            f"RelConn(n={self.n}, source={self.source_dim}, "
            f"coeff={self.coeff_dim}, symbol dim {self.symbol.dim})"
        )


def symbol_map(conn: RelConn) -> Tableau:
    """The generalized tableau (g, ∂_D) with ∂_D(v) = (i -> A_i v), read over the
    rows E·b_j of g (`Subspace.scaled`): E·∂_D, with the same g^(1)(∂_D)."""
    g = conn.symbol
    # row b*n + i holds A_i's row b times each row E·b_j, read by coordinate
    scaled = [row for _, row in g.scaled()[1].values()]
    at = RatMatrix(pairs=scaled, cols=g.ambient_dim).transpose().pairs
    rows = [sorted(_combine(row, at).items()) for row in _source_rows(conn)]
    partial = RatMatrix(pairs=rows, cols=g.dim)
    return Tableau.generalized(conn.n, conn.coeff_dim, g, partial)


def _delta_image(conn: RelConn) -> Subspace:
    """Image of delta_∂D : Hom(E, g) -> Λ² ⊗ W, in slot coordinates: the slot
    map of ∂_D itself, whose one level, all of R^(dim g), has every lead 1."""
    return image(_slot_matrix(conn.n, 1, symbol_map(conn).partial_map))


# --------------------------- prolongation fibers ---------------------------


def _partial_rows(conn: RelConn) -> RatMatrix:
    """Rows of the linear system cutting the partial fiber out of (e, psi)."""
    n, sd, cd = conn.n, conn.source_dim, conn.coeff_dim
    rows = []
    for i in range(n):
        for b in range(cd):
            # A_i e + sigma psi_i: A_i's row over e, sigma's over block i
            psi = [((1 + i) * sd + c, x) for c, x in conn.sigma.pairs[b]]
            rows.append(conn.mats[i].pairs[b] + tuple(psi))
    return RatMatrix(pairs=rows, cols=(1 + n) * sd)


def _source_rows(conn: RelConn) -> list:
    """The rows of ∂(v) = (i -> A_i v) over the whole source: row b*n + i is A_i's row b."""
    return [a.pairs[b] for b in range(conn.coeff_dim) for a in conn.mats]


def _symmetry_rows(conn: RelConn) -> RatMatrix:
    """A_j psi_i - A_i psi_j = 0 for i < j, as rows over (e, psi): minus δ of the
    connection's ∂, shifted past the e block, rows in slot order (i < j, then b)."""
    sd = conn.source_dim
    delta = _slot_matrix(conn.n, 1, RatMatrix(pairs=_source_rows(conn), cols=sd))
    rows = ([(sd + c, -x) for c, x in row] for row in delta.pairs)
    return RatMatrix(pairs=rows, cols=(1 + conn.n) * sd)


class ProlFiber(NamedTuple):
    """The classical prolongation fiber with its two canonical pieces.

    subspace sits in (1+n)*source_dim coordinates; kernel_part is the e = 0
    slice in the psi-block coordinates, read off the canonical basis of
    subspace (``Subspace.tail``), and is canonically the generalized
    prolongation g^(1)(∂_D); projection_image is the set of source points
    admitting a full first-order lift.
    """

    subspace: Subspace
    projection_image: Subspace
    kernel_part: Subspace


def classical_prolongation_fiber(conn: RelConn) -> ProlFiber:
    n, sd = conn.n, conn.source_dim
    fiber = kernel(RatMatrix.vstack([_partial_rows(conn), _symmetry_rows(conn)]))
    proj = fiber.head(sd)
    ker_part = fiber.tail(sd)
    if fiber.dim != ker_part.dim + proj.dim:
        raise InvariantViolation("prolongation fiber fails exactness bookkeeping")
    # the e = 0 slice over the symbol basis is g^(1)(∂_D): a basis vector's integer
    # row, whose psi_i block has symbol coordinates x_c, gives entries c*n + i
    g, etas = conn.symbol, []
    for j in range(ker_part.dim):
        blocks = [[] for _ in range(n)]
        for c, x in ker_part.rows[j]:
            blocks[c // sd].append((c % sd, x))
        coords = [g._coords(block) for block in blocks]
        if None in coords:
            i = coords.index(None)
            raise InvariantViolation(f"kernel part leaves the symbol of dim {g.dim} in direction {i}")
        etas.append([(c * n + i, x) for i, xs in enumerate(coords) for c, x in xs])
    # the rewrite is injective, so the etas span ker_part.dim dimensions, and
    # they span g^(1) iff the dimensions agree and each lies in it
    g1 = prolong(symbol_map(conn))
    if ker_part.dim != g1.dim or any(g1._coords(eta) is None for eta in etas):
        raise InvariantViolation(
            f"kernel part (dim {ker_part.dim}) does not match the generalized "
            f"prolongation (dim {g1.dim})"
        )
    return ProlFiber(subspace=fiber, projection_image=proj, kernel_part=ker_part)


def prolongation_connection(conn: RelConn) -> RelConn:
    """The induced connection on the classical prolongation fiber.

    sigma' extracts the base point e; the direction maps extract -psi_i (the
    sign is forced by compatibility: sigma(psi_i) = -A_i e on the fiber).
    """
    n, sd = conn.n, conn.source_dim
    blocks = [(divmod(t, sd),) for t in range((1 + n) * sd)]
    return RelConn.on_fiber(classical_prolongation_fiber(conn).subspace, n, sd, blocks)


# --------------------------- compatibility ---------------------------


class CompatibilityFailure(NamedTuple):
    condition: int  # 1: A_i sigma' != sigma B_i;  2: A_i B_j != A_j B_i
    directions: tuple[int, ...]
    basis_index: int
    discrepancy: tuple[Fraction, ...]


class CompatibilityReport(NamedTuple):
    ok: bool
    failures: tuple[CompatibilityFailure, ...]


def compatible(outer: RelConn, inner: RelConn) -> CompatibilityReport:
    """Check the two compatibility identities of a nested pair.

    (1) A_i sigma' = sigma B_i for every direction; (2) A_i B_j = A_j B_i for
    i < j.  Both sides are applied to one inner basis vector at a time.
    Failures carry the first basis vector where the identity breaks and the
    nonzero discrepancy, one record per broken identity.
    """
    if inner.n != outer.n:
        raise ValueError("direction counts differ")
    if inner.coeff_dim != outer.source_dim:
        raise ValueError("inner coefficients must be the outer source")
    a, b = outer.mats, inner.mats
    # each identity as (condition, directions, P, Q, R, S) for P Q = R S
    identities = [(1, (i,), a[i], inner.sigma, outer.sigma, b[i]) for i in range(outer.n)]
    identities += [
        (2, (i, j), a[i], b[j], a[j], b[i])
        for i in range(outer.n)
        for j in range(i + 1, outer.n)
    ]
    failures: list[CompatibilityFailure] = []
    for condition, directions, p, q, r, s in identities:
        for c in range(inner.source_dim):
            diff = tuple(x - y for x, y in zip(p.apply(q.col(c)), r.apply(s.col(c))))
            if any(diff):
                failures.append(CompatibilityFailure(condition, directions, c, diff))
                break
    return CompatibilityReport(ok=not failures, failures=tuple(failures))


# --------------------------- torsion ---------------------------


class TorsionResult(NamedTuple):
    """Outcome of the torsion question at a source point.

    kind is one of:
    * "vanishes": e lies in the projection of the classical prolongation
      fiber; ``lift`` holds the psi blocks (flat, length n * source_dim) of
      its canonical lift there, zero at every psi pivot of the fiber's basis;
    * "obstruction": e lies in the projection of the partial fiber only;
      ``representative`` is the canonical representative of the class of
      K(i,j) = A_j psi_i - A_i psi_j modulo Im(delta_∂D), in Λ² ⊗ W slot
      coordinates;
    * "fiber-empty": e is outside the partial fiber's projection; ``witness``
      certifies infeasibility of sigma(psi_i) = -A_i e (rows ordered
      i*coeff_dim + b): a vector of ker(sigmaᵀ) in one block i.
    """

    kind: str
    lift: tuple[Fraction, ...] | None = None
    representative: tuple[Fraction, ...] | None = None
    witness: tuple[Fraction, ...] | None = None


def curvature_of_lift(conn: RelConn, psi: Sequence) -> tuple[Fraction, ...]:
    """K(i,j) = A_j psi_i - A_i psi_j over Λ² ⊗ W slot coordinates: minus δ
    of the connection's ∂ at psi, the left-hand sides of ``_symmetry_rows`` at
    (0, psi), whose row order (i < j in exterior order, then b) is the slot order.
    """
    return _symmetry_rows(conn).apply([_ZERO] * conn.source_dim + list(psi))


def _lift(fiber: Subspace, e: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """The psi blocks of e's canonical lift in fiber, None if e is outside its
    projection: sum x_j b_j over the b_j with pivot in the e block, x_j e's
    coordinates in their cuts (the head), so zero at every psi pivot."""
    sd = len(e)
    coords = fiber.head(sd)._coords([(i, x) for i, x in enumerate(e) if x])
    if coords is None:
        return None
    psi, rows = [_ZERO] * (fiber.ambient_dim - sd), fiber.fraction_rows()
    for j, x in coords:
        for i, b in rows[j]:
            if i >= sd:
                psi[i - sd] += x * b
    return tuple(psi)


def torsion_at(conn: RelConn, e: Sequence) -> TorsionResult:
    """Decide whether the torsion class at e vanishes, obstructs, or is void."""
    e = [rat(x) for x in e]
    if len(e) != conn.source_dim:
        raise ValueError("point has wrong dimension")
    lift = _lift(classical_prolongation_fiber(conn).subspace, e)
    if lift is not None:
        return TorsionResult(kind="vanishes", lift=lift)
    partial_lift = _lift(kernel(_partial_rows(conn)), e)
    if partial_lift is None:
        # the partial rows' psi block is n diagonal copies of sigma, so y in
        # ker(sigmaᵀ), placed in block i, is a witness if it pairs nonzero with A_i e
        cd, ys = conn.coeff_dim, kernel(conn.sigma.transpose()).basis
        for i, ae in enumerate([a.apply(e) for a in conn.mats]):
            for y in ys:
                if sum(yb * x for yb, x in zip(y, ae)):
                    witness = [_ZERO] * (conn.n * cd)
                    witness[i * cd : (i + 1) * cd] = y
                    return TorsionResult(kind="fiber-empty", witness=tuple(witness))
        raise InvariantViolation("no lift and no Fredholm witness at the point")
    rep = _delta_image(conn).reduce_mod(curvature_of_lift(conn, partial_lift))
    if not any(rep):
        raise InvariantViolation("torsion class vanished although no symmetric lift exists")
    return TorsionResult(kind="obstruction", representative=rep)
