"""Connections relative to a coefficient map, and their torsion.

A relative connection is the data D = (sigma, A_1..A_n): sigma maps the
source space E' into a coefficient space W, the A_i map E' into W, and the
covariant derivative of a section s along d_i is D_i(s) = A_i s + sigma(d_i s).
Everything below is fiberwise exact linear algebra over these matrices.

Fixed coordinate layouts:
* points of the first jet of a section are written (e, psi_1..psi_n) with the
  e block first, then the psi blocks in direction order -- ambient dimension
  (1 + n) * source_dim;
* the symbol g = ker(sigma) is carried by its canonical basis, and the
  degree-lowering map ∂_D(v) = (i -> A_i v) is stored with rows b*n + i;
* torsion representatives live in the Λ² ⊗ W slot with ext-major coordinates
  rank(i,j) * coeff_dim + b.

The torsion at a source point e is decided by affine feasibility alone, so a
non-surjective sigma needs no special casing: an empty fiber is reported with
a Fredholm witness, a nonvanishing torsion with a canonical representative of
its class modulo the image of the ∂-built Spencer differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation
from .ratlin import (
    RatMatrix,
    Subspace,
    image,
    kernel,
    rat,
    solve_affine,
)
from .spencer import delta_partial_matrix
from .tableau import Tableau, prolong

_ZERO = Fraction(0)


class RelConn:
    """A relative connection (sigma, A_1..A_n) with cached derived data."""

    __slots__ = ("n", "source_dim", "coeff_dim", "sigma", "mats", "symbol",
                 "_symbol_map", "_delta_image")

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
        self._symbol_map = None
        self._delta_image = None

    def __repr__(self) -> str:
        return (
            f"RelConn(n={self.n}, source={self.source_dim}, "
            f"coeff={self.coeff_dim}, symbol dim {self.symbol.dim})"
        )


def symbol_map(conn: RelConn) -> Tableau:
    """The generalized tableau (g, ∂_D) with ∂_D(v) = (i -> A_i v)."""
    if conn._symbol_map is None:
        g = conn.symbol
        rows = [[_ZERO] * g.dim for _ in range(conn.n * conn.coeff_dim)]
        for c, vec in enumerate(g.basis):
            for i, a in enumerate(conn.mats):
                out = a.apply(vec)
                for b, x in enumerate(out):
                    if x:
                        rows[b * conn.n + i][c] = x
        partial = RatMatrix(rows, cols=g.dim)
        conn._symbol_map = Tableau.generalized(conn.n, conn.coeff_dim, g, partial)
    return conn._symbol_map


def _delta_image(conn: RelConn) -> Subspace:
    """Image of delta_∂D : Hom(E, g) -> Λ² ⊗ W, in slot coordinates."""
    if conn._delta_image is None:
        partial = symbol_map(conn).partial_map
        conn._delta_image = image(delta_partial_matrix(partial, conn.n, 1))
    return conn._delta_image


# --------------------------- prolongation fibers ---------------------------


def _partial_rows(conn: RelConn) -> RatMatrix:
    """Rows of the linear system cutting the partial fiber out of (e, psi)."""
    n, sd, cd = conn.n, conn.source_dim, conn.coeff_dim
    width = (1 + n) * sd
    rows = []
    for i in range(n):
        for b in range(cd):
            row = [_ZERO] * width
            arow = conn.mats[i].row(b)
            srow = conn.sigma.row(b)
            for c in range(sd):
                if arow[c]:
                    row[c] = arow[c]
                if srow[c]:
                    row[(1 + i) * sd + c] = srow[c]
            rows.append(row)
    return RatMatrix(rows, cols=width)


def _symmetry_rows(conn: RelConn) -> RatMatrix:
    """A_j psi_i - A_i psi_j = 0 for i < j, as rows over (e, psi)."""
    n, sd, cd = conn.n, conn.source_dim, conn.coeff_dim
    width = (1 + n) * sd
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for b in range(cd):
                row = [_ZERO] * width
                aj = conn.mats[j].row(b)
                ai = conn.mats[i].row(b)
                for c in range(sd):
                    if aj[c]:
                        row[(1 + i) * sd + c] += aj[c]
                    if ai[c]:
                        row[(1 + j) * sd + c] -= ai[c]
                rows.append(row)
    return RatMatrix(rows, cols=width)


def partial_prolongation_fiber(conn: RelConn) -> Subspace:
    """{(e, psi) : sigma(psi_i) = -A_i e for all i}."""
    return kernel(_partial_rows(conn))


@dataclass(frozen=True)
class ProlFiber:
    """The classical prolongation fiber with its two canonical pieces.

    subspace sits in (1+n)*source_dim coordinates; kernel_part is the e = 0
    slice in the psi-block coordinates and is canonically the generalized
    prolongation g^(1)(∂_D); projection_image is the set of source points
    admitting a full first-order lift.
    """

    subspace: Subspace
    projection_image: Subspace
    kernel_part: Subspace


def classical_prolongation_fiber(conn: RelConn) -> ProlFiber:
    n, sd = conn.n, conn.source_dim
    full_rows = RatMatrix.vstack([_partial_rows(conn), _symmetry_rows(conn)])
    fiber = kernel(full_rows)
    proj = Subspace.from_spanning(sd, [v[:sd] for v in fiber.basis])
    psi_block = RatMatrix(
        [full_rows.row(r)[sd:] for r in range(full_rows.rows)], cols=n * sd
    )
    ker_part = kernel(psi_block)
    if fiber.dim != ker_part.dim + proj.dim:
        raise InvariantViolation("prolongation fiber fails exactness bookkeeping")
    # the e = 0 slice, rewritten over the symbol basis, is g^(1)(∂_D)
    g = conn.symbol
    etas = []
    for v in ker_part.basis:
        eta = [_ZERO] * (g.dim * n)
        for i in range(n):
            coords = g.coords_of(v[i * sd : (i + 1) * sd])
            if coords is None:
                raise InvariantViolation("kernel part leaves the symbol")
            for c, x in enumerate(coords):
                eta[c * n + i] = x
        etas.append(eta)
    if Subspace.from_spanning(g.dim * n, etas) != prolong(symbol_map(conn)):
        raise InvariantViolation(
            "kernel part does not match the generalized prolongation"
        )
    return ProlFiber(subspace=fiber, projection_image=proj, kernel_part=ker_part)


def prolongation_connection(conn: RelConn) -> RelConn:
    """The induced connection on the classical prolongation fiber.

    sigma' extracts the base point e; the direction maps extract -psi_i (the
    sign is forced by compatibility: sigma(psi_i) = -A_i e on the fiber).
    """
    fiber = classical_prolongation_fiber(conn).subspace
    sd, n = conn.source_dim, conn.n
    basis = fiber.basis
    sigma_p = RatMatrix([[v[r] for v in basis] for r in range(sd)], cols=len(basis))
    mats = [
        RatMatrix(
            [[-v[(1 + i) * sd + r] for v in basis] for r in range(sd)], cols=len(basis)
        )
        for i in range(n)
    ]
    return RelConn(sigma_p, mats)


# --------------------------- compatibility ---------------------------


@dataclass(frozen=True)
class CompatibilityFailure:
    condition: int  # 1: A_i sigma' != sigma B_i;  2: A_i B_j != A_j B_i
    directions: tuple[int, ...]
    basis_index: int
    discrepancy: tuple[Fraction, ...]


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    failures: tuple[CompatibilityFailure, ...]


def compatible(outer: RelConn, inner: RelConn) -> CompatibilityReport:
    """Check the two compatibility identities of a nested pair.

    (1) A_i sigma' = sigma B_i for every direction; (2) A_i B_j = A_j B_i for
    i < j.  Failures carry the first basis vector where the identity breaks
    and the nonzero discrepancy, one record per broken identity.
    """
    if inner.n != outer.n:
        raise ValueError("direction counts differ")
    if inner.coeff_dim != outer.source_dim:
        raise ValueError("inner coefficients must be the outer source")
    failures: list[CompatibilityFailure] = []
    for i in range(outer.n):
        diff = outer.mats[i] @ inner.sigma - outer.sigma @ inner.mats[i]
        if not diff.is_zero():
            col = next(j for j in range(diff.cols) if any(diff.col(j)))
            failures.append(
                CompatibilityFailure(1, (i,), col, diff.col(col))
            )
    for i in range(outer.n):
        for j in range(i + 1, outer.n):
            diff = outer.mats[i] @ inner.mats[j] - outer.mats[j] @ inner.mats[i]
            if not diff.is_zero():
                col = next(c for c in range(diff.cols) if any(diff.col(c)))
                failures.append(
                    CompatibilityFailure(2, (i, j), col, diff.col(col))
                )
    return CompatibilityReport(ok=not failures, failures=tuple(failures))


# --------------------------- torsion ---------------------------


@dataclass(frozen=True)
class TorsionResult:
    """Outcome of the torsion question at a source point.

    kind is one of:
    * "vanishes": some lift makes the curvature 2-form zero; ``lift`` holds
      the psi blocks (flat, length n * source_dim);
    * "obstruction": lifts exist but none kills the curvature;
      ``representative`` is the canonical representative of the class of
      K(i,j) = A_j psi_i - A_i psi_j modulo Im(delta_∂D), in Λ² ⊗ W slot
      coordinates;
    * "fiber-empty": no lift at all; ``witness`` certifies infeasibility of
      sigma(psi_i) = -A_i e (rows ordered i*coeff_dim + b).
    """

    kind: str
    lift: tuple[Fraction, ...] | None = None
    representative: tuple[Fraction, ...] | None = None
    witness: tuple[Fraction, ...] | None = None


def _lift_system(rows: RatMatrix, e: Sequence) -> tuple[RatMatrix, list[Fraction]]:
    """Equations over (e, psi) as a linear system over psi at the point e.

    The psi columns form the matrix; the e columns, applied to e, move to the
    right-hand side with their sign flipped.  Rows keep their order, so a
    Fredholm witness indexes the given rows.
    """
    sd = len(e)
    data = [rows.row(r) for r in range(rows.rows)]
    rhs = [-sum((x * y for x, y in zip(row[:sd], e) if x and y), _ZERO) for row in data]
    return RatMatrix([row[sd:] for row in data], cols=rows.cols - sd), rhs


def curvature_of_lift(conn: RelConn, psi: Sequence) -> tuple[Fraction, ...]:
    """K(i,j) = A_j psi_i - A_i psi_j over Λ² ⊗ W slot coordinates.

    These are the left-hand sides of ``_symmetry_rows`` at (0, psi), whose
    row order (i < j in exterior order, then b) is the slot order.
    """
    return _symmetry_rows(conn).apply([_ZERO] * conn.source_dim + list(psi))


def torsion_at(conn: RelConn, e: Sequence) -> TorsionResult:
    """Decide whether the torsion class at e vanishes, obstructs, or is void."""
    e = [rat(x) for x in e]
    if len(e) != conn.source_dim:
        raise ValueError("point has wrong dimension")
    partial = _partial_rows(conn)
    sol = solve_affine(*_lift_system(RatMatrix.vstack([partial, _symmetry_rows(conn)]), e))
    if sol.feasible:
        return TorsionResult(kind="vanishes", lift=sol.particular)
    partial_sol = solve_affine(*_lift_system(partial, e))
    if not partial_sol.feasible:
        return TorsionResult(kind="fiber-empty", witness=partial_sol.witness)
    k = curvature_of_lift(conn, partial_sol.particular)
    rep = _delta_image(conn).reduce_mod(k)
    if not any(rep):
        raise InvariantViolation(
            "torsion class vanished although no symmetric lift exists"
        )
    return TorsionResult(kind="obstruction", representative=rep)


def h01_dim(outer: RelConn, inner: RelConn) -> int:
    """dim of ker(delta_∂D on Hom(E, g)) / (symbol of the inner connection).

    Requires the pair to pass ``compatible``; raises ValueError otherwise.
    """
    report = compatible(outer, inner)
    if not report.ok:
        raise ValueError("h01_dim needs a compatible pair")
    g = outer.symbol
    p = g.dim
    n = outer.n
    z = kernel(delta_partial_matrix(symbol_map(outer).partial_map, n, 1))
    vecs = []
    for v in inner.symbol.basis:
        eta = [_ZERO] * (n * p)
        for i in range(n):
            img = inner.mats[i].apply(v)
            coords = g.coords_of(img)
            if coords is None:
                raise InvariantViolation(
                    "inner symbol does not map into the outer symbol"
                )
            for c, x in enumerate(coords):
                eta[i * p + c] = x
        vecs.append(eta)
    b = Subspace.from_spanning(n * p, vecs)
    if not z.contains(b):
        raise InvariantViolation("inner-symbol image is not closed")
    return z.dim - b.dim
