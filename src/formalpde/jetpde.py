"""Linear constant-coefficient PDE systems on jet fibers.

A system of order k in n base variables and m unknowns is a matrix of linear
equations over the jet coordinates u^a_alpha, |alpha| <= k.  Jet fiber
coordinates are flat: degree blocks ascending, and inside degree d the index
is a * sym_dim(n, d) + sym_rank(alpha) -- the degree-d block is exactly the
S^d ⊗ R^m layout of tensorspace, and truncation to a lower order is a prefix
projection.

Formal prolongation appends, for every equation and every direction, the
equation with all derivative indices shifted by that direction; the original
rows are kept, so fibers of repeated prolongations truncate into each other.

Each analysis builds the tableau tower of the base symbol once, at the
largest depth it needs, and walks the jet prolongation once.  Per level the
walk yields the level's fiber, its symbol dimension (checked against the
tableau tower) and the truncation image in the fiber below.  The tower report
reads surjectivity off it; a failure is a genuine integrability obstruction
and comes with an explicit witness: a solution jet of the lower order that no
higher-order solution extends.  The crosscheck maps the same walk's fibers
into the connection route, whose prolongation fibers come from eliminations
of their own, so the two routes stay independent.  Level systems never enter
a cache; only the base system's fiber and symbol do.

The walk does not prolong every row it has ever made.  Prolongation is
linear in the equations, so the row space of a prolonged system depends only
on the row space of the system prolonged.  Each level therefore prolongs a
row basis of the level below, and one elimination of the result gives both
the level's fiber and the row basis handed up: at most (1 + n) times the
rank in rows, instead of (1 + n)^level times the base equation count.  The
fibers are canonical subspaces, so the reports do not depend on how the
equations are stored.  ``formal_prolongation`` itself still keeps every row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, kernel, kernel_with_row_basis, rat
from .relconn import RelConn, classical_prolongation_fiber
from .spencer import cohomology
from .tableau import Tableau, TableauTower, TypeVerdict, classify_type, tower
from .tensorspace import multi_indices, raise_sym, sym_dim, sym_rank

_ZERO = Fraction(0)


# --------------------------- jet coordinates ---------------------------


@lru_cache(maxsize=None)
def _jet_offsets(n: int, m: int, k: int) -> tuple[int, ...]:
    offsets = [0]
    for d in range(k + 1):
        offsets.append(offsets[-1] + sym_dim(n, d) * m)
    return tuple(offsets)


def jet_fiber_dim(n: int, m: int, k: int) -> int:
    return _jet_offsets(n, m, k)[k + 1]


def jet_index(n: int, m: int, k: int, a: int, alpha: tuple[int, ...]) -> int:
    d = sum(alpha)
    if d > k:
        raise ValueError("derivative order exceeds the jet order")
    if not (0 <= a < m):
        raise ValueError("component out of range")
    return _jet_offsets(n, m, k)[d] + a * sym_dim(n, d) + sym_rank(alpha)


@lru_cache(maxsize=None)
def jet_coords(n: int, m: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    out = []
    for d in range(k + 1):
        for a in range(m):
            for alpha in multi_indices(n, d):
                out.append((a, alpha))
    return tuple(out)


# --------------------------- systems ---------------------------


@dataclass(frozen=True)
class PdeSystem:
    """Equations = 0, one row per equation, columns over jet coordinates."""

    n: int
    m: int
    k: int
    equations: RatMatrix

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise ValueError("need n >= 1, m >= 1, k >= 1")
        if self.equations.cols != jet_fiber_dim(self.n, self.m, self.k):
            raise ValueError("equation matrix width does not match the jet fiber")

    @staticmethod
    def from_terms(n: int, m: int, k: int, eqs: Sequence[Sequence[tuple]]) -> "PdeSystem":
        """Rows from (coeff, component, alpha) term triples (components 0-based)."""
        width = jet_fiber_dim(n, m, k)
        rows = []
        for eq in eqs:
            row = [_ZERO] * width
            for coeff, a, alpha in eq:
                row[jet_index(n, m, k, a, tuple(alpha))] += rat(coeff)
            rows.append(row)
        return PdeSystem(n=n, m=m, k=k, equations=RatMatrix(rows, cols=width))

    @property
    def fiber_dim(self) -> int:
        return jet_fiber_dim(self.n, self.m, self.k)


@lru_cache(maxsize=None)
def solution_fiber(system: PdeSystem) -> Subspace:
    """Jets of order k satisfying every equation."""
    return kernel(system.equations)


@lru_cache(maxsize=None)
def symbol_tableau(system: PdeSystem) -> Tableau:
    """The top-degree kernel as a classical degree-k tableau in S^k ⊗ R^m."""
    return _symbol(system)


def _symbol(system: PdeSystem) -> Tableau:
    n, m, k = system.n, system.m, system.k
    lo = _jet_offsets(n, m, k)[k]
    top_dim = sym_dim(n, k) * m
    rows = [system.equations.row(r)[lo:] for r in range(system.equations.rows)]
    space = kernel(RatMatrix(rows, cols=top_dim))
    return Tableau(n=n, f=m, space=space, degree=k)


def formal_prolongation(system: PdeSystem) -> PdeSystem:
    """The order-(k+1) system: original rows kept, plus every shifted row."""
    n, m, k = system.n, system.m, system.k
    width = jet_fiber_dim(n, m, k + 1)
    coords = jet_coords(n, m, k)
    rows: list[list[Fraction]] = []
    sparse_rows = []
    for r in range(system.equations.rows):
        row = system.equations.row(r)
        terms = [(coords[c], x) for c, x in enumerate(row) if x]
        sparse_rows.append(terms)
        out = [_ZERO] * width
        for (a, alpha), x in terms:
            out[jet_index(n, m, k + 1, a, alpha)] += x
        rows.append(out)
    for terms in sparse_rows:
        for i in range(n):
            out = [_ZERO] * width
            for (a, alpha), x in terms:
                out[jet_index(n, m, k + 1, a, raise_sym(alpha, i))] += x
            rows.append(out)
    return PdeSystem(n=n, m=m, k=k + 1, equations=RatMatrix(rows, cols=width))


# --------------------------- tower reports ---------------------------


@dataclass(frozen=True)
class LevelRecord:
    """One prolongation level: dimensions and the two per-level verdicts.

    torsion_vanishes is the operational reading of projection_surjective:
    every lower-order solution jet extends iff no torsion obstructs it.
    witness (when not surjective) is a solution jet of the level below that
    admits no extension.
    """

    level: int
    fiber_dim: int
    symbol_dim: int
    projection_surjective: bool
    torsion_vanishes: bool
    witness: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of a bounded integrability analysis.

    verdict is one of 'formally-integrable-certified', 'integrable-up-to',
    'obstructed-at', 'inconclusive'.  certification_basis names the criterion
    that justifies the verdict and its evidence bound.  Optional fields carry
    the cohomology table (goldschmidt route) and the symbol type verdict
    (finite-type route).
    """

    n: int
    m: int
    k: int
    base_fiber_dim: int
    levels: tuple[LevelRecord, ...]
    verdict: str
    verdict_level: int
    certification_basis: str
    witness: tuple[Fraction, ...] | None = None
    cohomology: dict[tuple[int, int], int] | None = None
    type_verdict: TypeVerdict | None = None


def _walk(system: PdeSystem, base_fiber: Subspace, symbol_ranks: Sequence[int]):
    """Prolong once per tableau-tower rank, checking every level as it goes.

    Yields, per level: the system below and its fiber, then the level's
    fiber, its truncation image and its symbol dimension.
    """
    cur, cur_fiber = system, base_fiber
    for rank in symbol_ranks:
        # carry the level system as a row basis: same row space, hence the
        # same fiber and symbol, but at most one row per jet coordinate
        prolonged = formal_prolongation(cur)
        fiber, rows = kernel_with_row_basis(prolonged.equations)
        nxt = PdeSystem(n=cur.n, m=cur.m, k=prolonged.k, equations=rows)
        sym = _symbol(nxt).space.dim
        if sym != rank:
            raise InvariantViolation(
                "prolonged-system symbol disagrees with the tableau tower"
            )
        lo = cur_fiber.ambient_dim
        img = Subspace.from_spanning(lo, [v[:lo] for v in fiber.basis])
        if not cur_fiber.contains(img):
            raise InvariantViolation("truncated solutions violate the lower system")
        if fiber.dim != sym + img.dim:
            raise InvariantViolation("fiber dimension fails exactness bookkeeping")
        yield cur, cur_fiber, fiber, img, sym
        cur, cur_fiber = nxt, fiber


def _tower_report(system: PdeSystem, symbol_ranks: Sequence[int]) -> IntegrabilityReport:
    """The tower report over one level per given tableau-tower rank."""
    base_fiber = solution_fiber(system)
    records: list[LevelRecord] = []
    steps = _walk(system, base_fiber, symbol_ranks)
    for level, (_, prev_fiber, fiber, img, sym) in enumerate(steps, 1):
        surjective = img.dim == prev_fiber.dim
        witness = None if surjective else next(
            v for v in prev_fiber.basis if not img.contains_vector(v)
        )
        records.append(
            LevelRecord(
                level=level,
                fiber_dim=fiber.dim,
                symbol_dim=sym,
                projection_surjective=surjective,
                torsion_vanishes=surjective,
                witness=witness,
            )
        )
    report = IntegrabilityReport(
        n=system.n,
        m=system.m,
        k=system.k,
        base_fiber_dim=base_fiber.dim,
        levels=tuple(records),
        verdict="integrable-up-to",
        verdict_level=len(records),
        certification_basis="exhausted-bound",
    )
    failed = next((rec for rec in records if not rec.projection_surjective), None)
    if failed is None:
        return report
    return replace(
        report,
        verdict="obstructed-at",
        verdict_level=failed.level,
        certification_basis=f"tower({len(records)})",
        witness=failed.witness,
    )


def prolongation_tower(system: PdeSystem, depth: int) -> IntegrabilityReport:
    """Walk depth prolongations, checking surjectivity of every truncation."""
    if depth < 1:
        raise ValueError("tower needs depth >= 1")
    return _tower_report(system, tower(symbol_tableau(system), depth).ranks)


def goldschmidt_check(system: PdeSystem, l_max: int) -> IntegrabilityReport:
    """Surjectivity of the first prolongation plus bounded 2-acyclicity.

    Certified outright only when the symbol tower vanishes inside the window
    (then 2-acyclicity holds at every level); otherwise the positive verdict
    is explicitly evidence-bounded.  A surjectivity failure is a genuine
    obstruction; a nonzero H^(l,2) only withdraws the hypothesis, so that
    outcome is 'inconclusive' rather than 'obstructed-at'.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    return _goldschmidt(system, l_max, tower(symbol_tableau(system), l_max + 1))


def _goldschmidt(system: PdeSystem, l_max: int, tw: TableauTower) -> IntegrabilityReport:
    report = cohomology(tw.chain(), l_max=l_max, m_max=2)
    hdims = {key: e.h_dim for key, e in report.entries.items()}
    tower_report = _tower_report(system, tw.ranks[:1])
    if not tower_report.levels[0].projection_surjective:
        # the depth-1 tower already reports obstructed-at(1) and its witness
        return replace(
            tower_report, certification_basis=f"goldschmidt({l_max})", cohomology=hdims
        )
    bad = next(
        ((l, mm) for (l, mm) in sorted(hdims) if mm == 2 and hdims[(l, mm)]), None
    )
    if bad is not None:
        return replace(
            tower_report,
            verdict="inconclusive",
            verdict_level=bad[0],
            certification_basis=f"goldschmidt({l_max})",
            cohomology=hdims,
        )
    if report.vanishing_level is not None:
        # the vanishing symbol makes 2-acyclicity unconditional, so the
        # certification names the finite-type route that closed the argument
        verdict = "formally-integrable-certified"
        basis = f"finite-type({report.vanishing_level})"
        level = report.vanishing_level
    else:
        verdict, basis = "integrable-up-to", f"goldschmidt-up-to-evidence({l_max})"
        level = l_max
    return replace(
        tower_report,
        verdict=verdict,
        verdict_level=level,
        certification_basis=basis,
        cohomology=hdims,
    )


def finite_type_integrability(
    system: PdeSystem, l_max: int, max_levels: int
) -> IntegrabilityReport:
    """Certify through symbol vanishing: finite type + a surjective tower.

    If the symbol tower reaches zero at level l <= l_max and the prolongation
    tower is surjective through level l + 1 (within max_levels), projections
    above l are bijections and the system is formally integrable outright.
    For symbols that stay nonzero through l_max the question defers to
    ``goldschmidt_check``.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    # one symbol tower serves the type, the jet walk and the fallback
    tw = tower(symbol_tableau(system), l_max + 1)
    verdict = classify_type(tw, l_max)
    if verdict.kind != "finite":
        return replace(_goldschmidt(system, l_max, tw), type_verdict=verdict)
    need = verdict.level + 1
    if max_levels < need:
        return replace(_tower_report(system, tw.ranks[:max_levels]), type_verdict=verdict)
    report = _tower_report(system, tw.ranks[:need])
    if report.verdict == "obstructed-at":
        return replace(
            report,
            certification_basis=f"finite-type({verdict.level})",
            type_verdict=verdict,
        )
    # above the vanishing level the projections must be bijections
    dims = [report.base_fiber_dim] + [rec.fiber_dim for rec in report.levels]
    for j in range(max(verdict.level, 1), len(dims) - 1):
        if dims[j + 1] != dims[j]:
            raise InvariantViolation(
                "projections above the vanishing level are not bijections"
            )
    return replace(
        report,
        verdict="formally-integrable-certified",
        verdict_level=verdict.level,
        certification_basis=f"finite-type({verdict.level})",
        type_verdict=verdict,
    )


# --------------------------- the connection picture ---------------------------


def pde_to_relconn(system: PdeSystem) -> RelConn:
    """Re-express the system as a relative connection on its solution fiber.

    Source: the solution fiber E' in its canonical basis.  Coefficients: the
    full fiber of jets one order lower.  sigma is truncation restricted to E';
    the direction maps are the negated shifts (A_i xi)^a_alpha = -xi^a_(alpha+e_i),
    so that the first-order covariant constancy D_i s = A_i s + sigma(d_i s) = 0
    encodes exactly the passage from a k-jet section to its (k+1)-jet.
    """
    return _relconn(system, solution_fiber(system))


def _relconn(system: PdeSystem, fiber: Subspace) -> RelConn:
    n, m, k = system.n, system.m, system.k
    lo = jet_fiber_dim(n, m, k - 1)
    basis = fiber.basis
    sigma = RatMatrix([[v[r] for v in basis] for r in range(lo)], cols=len(basis))
    mats = [
        RatMatrix(
            [
                [-v[jet_index(n, m, k, a, raise_sym(alpha, i))] for v in basis]
                for a, alpha in jet_coords(n, m, k - 1)
            ],
            cols=len(basis),
        )
        for i in range(n)
    ]
    return RelConn(sigma, mats)


def jet_to_prolongation_point(
    system: PdeSystem, u: Sequence
) -> tuple[Fraction, ...]:
    """Map a solution (k+1)-jet to its (e, psi) coordinates over E'.

    e is the truncation of u expressed in the solution-fiber basis; psi_i is
    the direction-i shift of u, also expressed there.  Raises ValueError when
    u does not define such a point (it must solve the prolonged system).
    """
    return _prolongation_point(system, solution_fiber(system), u)


def _prolongation_point(
    system: PdeSystem, fiber: Subspace, u: Sequence
) -> tuple[Fraction, ...]:
    n, m, k = system.n, system.m, system.k
    u = [rat(x) for x in u]
    if len(u) != jet_fiber_dim(n, m, k + 1):
        raise ValueError("expected a jet of order k + 1")
    hi_coords = jet_coords(n, m, k)
    pieces = []
    trunc = u[: jet_fiber_dim(n, m, k)]
    e = fiber.coords_of(trunc)
    if e is None:
        raise ValueError("truncation does not solve the system")
    pieces.extend(e)
    for i in range(n):
        shifted = []
        for a, alpha in hi_coords:
            shifted.append(u[jet_index(n, m, k + 1, a, raise_sym(alpha, i))])
        coords = fiber.coords_of(shifted)
        if coords is None:
            raise ValueError("a shifted jet does not solve the system")
        pieces.extend(coords)
    return tuple(pieces)


@dataclass(frozen=True)
class RouteLevel:
    """One crosscheck level: fiber and projection-image dimensions per route."""

    level: int
    jet_fiber_dim: int
    jet_image_dim: int
    connection_fiber_dim: int
    connection_image_dim: int
    symbol_dim: int


def crosscheck_routes(system: PdeSystem, depth: int) -> tuple[RouteLevel, ...]:
    """Prolong along the jet route and the connection route, level by level.

    The jet route is the tower's own walk: it solves the prolonged equations
    and runs the tower's checks.  The connection route takes the classical
    prolongation fiber of the relative connection on each lower fiber, as
    ``pde_to_relconn`` builds it, so the two routes share no elimination.  At
    every level the jet fiber, mapped as by ``jet_to_prolongation_point``,
    must be the connection fiber, and the projection images must have equal
    dimensions; a disagreement is an InvariantViolation.
    """
    out = []
    ranks = tower(symbol_tableau(system), depth).ranks
    steps = _walk(system, solution_fiber(system), ranks)
    for level, (lower, lower_fiber, fib, img, sym) in enumerate(steps, 1):
        pf = classical_prolongation_fiber(_relconn(lower, lower_fiber))
        pts = [_prolongation_point(lower, lower_fiber, v) for v in fib.basis]
        mapped = Subspace.from_spanning(pf.subspace.ambient_dim, pts)
        if mapped != pf.subspace or mapped.dim != fib.dim:
            raise InvariantViolation(
                f"jet-side and connection-side prolongation fibers "
                f"disagree at level {level}"
            )
        if pf.projection_image.dim != img.dim:
            raise InvariantViolation(
                f"projection images disagree between the routes at level {level}"
            )
        out.append(
            RouteLevel(
                level=level,
                jet_fiber_dim=fib.dim,
                jet_image_dim=img.dim,
                connection_fiber_dim=pf.subspace.dim,
                connection_image_dim=pf.projection_image.dim,
                symbol_dim=sym,
            )
        )
    return tuple(out)
