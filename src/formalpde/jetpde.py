"""Linear constant-coefficient PDE systems on jet fibers.

A system of order k in n base variables and m unknowns is a matrix of linear
equations over the jet coordinates u^a_alpha, |alpha| <= k.  Jet fiber
coordinates are flat: degree blocks ascending, and inside degree d the index
is a * sym_dim(n, d) + sym_rank(alpha) -- the degree-d block is exactly the
S^d ⊗ R^m layout of tensorspace, and truncation to a lower order is a prefix
projection.

Formal prolongation appends, for every equation and every direction, the
equation with all derivative indices shifted by that direction, read off one
cached shift table; the original rows are kept, so fibers of repeated
prolongations truncate into each other.  The symbol of a system is the part
of its solution fiber vanishing below the top order, read off the fiber's
canonical basis rather than eliminated again.

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
from .spencer import TableauChain, cohomology, is_r_acyclic
from .tableau import Tableau, TypeVerdict, classify_type, tower
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


# Widest jet fiber, in coordinates, an analysis may prolong to.  The walk
# eliminates up to (1 + n) rows per fiber coordinate at every level, and its
# cost grows about as N^2 in time: u_x1x1 + u_x2x2 - u_x3 = 0 under
# `tower --levels 14` reaches N = 969 in 2.2 s and 72 MB, and the free
# first-order system in three variables at depth 15 (also 969) in 1.9 s and
# 53 MB (in-process, Python 3.11, shared 2-vCPU VM).  Every corpus, pool and
# benchmark input stays at or below 330 (the 4-D wave equation at depth 5).
MAX_JET_FIBER = 1000


def check_jet_budget(system: PdeSystem, depth: int) -> None:
    """Refuse, before any elimination, a prolongation of system to depth whose
    jet fiber m·C(n+k+depth, n) exceeds MAX_JET_FIBER (ValueError naming the
    stage and the size)."""
    n, order = system.n, system.k + depth
    has = _past_budget(system.m, [(order + i, i) for i in range(1, n + 1)], MAX_JET_FIBER)
    if has:
        raise ValueError(
            f"prolongation to depth {depth} needs the order-{order} jet fiber of "
            f"{has} coordinates, above the budget of {MAX_JET_FIBER}"
        )


# Widest Spencer slot, in coordinates, a cohomology window may assemble.  Its
# maps are dense, so cost grows about as N^2: the free first-order system in
# seven variables under `cohomology --l-max 1` meets N = 2940 in 1.0 s and
# 61 MB, in eight variables (8400) 7.1 s and 279 MB (in-process, Python 3.11,
# shared 2-vCPU VM).  Corpus, pool and benchmark inputs stay at or below 336.
MAX_SPENCER_SLOT = 3000


def check_spencer_budget(system: PdeSystem, l_max: int, m_max: int) -> None:
    """Refuse, before any slot map is assembled, a cohomology window whose
    maps may meet a slot past MAX_SPENCER_SLOT (ValueError naming the stage
    and the size).  Slot (l, j), Λ^j ⊗ W_l with W_l in S^(k+l) ⊗ R^m (W_-1
    the space below W_0), has at most C(n, j)·m·C(n+k+l-1, k+l) coordinates.
    The maps meet it only for l <= l_max + 1, j <= m_max + 1 and
    l + j <= l_max + m_max, so the bound is largest at one of three levels."""
    n = system.n
    for level, j in ((l_max + 1, m_max - 1), (l_max, m_max), (l_max - 1, m_max + 1)):
        j, degree = min(j, n // 2), system.k + level
        exterior = [(n - j + i, i) for i in range(1, j + 1)]  # C(n, j)
        symmetric = [(degree + i, i) for i in range(1, n)]  # C(degree + n - 1, n - 1)
        has = _past_budget(system.m, exterior + symmetric, MAX_SPENCER_SLOT)
        if has:
            raise ValueError(
                f"Spencer cohomology to l_max {l_max} and m_max {m_max} meets slots "
                f"(Λ^{j} ⊗ level {level}) of {has} coordinates, above the "
                f"budget of {MAX_SPENCER_SLOT}"
            )


def _past_budget(size: int, factors: list[tuple[int, int]], budget: int) -> str | None:
    """None if size times num/den over the factors, each >= 1 and building a
    binomial, stays within budget; else that size as a phrase.  The product
    stops once past budget, so a huge binomial costs a few steps."""
    for num, den in factors:
        if size > budget:
            return f"more than {size}"
        size = size * num // den
    return f"{size}" if size > budget else None


def jet_index(n: int, m: int, k: int, a: int, alpha: tuple[int, ...]) -> int:
    if len(alpha) != n or any(x < 0 for x in alpha):
        raise ValueError(f"multi-index {tuple(alpha)} is not {n} nonnegative orders")
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


@lru_cache(maxsize=None)
def _jet_shift(n: int, m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """shift[i][c]: the order-(k+1) index of order-k coordinate c raised by x_i."""
    return tuple(
        tuple(jet_index(n, m, k + 1, a, raise_sym(alpha, i)) for a, alpha in jet_coords(n, m, k))
        for i in range(n)
    )


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
    """The top-degree kernel as a classical degree-k tableau in S^k ⊗ R^m:
    the solution jets vanishing below order k."""
    space = solution_fiber(system).tail(jet_fiber_dim(system.n, system.m, system.k - 1))
    return Tableau(n=system.n, f=system.m, space=space, degree=system.k)


def formal_prolongation(system: PdeSystem) -> PdeSystem:
    """The order-(k+1) system: original rows kept, plus every shifted row."""
    n, m, k = system.n, system.m, system.k
    width = jet_fiber_dim(n, m, k + 1)
    eqs = [system.equations.row(r) for r in range(system.equations.rows)]
    # order-k coordinates are a prefix of the order-(k+1) ones
    pad = (_ZERO,) * (width - system.fiber_dim)
    rows = [row + pad for row in eqs]
    for row in eqs:
        terms = [(c, x) for c, x in enumerate(row) if x]
        for targets in _jet_shift(n, m, k):
            out = [_ZERO] * width
            for c, x in terms:
                out[targets[c]] = x
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
        lo = cur_fiber.ambient_dim
        sym = fiber.tail(lo).dim
        if sym != rank:
            raise InvariantViolation(
                "prolonged-system symbol disagrees with the tableau tower"
            )
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


def _goldschmidt(system: PdeSystem, l_max: int, chain: TableauChain) -> IntegrabilityReport:
    report = cohomology(chain, l_max=l_max, m_max=2)
    hdims = {key: e.h_dim for key, e in report.entries.items()}
    tower_report = _tower_report(system, chain.ranks[:1])
    if not tower_report.levels[0].projection_surjective:
        # the depth-1 tower already reports obstructed-at(1) and its witness
        return replace(
            tower_report, certification_basis=f"goldschmidt({l_max})", cohomology=hdims
        )
    acyclic = is_r_acyclic(report, 2)
    if not acyclic.acyclic:
        verdict, level, basis = "inconclusive", acyclic.failure[0], f"goldschmidt({l_max})"
    elif acyclic.unconditional:
        # the vanishing symbol makes 2-acyclicity unconditional, so the
        # certification names the finite-type route that closed the argument
        level = report.vanishing_level
        verdict, basis = "formally-integrable-certified", f"finite-type({level})"
    else:
        verdict, level = "integrable-up-to", l_max
        basis = f"goldschmidt-up-to-evidence({l_max})"
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
    ``goldschmidt_check``, whose window must pass ``check_spencer_budget``.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    # one symbol tower serves the type, the jet walk and the fallback
    chain = tower(symbol_tableau(system), l_max + 1)
    verdict = classify_type(chain, l_max)
    if verdict.kind != "finite":
        check_spencer_budget(system, l_max, 2)
        return replace(_goldschmidt(system, l_max, chain), type_verdict=verdict)
    need = verdict.level + 1
    if max_levels < need:
        return replace(_tower_report(system, chain.ranks[:max_levels]), type_verdict=verdict)
    report = _tower_report(system, chain.ranks[:need])
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
        RatMatrix([[-v[t] for v in basis] for t in targets], cols=len(basis))
        for targets in _jet_shift(n, m, k - 1)
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
    pieces = []
    trunc = u[: jet_fiber_dim(n, m, k)]
    e = fiber.coords_of(trunc)
    if e is None:
        raise ValueError("truncation does not solve the system")
    pieces.extend(e)
    for targets in _jet_shift(n, m, k):
        coords = fiber.coords_of([u[t] for t in targets])
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
