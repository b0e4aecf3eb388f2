"""Tests for jet-level PDE systems and integrability reports.

Plan:
 1. jet coordinate layout: order, index round-trip, truncation-as-prefix
 2. from_terms accumulation and input validation
 3. Cauchy-Riemann tower: frozen dimensions, all projections onto
 4. Laplace and wave towers: frozen dimensions
 5. gradient system: certified by both routes; minimal one-variable and
    equation-free systems
 6. flat-connection systems: commuting certified, noncommuting obstructed,
    with an honestly non-extendable witness
 7. formal prolongation keeps the original equations; the tower and the
    crosscheck walk carry a row basis, so their matrices stay within the jet
    fiber width, and the tower's fibers match the plain repeated prolongation;
    the crosscheck prolongs once per level and caches no level system
 8. goldschmidt on Cauchy-Riemann: evidence-bounded positive verdict
 9. an obstructed system with a nonzero symbol
10. torsion-home invariant: the obstruction class sits in the top jet slice,
    is delta-closed into form degree 3, and is nonzero modulo delta of the
    symbol
11. solution jets of the prolonged system = prolongation fiber of the
    associated relative connection (exact subspace equality)
12. jet_to_prolongation_point rejects non-solutions
13. tower depth validation; finite-type bound capping
"""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from formalpde.cli import load_system
from formalpde.errors import InvariantViolation
from formalpde.jetpde import (
    PdeSystem,
    crosscheck_routes,
    finite_type_integrability,
    formal_prolongation,
    goldschmidt_check,
    jet_coords,
    jet_fiber_dim,
    jet_index,
    jet_to_prolongation_point,
    pde_to_relconn,
    prolongation_tower,
    solution_fiber,
    symbol_tableau,
)
from formalpde.ratlin import RatMatrix, Subspace, image, solve_affine
from formalpde.relconn import classical_prolongation_fiber, torsion_at
from formalpde.spencer import delta_restricted
from formalpde.tensorspace import ext_dim, sym_dim


def cauchy_riemann() -> PdeSystem:
    return PdeSystem.from_terms(
        2, 2, 1,
        [
            [(1, 0, (1, 0)), (-1, 1, (0, 1))],
            [(1, 0, (0, 1)), (1, 1, (1, 0))],
        ],
    )


def laplace2d() -> PdeSystem:
    return PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0)), (1, 0, (0, 2))]])


def wave1d() -> PdeSystem:
    return PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0)), (-1, 0, (0, 2))]])


def gradient_zero() -> PdeSystem:
    return PdeSystem.from_terms(2, 1, 1, [[(1, 0, (1, 0))], [(1, 0, (0, 1))]])


def flat_system(a1, a2) -> PdeSystem:
    """First-order system du = -(A_1 dx_1 + A_2 dx_2) u for 2x2 matrices."""
    eqs = []
    for i, mat in enumerate([a1, a2]):
        step = [(1, 0), (0, 1)][i]
        for b in range(2):
            terms = [(1, b, step)]
            for c in range(2):
                if mat[b][c]:
                    terms.append((mat[b][c], c, (0, 0)))
            eqs.append(terms)
    return PdeSystem.from_terms(2, 2, 1, eqs)


FLAT_COMMUTING = ([[1, 1], [0, 1]], [[1, 2], [0, 1]])
FLAT_OBSTRUCTED = ([[0, 1], [0, 0]], [[0, 0], [1, 0]])


def mixed_symbol_obstructed() -> PdeSystem:
    # u_11 = 0 and u_12 = u: cross-differentiating forces u_1 = 0, which the
    # order-2 fiber does not know, so the first projection is not onto.
    return PdeSystem.from_terms(
        2, 1, 2,
        [
            [(1, 0, (2, 0))],
            [(1, 0, (1, 1)), (-1, 0, (0, 0))],
        ],
    )


def mixed_symbol_obstructed_3d() -> PdeSystem:
    return PdeSystem.from_terms(
        3, 1, 2,
        [
            [(1, 0, (2, 0, 0))],
            [(1, 0, (1, 1, 0)), (-1, 0, (0, 0, 1))],
        ],
    )


# --------------------------- 1. layout ---------------------------


def test_jet_coordinate_layout():
    coords = jet_coords(2, 2, 1)
    assert coords == (
        (0, (0, 0)), (1, (0, 0)),
        (0, (1, 0)), (0, (0, 1)), (1, (1, 0)), (1, (0, 1)),
    )
    assert jet_fiber_dim(2, 2, 1) == 6
    assert jet_fiber_dim(3, 1, 2) == 10
    for pos, (a, alpha) in enumerate(jet_coords(3, 2, 2)):
        assert jet_index(3, 2, 2, a, alpha) == pos
    # truncation is a prefix: lower-order coordinates precede, in the same order
    assert jet_coords(3, 2, 2)[: jet_fiber_dim(3, 2, 1)] == jet_coords(3, 2, 1)


def test_jet_index_validation():
    with pytest.raises(ValueError):
        jet_index(2, 1, 1, 0, (2, 0))
    with pytest.raises(ValueError):
        jet_index(2, 1, 1, 1, (1, 0))


# --------------------------- 2. construction ---------------------------


def test_from_terms_accumulates():
    s = PdeSystem.from_terms(2, 1, 1, [[(1, 0, (1, 0)), (2, 0, (1, 0))]])
    row = s.equations.row(0)
    assert row[jet_index(2, 1, 1, 0, (1, 0))] == 3


def test_system_validation():
    with pytest.raises(ValueError):
        PdeSystem(n=0, m=1, k=1, equations=RatMatrix.zeros(1, 1))
    with pytest.raises(ValueError):
        PdeSystem(n=2, m=1, k=1, equations=RatMatrix.zeros(1, 5))


# --------------------------- 3-4. frozen towers ---------------------------


def test_cauchy_riemann_tower_dimensions():
    rep = prolongation_tower(cauchy_riemann(), 4)
    assert rep.base_fiber_dim == 4
    assert [r.fiber_dim for r in rep.levels] == [6, 8, 10, 12]
    assert [r.symbol_dim for r in rep.levels] == [2, 2, 2, 2]
    assert all(r.projection_surjective and r.torsion_vanishes for r in rep.levels)
    assert all(r.witness is None for r in rep.levels)
    assert rep.verdict == "integrable-up-to"
    assert rep.verdict_level == 4
    assert rep.certification_basis == "exhausted-bound"


def test_laplace_and_wave_tower_dimensions():
    for system in (laplace2d(), wave1d()):
        rep = prolongation_tower(system, 4)
        assert rep.base_fiber_dim == 5
        assert [r.fiber_dim for r in rep.levels] == [7, 9, 11, 13]
        assert [r.symbol_dim for r in rep.levels] == [2, 2, 2, 2]
        assert rep.verdict == "integrable-up-to"


# --------------------------- 5. finite type ---------------------------


def test_gradient_system_certified():
    rep = prolongation_tower(gradient_zero(), 4)
    assert rep.base_fiber_dim == 1
    assert [r.fiber_dim for r in rep.levels] == [1, 1, 1, 1]
    ft = finite_type_integrability(gradient_zero(), 3, 6)
    assert ft.verdict == "formally-integrable-certified"
    assert ft.certification_basis == "finite-type(0)"
    assert ft.type_verdict.kind == "finite" and ft.type_verdict.level == 0
    # the surjectivity-plus-acyclicity route certifies too, and it credits
    # the vanishing symbol that made the acyclicity hypothesis unconditional
    gold = goldschmidt_check(gradient_zero(), 3)
    assert gold.verdict == "formally-integrable-certified"
    assert gold.certification_basis == "finite-type(0)"
    assert gold.verdict_level == 0


def test_single_unknown_single_direction():
    s = PdeSystem.from_terms(1, 1, 1, [[(1, 0, (1,))]])
    rep = prolongation_tower(s, 2)
    assert rep.base_fiber_dim == 1
    assert [r.fiber_dim for r in rep.levels] == [1, 1]
    conn = pde_to_relconn(s)
    assert conn.sigma == RatMatrix.identity(1)
    assert conn.mats[0] == RatMatrix.zeros(1, 1)
    assert classical_prolongation_fiber(conn).subspace.dim == 1


def test_free_system_prolongs_to_full_jet():
    s = PdeSystem(n=2, m=1, k=1, equations=RatMatrix.zeros(0, jet_fiber_dim(2, 1, 1)))
    pf = classical_prolongation_fiber(pde_to_relconn(s))
    assert pf.subspace.dim == jet_fiber_dim(2, 1, 2)


# --------------------------- 6. flat connections ---------------------------


def test_flat_commuting_certified():
    s = flat_system(*FLAT_COMMUTING)
    rep = prolongation_tower(s, 4)
    assert rep.base_fiber_dim == 2
    assert [r.fiber_dim for r in rep.levels] == [2, 2, 2, 2]
    ft = finite_type_integrability(s, 3, 6)
    assert ft.verdict == "formally-integrable-certified"
    assert ft.certification_basis == "finite-type(0)"


def test_flat_obstructed_with_witness():
    s = flat_system(*FLAT_OBSTRUCTED)
    rep = prolongation_tower(s, 4)
    assert rep.verdict == "obstructed-at"
    assert rep.verdict_level == 1
    assert rep.base_fiber_dim == 2
    assert [r.fiber_dim for r in rep.levels] == [0, 0, 0, 0]
    w = rep.witness
    assert w is not None and solution_fiber(s).contains_vector(w)
    # the witness really does not extend: the prolonged system with the
    # truncation pinned to w is infeasible
    p1 = formal_prolongation(s)
    lo = jet_fiber_dim(s.n, s.m, s.k)
    hi = jet_fiber_dim(s.n, s.m, s.k + 1)
    pin = [
        [Fraction(1) if c == r else Fraction(0) for c in range(hi)]
        for r in range(lo)
    ]
    stacked = RatMatrix.vstack([p1.equations, RatMatrix(pin, cols=hi)])
    rhs = [Fraction(0)] * p1.equations.rows + list(w)
    assert not solve_affine(stacked, rhs).feasible


# --------------------------- 7. prolongation structure ---------------------------


def test_prolongation_keeps_original_equations():
    s = laplace2d()
    p1 = formal_prolongation(s)
    assert p1.k == 3
    assert p1.equations.rows == s.equations.rows * (1 + s.n)
    # embedded originals: same coefficients on the shared coordinates, zero above
    lo = jet_fiber_dim(s.n, s.m, s.k)
    for r in range(s.equations.rows):
        new = p1.equations.row(r)
        assert new[:lo] == s.equations.row(r)
        assert all(x == 0 for x in new[lo:])
    # truncated solutions of the prolonged system solve the original
    f1 = solution_fiber(p1)
    f0 = solution_fiber(s)
    trunc = Subspace.from_spanning(lo, [col[:lo] for col in f1.basis])
    assert f0.contains(trunc)


def heat3() -> PdeSystem:
    return PdeSystem.from_terms(
        3, 1, 2, [[(1, 0, (2, 0, 0)), (1, 0, (0, 2, 0)), (-1, 0, (0, 0, 1))]]
    )


def test_tower_rows_stay_within_the_jet_fiber(monkeypatch):
    import formalpde.jetpde as jetpde_mod

    received = []

    def recording(system):
        received.append((system.k, system.equations.rows))
        return formal_prolongation(system)

    monkeypatch.setattr(jetpde_mod, "formal_prolongation", recording)
    for s in (laplace2d(), heat3()):
        received.clear()
        prolongation_tower(s, 6)
        assert [k for k, _ in received] == [s.k + level - 1 for level in range(1, 7)]
        for k, rows in received:
            assert rows <= jet_fiber_dim(s.n, s.m, k)
    monkeypatch.undo()
    # the carried row basis loses nothing: every level's fiber is the fiber
    # of the plain repeated prolongation, which keeps every row
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        s = load_system(str(path))
        rep = prolongation_tower(s, 4)
        naive = s
        for level in rep.levels:
            naive = formal_prolongation(naive)
            assert level.fiber_dim == solution_fiber(naive).dim, (path.name, level)


def test_crosscheck_rows_stay_within_the_jet_fiber(count_calls, tmp_path, capsys):
    from formalpde.cli import format_system, main

    calls = count_calls(formal_prolongation)
    for s in (laplace2d(), heat3()):
        path = tmp_path / "system.pde"
        path.write_text(format_system(s))
        calls.clear()
        assert main(["crosscheck", str(path), "--levels", "4", "--json", "-"]) == 0
        levels = json.loads(capsys.readouterr().out)["levels"]
        assert [lv["level"] for lv in levels] == [1, 2, 3, 4]
        received = [(lower.k, lower.equations.rows) for (lower,) in calls]
        assert max(k for k, _ in received) == s.k + 3
        for k, rows in received:
            assert rows <= jet_fiber_dim(s.n, s.m, k), (s.n, k, rows)

def test_crosscheck_shares_the_walk_and_caches_no_level_system(count_calls):
    calls = count_calls(formal_prolongation)
    for s in (cauchy_riemann(), laplace2d(), heat3()):
        for depth in (1, 2, 3):
            calls.clear()
            crosscheck_routes(s, depth)
            assert len(calls) == depth, (s.n, depth)
    # only the base system's fiber is cached; the level fibers come from the walk
    solution_fiber.cache_clear()
    symbol_tableau.cache_clear()
    crosscheck_routes(laplace2d(), 3)
    assert solution_fiber.cache_info().currsize <= 1
    with pytest.raises(ValueError):
        crosscheck_routes(cauchy_riemann(), 0)


# --------------------------- 8. goldschmidt ---------------------------


def test_goldschmidt_cauchy_riemann_evidence_bounded():
    rep = goldschmidt_check(cauchy_riemann(), 4)
    assert rep.verdict == "integrable-up-to"
    assert rep.certification_basis == "goldschmidt-up-to-evidence(4)"
    assert all(rep.cohomology[(l, 2)] == 0 for l in range(5))
    assert all(rep.cohomology[(l, 1)] == 0 for l in range(5))
    ft = finite_type_integrability(cauchy_riemann(), 3, 6)
    assert ft.type_verdict.kind == "infinite-up-to"
    assert ft.certification_basis == "goldschmidt-up-to-evidence(3)"


def test_goldschmidt_flat_obstructed():
    rep = goldschmidt_check(flat_system(*FLAT_OBSTRUCTED), 2)
    assert rep.verdict == "obstructed-at"
    assert rep.verdict_level == 1
    assert rep.witness is not None


# --------------------------- 9. nonzero-symbol obstruction ---------------------------


def test_mixed_symbol_obstruction():
    s = mixed_symbol_obstructed()
    assert symbol_tableau(s).space.dim == 1
    rep = prolongation_tower(s, 3)
    assert rep.verdict == "obstructed-at"
    assert rep.verdict_level == 1
    assert rep.base_fiber_dim == 4
    assert [r.fiber_dim for r in rep.levels] == [4, 4, 4]


# --------------------------- 10. torsion home ---------------------------


def assert_torsion_home(s: PdeSystem):
    """The level-1 obstruction class lives in the expected cohomology slot."""
    n, m, k = s.n, s.m, s.k
    rep = prolongation_tower(s, 1)
    assert rep.verdict == "obstructed-at"
    conn = pde_to_relconn(s)
    e = solution_fiber(s).coords_of(rep.witness)
    t = torsion_at(conn, e)
    assert t.kind == "obstruction"
    cd = jet_fiber_dim(n, m, k - 1)
    lo = jet_fiber_dim(n, m, k - 2) if k >= 2 else 0
    sd = sym_dim(n, k - 1)
    # components below the top jet slice vanish
    for er in range(ext_dim(n, 2)):
        assert all(x == 0 for x in t.representative[er * cd : er * cd + lo])
    slice_vec = [
        t.representative[er * cd + lo + c]
        for er in range(ext_dim(n, 2))
        for c in range(m * sd)
    ]
    # the slice is closed under the Spencer differential into form degree 3
    full_src = Subspace.full(sd * m)
    full_tgt = Subspace.full(sym_dim(n, k - 2) * m)
    closed = delta_restricted(n, m, k - 1, 2, full_src, full_tgt).apply(slice_vec)
    assert all(x == 0 for x in closed)
    # and nonzero modulo the image of delta on forms valued in the symbol
    g = symbol_tableau(s).space
    img = image(delta_restricted(n, m, k, 1, g, full_src))
    assert any(x != 0 for x in img.reduce_mod(slice_vec))


def test_torsion_home_invariant():
    assert_torsion_home(flat_system(*FLAT_OBSTRUCTED))
    assert_torsion_home(mixed_symbol_obstructed())
    # n = 3 exercises a nonzero form-degree-3 target for the closure check
    s3 = mixed_symbol_obstructed_3d()
    assert ext_dim(3, 3) * sym_dim(3, 0) > 0
    assert_torsion_home(s3)


# --------------------------- 11. connection correspondence ---------------------------


def random_system(rng: random.Random) -> PdeSystem:
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    k = rng.randint(1, 2)
    eqs = []
    for _ in range(rng.randint(1, 3)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randrange(m)
            alpha = [0] * n
            for _ in range(rng.randint(0, k)):
                alpha[rng.randrange(n)] += 1
            terms.append((rng.randint(-2, 2), a, tuple(alpha)))
        eqs.append(terms)
    return PdeSystem.from_terms(n, m, k, eqs)


def test_prolongation_fiber_matches_connection():
    systems = [cauchy_riemann(), laplace2d(), mixed_symbol_obstructed()]
    rng = random.Random(20240817)
    while len(systems) < 13:
        systems.append(random_system(rng))
    for s in systems:
        conn = pde_to_relconn(s)
        pf = classical_prolongation_fiber(conn)
        f1 = solution_fiber(formal_prolongation(s))
        pts = [jet_to_prolongation_point(s, col) for col in f1.basis]
        mapped = Subspace.from_spanning(pf.subspace.ambient_dim, pts)
        assert mapped.dim == f1.dim  # the identification is injective
        assert mapped == pf.subspace
        # projection images agree after moving back to jet coordinates
        fiber = solution_fiber(s)
        fiber_matrix = RatMatrix(fiber.basis, cols=fiber.ambient_dim).transpose()
        jet_img = Subspace.from_spanning(
            fiber.ambient_dim,
            [fiber_matrix.apply(col) for col in pf.projection_image.basis],
        )
        lo = jet_fiber_dim(s.n, s.m, s.k)
        tower_img = Subspace.from_spanning(lo, [c[:lo] for c in f1.basis])
        assert jet_img.dim == tower_img.dim
        assert all(fiber.contains_vector(c) for c in jet_img.basis)


def test_prolongation_point_rejects_non_solutions():
    s = cauchy_riemann()
    hi = jet_fiber_dim(s.n, s.m, s.k + 1)
    with pytest.raises(ValueError):
        jet_to_prolongation_point(s, [0] * (hi - 1))
    bad = [0] * hi
    bad[0] = 1
    bad[jet_index(2, 2, 2, 0, (1, 0))] = 1  # violates u1_x = u2_y
    with pytest.raises(ValueError):
        jet_to_prolongation_point(s, bad)


# --------------------------- 13. bounds ---------------------------


def test_tower_depth_validation():
    with pytest.raises(ValueError):
        prolongation_tower(cauchy_riemann(), 0)
    with pytest.raises(ValueError):
        goldschmidt_check(cauchy_riemann(), -1)
    with pytest.raises(ValueError):
        finite_type_integrability(cauchy_riemann(), 2, 0)


def test_finite_type_bound_capping():
    # u_11 = u_22 = 0 has symbol spanned by x1 x2: finite type at level 1
    s = PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    capped = finite_type_integrability(s, 3, 1)
    assert capped.verdict == "integrable-up-to"
    assert capped.certification_basis == "exhausted-bound"
    assert capped.type_verdict.kind == "finite" and capped.type_verdict.level == 1
    full = finite_type_integrability(s, 3, 6)
    assert full.verdict == "formally-integrable-certified"
    assert full.certification_basis == "finite-type(1)"
    dims = [full.base_fiber_dim] + [r.fiber_dim for r in full.levels]
    assert dims == [4, 4, 4]
