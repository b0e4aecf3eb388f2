"""Tests for jet-level PDE systems and integrability reports.

Plan:
 1. jet coordinate layout: order, index round-trip, truncation-as-prefix
 2. from_terms accumulation (repeated and cancelling terms give the pair
    rows of the dense-built matrix, integral sums as ints, so the analyses
    hash no Fraction) and input validation (float coefficients
    refused); PdeSystem, Tableau and TableauChain refuse a bad field with
    the same error whether built positionally, by keyword or by _replace
 3. Cauchy-Riemann tower: frozen dimensions, all projections onto
 4. Laplace and wave towers: frozen dimensions
 5. gradient system: certified by both routes; minimal one-variable and
    equation-free systems
 6. flat-connection systems: commuting certified, noncommuting obstructed,
    with an honestly non-extendable witness
 7. formal prolongation keeps the original equations; the tower and the
    crosscheck walk prolong only the echelon rows below that are new at
    each level, so their matrices stay within the jet fiber width, the
    tower's fibers match the plain repeated prolongation, every walk fiber
    built from the walk's forward rows is bit-identical to the kernel of
    the whole prolonged annihilator below, and every tower record (dims,
    surjectivity, witness) equals what those canonical fibers give; a
    second walk from the same cached base fiber, one level at a time,
    repeats the first and gives those canonical fibers too, and only
    the symbol tower's level 0 reads an annihilator off a basis
    (`constraint_matrix`); each walk level inserts every distinct shifted
    row once, keeping the pivot rows every shifted row gives, so heat3's
    walk eliminates nothing; the tower stops its walk one level past its
    first onto level above the involutive one and fills the levels above
    from the closed form, which must equal what the crosscheck, walking
    every level, finds;
    the crosscheck prolongs once per level and caches no level system,
    every cache in the package is bounded, and the base system's fiber and
    symbol caches hold the one system the six commands share; the
    eliminations per analysis are pinned, the walk's forward ones apart
    (symbols and e = 0 slices are read
    off the fibers, not eliminated again), and the tower, its cohomology and
    goldschmidt never test membership by a dense coset representative; the
    contraction check reads columns and queries no membership table;
    every membership test of the six commands on the
    corpus gets only int values; the symbol tower multiplies no Fractions
    (its prolongation and contraction check run on integer rows), keeps
    every ∂ in ints, and its Spencer cohomology builds no Fraction, nor does
    the crosscheck
 8. goldschmidt on Cauchy-Riemann: evidence-bounded positive verdict
 9. an obstructed system with a nonzero symbol
10. torsion-home invariant: the obstruction class sits in the top jet slice,
    is delta-closed into form degree 3, and is nonzero modulo delta of the
    symbol
11. solution jets of the prolonged system = prolongation fiber of the
    associated relative connection (exact subspace equality); at every walk
    level the torsion at a lower-fiber basis vector vanishes exactly when
    the jet image holds it (corpus, MIXED_PARTIALS, drawn small systems)
12. jet_to_prolongation_point rejects non-solutions; on the corpus walks
    and that of -4u_xx + 3u_x = 0 (a base fiber with denominator D = 4), the
    connection route, read off pairs, is the dense basis rows' with W scaled
    by D: sigma and the A_i D times theirs, ∂_D a positive multiple, the same
    prolongation fiber, and jet points equal to dense ones (a fiber vector's
    integer row maps to its scale times the dense point); it builds no
    matrix from dense rows
13. tower depth validation; the held symbol tower serves exact prefixes,
    only to its own system, and only after every depth and budget check;
    the tower's jet budget reads the same warm or cold, also where it
    refuses past the levels already walked;
    finite-type bound capping
"""

import contextlib
import importlib
import io
import json
import pkgutil
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import formalpde
from formalpde.cli import load_system, main
from formalpde.errors import InvariantViolation
from formalpde.jetpde import (
    PdeSystem,
    _jet_shift,
    _prolongation_point,
    _held,
    _relconn,
    _walk,
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
    symbol_tower,
)
from formalpde.ratlin import RatMatrix, Subspace, image, kernel
from formalpde.relconn import (
    RelConn,
    classical_prolongation_fiber,
    prolongation_connection,
    symbol_map,
    torsion_at,
)
from formalpde.spencer import Involution, cohomology
from formalpde.tableau import Tableau, cartan_dims, tower
from formalpde.tensorspace import ext_dim, sym_dim

from conftest import HELD, clear_held
from matrices import contains, coords_of, identity, map_out, zeros
from systems import MIXED_PARTIALS, small_terms


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


@pytest.mark.parametrize("alpha", [(1,), (1, 0, 0), (2, -1), (-1, 0)])
def test_jet_index_refuses_a_multi_index_of_the_wrong_shape(alpha):
    with pytest.raises(ValueError, match=rf"multi-index {re.escape(str(alpha))}"):
        jet_index(2, 1, 2, 0, alpha)
    with pytest.raises(ValueError, match="multi-index"):
        PdeSystem.from_terms(2, 1, 2, [[(1, 0, (0, 1)), (-1, 0, alpha)]])


# --------------------------- 2. construction ---------------------------


def test_from_terms_accumulates():
    s = PdeSystem.from_terms(2, 1, 1, [[(1, 0, (1, 0)), (2, 0, (1, 0))]])
    row = s.equations.row(0)
    assert row[jet_index(2, 1, 1, 0, (1, 0))] == 3
    # repeated terms sum, cancelling ones vanish (an equation may cancel
    # entirely), and the pair rows equal the matrix built from dense rows
    eqs = [
        [(2, 0, (0, 1)), ("1/2", 1, (0, 0)), (-2, 0, (0, 1)), (1, 0, (1, 0)), ("1/2", 1, (0, 0))],
        [(3, 1, (1, 0)), (-3, 1, (1, 0))],
        [(-1, 1, (0, 1)), (1, 0, (0, 0)), (-1, 1, (0, 1))],
    ]
    dense = [[Fraction(0)] * jet_fiber_dim(2, 2, 1) for _ in eqs]
    for row, eq in zip(dense, eqs):
        for coeff, a, alpha in eq:
            row[jet_index(2, 2, 1, a, alpha)] += Fraction(coeff)
    s = PdeSystem.from_terms(2, 2, 1, eqs)
    assert s.equations == RatMatrix(dense) and hash(s.equations) == hash(RatMatrix(dense))
    assert s.equations.pairs[1] == () and all(x for row in s.equations.pairs for _, x in row)


def test_from_terms_refuses_float_coefficients():
    with pytest.raises(ValueError, match="not an exact rational"):
        PdeSystem.from_terms(2, 1, 1, [[(1, 0, (1, 0)), (0.5, 0, (0, 1))]])


def test_system_validation():
    with pytest.raises(ValueError):
        PdeSystem(n=0, m=1, k=1, equations=zeros(1, 1))
    with pytest.raises(ValueError):
        PdeSystem(n=2, m=1, k=1, equations=zeros(1, 5))


def _full_tableau() -> Tableau:
    return Tableau(n=2, f=2, space=Subspace.full(4))


@pytest.mark.parametrize("make, bad, message", [
    (cauchy_riemann, {"k": 2}, "equation matrix width does not match the jet fiber"),
    (_full_tableau, {"degree": 2}, "classical carrier has ambient 4, want 6"),
    (lambda: tower(_full_tableau(), 2), {"partials": ()}, "need one partial map per level"),
], ids=["PdeSystem", "Tableau", "TableauChain"])
def test_a_checked_record_refuses_a_bad_field_on_every_construction_path(make, bad, message):
    good = make()
    fields = {**good._asdict(), **bad}
    builds = {
        "positional": lambda: type(good)(*fields.values()),
        "keyword": lambda: type(good)(**fields),
        "_replace": lambda: good._replace(**bad),
    }
    for path, build in builds.items():
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message, path
    assert good._replace() == good and type(good._replace()) is type(good)


# --------------------------- 3-4. frozen towers ---------------------------


def test_cauchy_riemann_tower_dimensions():
    rep = prolongation_tower(cauchy_riemann(), 4)
    assert rep.base_fiber_dim == 4
    assert [r.fiber_dim for r in rep.levels] == [6, 8, 10, 12]
    assert [r.symbol_dim for r in rep.levels] == [2, 2, 2, 2]
    assert all(r.projection_surjective for r in rep.levels)
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
    ft = finite_type_integrability(gradient_zero(), 3)
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
    assert conn.sigma == identity(1)
    assert conn.mats[0] == zeros(1, 1)
    assert classical_prolongation_fiber(conn).subspace.dim == 1


def test_free_system_prolongs_to_full_jet():
    s = PdeSystem(n=2, m=1, k=1, equations=zeros(0, jet_fiber_dim(2, 1, 1)))
    pf = classical_prolongation_fiber(pde_to_relconn(s))
    assert pf.subspace.dim == jet_fiber_dim(2, 1, 2)


# --------------------------- 6. flat connections ---------------------------


def test_flat_commuting_certified():
    s = flat_system(*FLAT_COMMUTING)
    rep = prolongation_tower(s, 4)
    assert rep.base_fiber_dim == 2
    assert [r.fiber_dim for r in rep.levels] == [2, 2, 2, 2]
    ft = finite_type_integrability(s, 3)
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
    # truncation pinned to w is infeasible, its right-hand side outside the
    # column span
    p1 = formal_prolongation(s)
    lo = jet_fiber_dim(s.n, s.m, s.k)
    hi = jet_fiber_dim(s.n, s.m, s.k + 1)
    pin = [
        [Fraction(1) if c == r else Fraction(0) for c in range(hi)]
        for r in range(lo)
    ]
    stacked = RatMatrix.vstack([p1.equations, RatMatrix(pin, cols=hi)])
    rhs = [Fraction(0)] * p1.equations.rows + list(w)
    assert not image(stacked).contains_vector(rhs)


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
    assert contains(f0, trunc)


def heat3() -> PdeSystem:
    return PdeSystem.from_terms(
        3, 1, 2, [[(1, 0, (2, 0, 0)), (1, 0, (0, 2, 0)), (-1, 0, (0, 0, 1))]]
    )


def ode_over_fourths() -> PdeSystem:
    # -4u_xx + 3u_x = 0: its solution fiber's basis (1, 0, 0), (0, 1, 3/4) has
    # the common denominator 4, so the connection on it is scaled by 4
    return PdeSystem.from_terms(1, 1, 2, [[(-4, 0, (2,)), (3, 0, (1,))]])


def height_case() -> PdeSystem:
    """The heat3-shaped system with 4,000-digit coefficients, involutive at
    level 0 as heat3 is."""
    rng = random.Random(13)

    def big():
        return rng.randrange(10**3999, 10**4000)

    a, b, c = Fraction(big(), big()), Fraction(big(), big()), big()
    return PdeSystem.from_terms(3, 1, 2, [
        [(1, 0, (2, 0, 0)), (a, 0, (0, 2, 0)), (-b, 0, (0, 0, 1)), (c, 0, (1, 1, 0))]
    ])


def test_tower_rows_stay_within_the_jet_fiber(monkeypatch):
    import formalpde.jetpde as jetpde_mod

    received = []

    def recording(system):
        received.append((system.k, system.equations.rows))
        return formal_prolongation(system)

    monkeypatch.setattr(jetpde_mod, "formal_prolongation", recording)
    for s in (laplace2d(), heat3()):
        # the tower stops one level past its onto level 1; the crosscheck,
        # on a fresh record, walks every level
        received.clear()
        assert len(prolongation_tower(s, 6).levels) == 6 and len(received) == 2
        clear_held()
        received.clear()
        route = crosscheck_routes(s, 6)
        assert [k for k, _ in received] == [s.k + level - 1 for level in range(1, 7)]
        # each level prolongs the rows of the fiber below's annihilator (one
        # per jet coordinate outside that fiber) that the annihilator one
        # level lower lacks: all of them at level 1
        lower_dims = [solution_fiber(s).dim] + [lv.jet_route.fiber_dim for lv in route[:-1]]
        annihilators = [jet_fiber_dim(s.n, s.m, k) - d for (k, _), d in zip(received, lower_dims)]
        assert [rows for _, rows in received] == [
            ann - below for ann, below in zip(annihilators, [0] + annihilators[:-1])
        ], s.n
    monkeypatch.undo()
    # the annihilator handed up loses nothing, and the levels filled in from
    # the closed form are the walk's: every level's fiber is the fiber of the
    # plain repeated prolongation, which keeps every row
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        s = load_system(str(path))
        rep = prolongation_tower(s, 4)
        naive = s
        for level in rep.levels:
            naive = formal_prolongation(naive)
            assert level.fiber_dim == solution_fiber(naive).dim, (path.name, level)


def canonical_walk(s: PdeSystem, depth: int):
    """Each walk level read out canonically: the system of its new rows below,
    the canonical fiber below, the level's canonical fiber (`_Analysis.fiber`),
    its truncation image and the walk's symbol dimension."""
    held, chain = _held(s, depth, depth)
    for level, step in enumerate(_walk(held, chain), 1):
        lower_fiber, fiber = held.fiber(level - 1), held.fiber(level)
        yield step.lower, lower_fiber, fiber, fiber.head(lower_fiber.ambient_dim), step.symbol_dim


@settings(deadline=None, max_examples=60)
@given(small_terms(), st.integers(1, 4))
def test_every_walk_fiber_is_the_unseeded_elimination(terms, depth):
    # the walk prolongs only the annihilator's new rows and seeds the rest;
    # the canonical basis is contract, so each fiber read off the walk's
    # forward rows must equal, bit for bit, the kernel of the whole
    # prolonged annihilator below, read off the lower fiber's canonical basis
    s = PdeSystem.from_terms(*terms)
    for lower, lower_fiber, fiber, _, _ in canonical_walk(s, depth):
        whole = lower._replace(equations=lower_fiber.constraint_matrix())
        assert fiber.rows == kernel(formal_prolongation(whole).equations).rows


@settings(deadline=None, max_examples=100)
@given(small_terms(), st.integers(1, 4))
@example((2, 1, 1, [[(1, 0, (0, 1)), (-1, 0, (1, 0))], [(-1, 0, (0, 0))]]), 3)
def test_the_tower_reads_what_the_canonical_fibers_give(terms, depth):
    # the walk reads each level's dims off its forward pivot columns and
    # builds canonical fibers only for a witness; every record must equal
    # what the canonical fibers of the whole prolonged annihilators give,
    # built level by level with no walk: fiber, truncation image, symbol,
    # surjectivity and the first lower basis vector outside the image.  In
    # the example, u_x2 - u_x1 = 0 and u = 0, each level has fiber 1, symbol
    # 1 and image 0: every truncation image loses the pivot of the fiber
    # below, so each level adds to its seeds a row below the lower width,
    # which the walk must prolong at the level above as it does every row
    # a level adds
    s = PdeSystem.from_terms(*terms)
    report = prolongation_tower(s, depth)
    lower, lower_fiber = s, solution_fiber(s)
    for rec in report.levels:
        lower = formal_prolongation(lower._replace(equations=lower_fiber.constraint_matrix()))
        fiber = kernel(lower.equations)
        img = fiber.head(lower_fiber.ambient_dim)
        onto = img.dim == lower_fiber.dim
        witness = None if onto else next(
            v for v in lower_fiber.basis if not img.contains_vector(v)
        )
        assert rec == (rec.level, fiber.dim, fiber.dim - img.dim, onto, witness)
        lower_fiber = fiber


@settings(deadline=None, max_examples=120)
@given(small_terms(), st.integers(1, 6))
@example((3, 1, 2, [[(-1, 0, (1, 1, 0)), (-2, 0, (0, 0, 2)), (1, 0, (0, 1, 1))],
                    [(1, 0, (1, 0, 1)), (-3, 0, (1, 0, 0)), (1, 0, (0, 2, 0))],
                    [(2, 0, (1, 0, 1))]]), 4)
def test_the_levels_the_tower_fills_in_are_the_levels_the_crosscheck_walks(terms, depth):
    # Goldschmidt's criterion: once g^(l) is involutive and one projection
    # R_(k+q+1) -> R_(k+q), q >= l, is onto, so is every projection above,
    # and each fiber grows by the closed-form symbol dim.  The tower stops
    # its walk there and fills the levels above in; the crosscheck, on a
    # fresh record, walks every level, and must find the same dims.  In the
    # example g^(1) is involutive, g^(0) is not, and level 1, q = 0, is onto
    # while no level above is: an onto level below l certifies nothing
    s = PdeSystem.from_terms(*terms)
    report = prolongation_tower(s, depth)
    clear_held()
    try:
        route = crosscheck_routes(s, depth)
    except ValueError as err:
        assume("crosscheck to depth" not in str(err))
        raise
    below = [report.base_fiber_dim] + [lv.jet_route.fiber_dim for lv in route]
    walked = [(lv.jet_route.fiber_dim, lv.symbol_dim, lv.jet_route.image_dim == dim)
              for lv, dim in zip(route, below)]
    assert [(rec.fiber_dim, rec.symbol_dim, rec.projection_surjective)
            for rec in report.levels] == walked


@settings(deadline=None, max_examples=40)
@given(small_terms(), st.integers(1, 4))
@example((2, 1, 1, [[(1, 0, (0, 1)), (-1, 0, (1, 0))], [(-1, 0, (0, 0))]]), 3)
def test_walking_a_cached_base_fiber_twice_gives_the_same_fibers(terms, depth):
    # each level seeds its elimination with copies of the rows below, and a
    # level hands `kernel` copies of its rows, so a walk leaves the cached
    # fiber's kept rows as they were and a second walk from the same fiber
    # repeats it.  The second goes one level per walk, each resuming from the
    # levels held before it, which it must leave as they were too: their
    # fibers are built last.  Both walks must also give the fibers built
    # level by level with no walk, so a resume state that every walk shares
    # cannot pass wrong.  The example resumes past levels that are not onto,
    # whose truncation images lose a pivot
    s = PdeSystem.from_terms(*terms)
    base = solution_fiber(s)
    kept = [dict(row) for row in base.annihilator()]
    walks = []
    for step in (depth, 1):
        formalpde.jetpde._Analysis.cache_clear()
        for d in range(step, depth, step):
            prolongation_tower(s, d)
        walks.append([(fib.rows, img.rows) for _, _, fib, img, _ in canonical_walk(s, depth)])
    assert walks[0] == walks[1]
    assert list(base.annihilator()) == kept
    unwalked, lower, lower_fiber = [], s, base
    for _ in range(depth):
        lower = formal_prolongation(lower._replace(equations=lower_fiber.constraint_matrix()))
        fiber = kernel(lower.equations)
        unwalked.append((fiber.rows, fiber.head(lower_fiber.ambient_dim).rows))
        lower_fiber = fiber
    assert walks[1] == unwalked


def test_the_record_holds_the_base_fiber_as_level_0(count_calls):
    # the walk starts the way it resumes: the record holds the base fiber as
    # level 0 from the start, so the tower and the crosscheck read every
    # lower fiber off the record, level 1's and a witness's too, and look up
    # no solution fiber of their own
    looked_up = count_calls(solution_fiber)
    for s in heat3(), load_system(str(resources.files("formalpde") / "corpus"
                                      / "flat_connection_obstructed.pde")):
        symbol_tower(s, 2)
        held = formalpde.jetpde._Analysis(s)
        assert held.fibers == {0: solution_fiber(s)} and held.fibers[0] is solution_fiber(s)
        looked_up.clear()
        tower_report, levels = prolongation_tower(s, 2), crosscheck_routes(s, 2)
        assert looked_up == [] and len(levels) == 2
        assert tower_report.base_fiber_dim == held.fibers[0].dim
        assert sorted(held.fibers) == [0, 1, 2] and held.fibers[0] is solution_fiber(s)
    assert tower_report.verdict == "obstructed-at" and tower_report.witness is not None


def test_the_walk_reads_no_annihilator_off_a_basis(count_calls):
    # the walk seeds every level with the rows the elimination below kept,
    # and the symbol tower raises them; only its tail-built level 0, which
    # no kernel built, reads its annihilator off its canonical basis
    read_off = count_calls(Subspace.constraint_matrix)
    walks = count_calls(formalpde.jetpde._walk)
    for d in range(1, 5):
        for analysis in (prolongation_tower, crosscheck_routes):
            clear_held()  # a cold analysis: no symbol record either
            read_off.clear()
            analysis(heat3(), d)
            assert len(read_off) == 1, (analysis.__name__, d)
            (owner,) = read_off[0]
            assert owner == symbol_tableau(heat3()).space
        # with the tower held, the walk alone reads none
        read_off.clear()
        prolongation_tower(heat3(), d)
        crosscheck_routes(heat3(), d)
        assert read_off == []
    assert len(walks) == 4 * 4


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
            formalpde.jetpde._Analysis.cache_clear()
            calls.clear()
            crosscheck_routes(s, depth)
            assert len(calls) == depth, (s.n, depth)
        # the levels are held for the system: a deeper call prolongs only
        # the new ones, a shallower one nothing
        calls.clear()
        crosscheck_routes(s, 5)
        crosscheck_routes(s, 2)
        assert [lower.k for (lower,) in calls] == [s.k + 3, s.k + 4], s.n
    # only the base system's fiber is cached; the level fibers come from the
    # walk and are held with it
    solution_fiber.cache_clear()
    symbol_tableau.cache_clear()
    crosscheck_routes(laplace2d(), 3)
    assert solution_fiber.cache_info().currsize <= 1
    with pytest.raises(ValueError):
        crosscheck_routes(cauchy_riemann(), 0)


def test_every_cache_in_the_package_is_bounded():
    # a long-lived process must not grow a cache without bound; the six
    # commands of one system still share the entries they need
    caches = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(formalpde.__path__)
        if info.name != "__main__"  # importing it runs the command line
        for name, value in vars(importlib.import_module(f"formalpde.{info.name}")).items()
        if callable(getattr(value, "cache_info", None))
    }
    assert {"jetpde.solution_fiber", "tensorspace.raise_table"} <= set(caches)
    assert len(caches) >= 8
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


def test_the_base_system_caches_hold_the_one_system_they_serve(capsys):
    # a command reads the fiber and symbol of its own system only, so one
    # entry each serves the six commands run on a system in turn
    assert solution_fiber.cache_info().maxsize == symbol_tableau.cache_info().maxsize == 1
    path = str(resources.files("formalpde") / "corpus" / "laplace2d.pde")
    for command in ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck"):
        assert main([command, path]) == 0
    capsys.readouterr()
    for cache in (solution_fiber, symbol_tableau):
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits > 0, info


def test_eliminations_per_analysis(count_calls, monkeypatch):
    # counts the integer elimination `ratlin._reduced`, which `kernel` runs
    # once per call (`rref`, on no analysis path, runs two).  A built tower
    # level eliminates its tableau prolongation, and heat3's symbol tower
    # builds only level 1: level 0 passes Cartan's test there, and the
    # levels above are its closed form.  A walk level's jet system runs only the
    # forward elimination `ratlin._echelon`, counted apart below, and reads
    # its dims off the pivot columns.  heat3 is surjective at every level, so
    # its tower builds no canonical fiber past the base fiber, which is one
    # more.  heat3 is involutive at level 0 and onto at level 1, so the tower
    # walks min(d, 2) levels and fills the rest from the closed form, as it
    # does for the 4,000-digit height case at depth 14.  A crosscheck level
    # adds the jet level's canonical fiber and the connection's symbol,
    # prolongation fiber and ∂-symmetry kernel.
    # Truncation images, symbols and e = 0 slices are read off pivots or
    # canonical bases, not eliminated, the e = 0 slice is checked against
    # g^(1) by membership, and the mapped jet fiber by its points'
    # coordinates in the connection fiber.  A Spencer window reduces
    # nothing: those coordinates and its slot maps are ranked by
    # `ratlin.rank`, which builds no basis, or, at and above the involutive
    # level, filled in from the level dimensions.  So every analysis takes the
    # base fiber and the one tableau prolongation, and a crosscheck 4 per level.
    calls = count_calls(formalpde.ratlin._reduced)
    walked = []
    forward = formalpde.jetpde._echelon
    monkeypatch.setattr(
        formalpde.jetpde, "_echelon", lambda rows, seed: walked.append(1) or forward(rows, seed)
    )

    def count(analysis, *args):
        clear_held()  # a cold analysis: no symbol record either
        calls.clear()
        walked.clear()
        analysis(*args)
        return len(calls), len(walked)

    for d in range(1, 5):
        assert count(prolongation_tower, heat3(), d) == (2, min(d, 2))
        assert count(crosscheck_routes, heat3(), d) == (4 * d + 2, d)
    assert count(prolongation_tower, height_case(), 14) == (2, 2)
    for l in range(4):
        assert count(goldschmidt_check, heat3(), l) == (2, 1)


def test_the_walks_containment_check_eliminates_nothing(count_calls, monkeypatch):
    # `_echelon` stores a seed as it is, so each pivot row below is still
    # the level's pivot row at its top, the same object, and the containment
    # check settles it by one identity test: heat3's walk to depth 5, which
    # the crosscheck walks level by level, checks every kept row and runs
    # none of the eliminations `_reduces_to_zero` falls back to
    checked = count_calls(formalpde.jetpde._reduces_to_zero)
    eliminated, eliminate = [], formalpde.jetpde._eliminate
    monkeypatch.setattr(
        formalpde.jetpde, "_eliminate", lambda *args: eliminated.append(1) or eliminate(*args)
    )
    s = heat3()
    crosscheck_routes(s, 5)
    held = formalpde.jetpde._Analysis(s)
    below = [len(solution_fiber(s).annihilator())] + [len(step.rows) for step in held.steps[:4]]
    assert len(held.steps) == 5 and len(checked) == sum(below) > 0
    assert eliminated == []


def test_the_walk_inserts_each_distinct_shifted_row_once(count_calls):
    # D_i D_j = D_j D_i, so a mixed shift of a row two levels down arrives
    # twice.  The walk inserts it once, and every other shifted row of heat3's
    # walk to depth 5 takes a fresh pivot, so with the symbol tower held the
    # walk eliminates nothing; inserting each repeat too takes 50 steps.  The
    # walk is driven to every level: the tower stops at level 2
    s = heat3()
    chain = symbol_tower(s, 5)
    eliminated = count_calls(formalpde.ratlin._eliminate)
    assert len(list(_walk(formalpde.jetpde._Analysis(s), chain))) == 5
    assert eliminated == []


@settings(deadline=None, max_examples=40)
@given(small_terms(), st.integers(1, 4))
def test_every_walk_level_keeps_the_rows_of_every_shifted_row(terms, depth):
    # a repeated shifted row lies in the span of the pivot rows when it
    # arrives, so inserting only the first copy keeps, as data, the pivot
    # rows `_echelon` keeps when it is handed every shifted row
    s = PdeSystem.from_terms(*terms)
    list(_walk(*_held(s, depth, depth)))  # every level: the tower may stop early
    seed = {max(r): r for r in solution_fiber(s).annihilator()}
    for step in formalpde.jetpde._Analysis(s).steps[:depth]:
        every = formal_prolongation(step.lower).equations.pairs[step.lower.equations.rows:]
        kept = formalpde.jetpde._echelon(map(dict, every), dict(seed))
        assert list(step.rows.items()) == list(kept.items())
        seed = step.rows


def test_the_analyses_hash_no_fractions(monkeypatch):
    # from_terms keeps an integral coefficient as an int, so the cache keys
    # the heat tower and the wave goldschmidt check look up hash no Fraction
    systems = heat3(), wave4()
    hashed = []
    hash_ = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda a: hashed.append(1) or hash_(a))
    prolongation_tower(systems[0], 5)
    goldschmidt_check(systems[1], 3)
    assert hashed == []
    assert hash(Fraction(1, 2)) and hashed == [1]  # the counter counts
    (row,) = PdeSystem.from_terms(1, 1, 1, [[("1/2", 0, (1,)), ("3/3", 0, (0,))]]).equations.pairs
    assert row == ((0, 1), (1, Fraction(1, 2))) and [type(x) for _, x in row] == [int, Fraction]


def wave4() -> PdeSystem:
    # u_x1x1 - u_x2x2 - u_x3x3 - u_x4x4 + u_x1 = 0
    second = [(1 if i == 0 else -1, 0, tuple(2 * (j == i) for j in range(4))) for i in range(4)]
    return PdeSystem.from_terms(4, 1, 2, [second + [(1, 0, (1, 0, 0, 0))]])


def test_the_tower_and_cohomology_never_reduce_densely(count_calls):
    # the tower's contraction check reads the level's integer columns; the
    # walk tests containment in row form (`_reduces_to_zero`); δ∘δ = 0
    # multiplies integers.  A return to the dense coset representative fails
    # here.  Both systems pass Cartan's test at level 0, so each tower checks
    # levels 0 and 1 once, and goldschmidt_check reads the held tower
    dense = count_calls(Subspace.reduce_mod)
    checks = count_calls(formalpde.tableau._verify_contracts_into)
    for s in (heat3(), wave4()):
        solution_fiber.cache_clear()
        symbol_tableau.cache_clear()
        chain = symbol_tower(s, 3)
        report = cohomology(chain, 2, 2)
        assert all(e.h_dim == 0 for e in report.entries.values())
        goldschmidt_check(s, 2)
    assert dense == []
    assert len(checks) == 4


def test_the_contraction_check_queries_no_membership(count_calls):
    # ∂ and the residual are read off the level's columns by coordinate, the
    # residual against the annihilator rows of the level below, the rows the
    # prolongation raises, so the tower asks no level for coordinates and
    # builds no membership table
    queries = count_calls(Subspace._coords)
    for s, depth in ((heat3(), 5), (wave4(), 4)):
        solution_fiber.cache_clear()
        symbol_tableau.cache_clear()
        chain = symbol_tower(s, depth)
        assert len(chain.levels) >= 2
        assert all(level._table is None for level in chain.levels)
    assert queries == []


def test_every_membership_of_the_six_commands_runs_in_ints(monkeypatch):
    # the walk's witness search and both routes of the crosscheck hand
    # `Subspace._coords` integer rows, so no membership on a command path is
    # tested in Fraction arithmetic.  The corpus hands it 405 entries; the
    # floor sits just below, so a route that stops asking shows here
    seen = []
    coords = Subspace._coords

    def recording(self, pairs):
        pairs = list(pairs)
        seen.extend(type(x) for _, x in pairs)
        return coords(self, pairs)

    monkeypatch.setattr(Subspace, "_coords", recording)
    for command in ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck"):
        for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, str(path)]) == 0
    assert len(seen) > 400 and set(seen) == {int}


def test_the_symbol_tower_multiplies_no_fractions(monkeypatch):
    # the prolongation raises the annihilator's rows scaled to integers, and
    # the contraction check reads each level vector's integer row and tests
    # it in ints, so the tower builds Fractions only for its ∂ entries.  A
    # return to Fraction products in either fails here
    products = []
    for name in ("__mul__", "__rmul__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, op=op: products.append(1) or op(a, b))
    for s, depth in ((heat3(), 5), (wave4(), 4)):
        solution_fiber.cache_clear()
        symbol_tableau.cache_clear()
        assert symbol_tower(s, depth).depth == depth
    assert products == []
    assert Fraction(2, 3) * 3 == 2 and products == [1]  # the counter counts


def test_the_tower_walk_and_cohomology_build_no_fraction(monkeypatch):
    # every level's elimination is a `kernel`, which reads the integer
    # pivot rows directly, so the tower, the jet walk and cohomology
    # construct no Fraction at all (the systems are built before counting).
    # The crosscheck's connection route reads each fiber's basis over its
    # common denominator, 4 at the base of -4u_xx + 3u_x = 0, so it builds
    # none either.  A return to rendering rows as Fractions and reading them
    # back fails here
    runs = (
        (prolongation_tower, heat3(), 5),
        (prolongation_tower, wave4(), 4),
        (goldschmidt_check, wave4(), 3),
        (crosscheck_routes, heat3(), 5),
        (crosscheck_routes, ode_over_fourths(), 3),
    )
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *a, **k: made.append(1) or new(cls, *a, **k)
    )
    for analysis, s, depth in runs:
        clear_held()
        analysis(s, depth)
        assert made == [], analysis.__name__
    assert Fraction(2, 3) and made == [1]  # the counter counts


def test_the_tower_report_compares_no_fractions(monkeypatch):
    # a subspace is its integer rows, so the walk's containment check and
    # every cache key compare ints; a Fraction compared anywhere in the heat
    # tower report to depth 10 fails here
    compared = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: compared.append(1) or eq(a, b))
    report = prolongation_tower(heat3(), 10)
    assert report.verdict_level == 10 and len(report.levels) == 10
    assert compared == []
    assert Fraction(1, 2) == Fraction(2, 4) and compared == [1]  # the counter counts


def test_spencer_cohomology_builds_no_fraction_on_a_tower(monkeypatch):
    # the tower keeps each ∂ as the integers ∂·D, so the slot maps, the
    # δ∘δ = 0 check (one integer row scaling) and the ranks stay in ints.
    # A Fraction made, negated or multiplied in cohomology fails here
    chains = [symbol_tower(s, 4) for s in (heat3(), wave4())]
    for chain in chains:
        assert all(type(x) is int for d in chain.partials for row in d.pairs for _, x in row)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *a, **k: made.append("__new__") or new(cls, *a, **k)
    )
    for name in ("__neg__", "__mul__", "__rmul__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name, lambda *a, op=op, name=name: made.append(name) or op(*a)
        )
    reports = [cohomology(chain, 3, 2) for chain in chains]
    assert made == []
    assert all(e.h_dim == 0 for rep in reports for e in rep.entries.values())
    assert -Fraction(2, 3) * 3 == -2  # the counters count
    assert {"__new__", "__neg__", "__mul__"} <= set(made)


# --------------------------- 8. goldschmidt ---------------------------


def test_goldschmidt_cauchy_riemann_evidence_bounded():
    rep = goldschmidt_check(cauchy_riemann(), 4)
    assert rep.verdict == "integrable-up-to"
    assert rep.certification_basis == "goldschmidt-up-to-evidence(4)"
    assert all(rep.cohomology[(l, 2)] == 0 for l in range(5))
    assert all(rep.cohomology[(l, 1)] == 0 for l in range(5))
    ft = finite_type_integrability(cauchy_riemann(), 3)
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
    e = coords_of(solution_fiber(s), rep.witness)
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
    # (for k = 1 that target, Λ^3 ⊗ S^-1 ⊗ F, is zero)
    if k >= 2:
        full = tower(Tableau(n, m, Subspace.full(sym_dim(n, k - 1) * m), k - 1), 1)
        assert all(x == 0 for x in map_out(full, 0, 2).apply(slice_vec))
    # and nonzero modulo the image of delta on forms valued in the symbol
    img = image(map_out(tower(symbol_tableau(s), 1), 0, 1))
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


def torsion_kinds_along_the_walk(s: PdeSystem, depth: int = 2) -> set:
    """The torsion kinds at each lower-fiber basis vector of each walk level,
    checking that the connection route's torsion vanishes exactly where the
    jet route's truncation image holds the vector."""
    kinds = set()
    for lower, lower_fiber, _, img, _ in canonical_walk(s, depth):
        conn = _relconn(lower, lower_fiber)
        for j, v in enumerate(lower_fiber.basis):
            kind = torsion_at(conn, [int(t == j) for t in range(lower_fiber.dim)]).kind
            assert (kind == "vanishes") == img.contains_vector(v), (s, j, kind)
            kinds.add(kind)
    return kinds


def test_torsion_vanishes_exactly_where_the_jet_image_reaches():
    corpus = sorted((resources.files("formalpde") / "corpus").iterdir())
    systems = [load_system(str(path)) for path in corpus]
    systems.append(PdeSystem.from_terms(*MIXED_PARTIALS))
    kinds = set().union(*map(torsion_kinds_along_the_walk, systems))
    assert kinds == {"vanishes", "obstruction", "fiber-empty"}


@settings(deadline=None, max_examples=15)
@given(small_terms())
def test_torsion_vanishes_exactly_where_the_jet_image_reaches_on_small_systems(terms):
    torsion_kinds_along_the_walk(PdeSystem.from_terms(*terms))


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


def dense_coords(space: Subspace, v) -> tuple | None:
    """v's coordinates in a canonical basis, read densely: its pivot entries,
    if they rebuild v."""
    coords = tuple(v[p] for p in space.pivots)
    rebuilt = [
        sum((c * b[i] for c, b in zip(coords, space.basis)), Fraction(0)) for i in range(len(v))
    ]
    return coords if rebuilt == list(v) else None


def dense_connection(fiber: Subspace, sigma_rows, direction_rows) -> list[RatMatrix]:
    """sigma and the A_i of ``RelConn.on_fiber``, from dense basis rows."""
    basis, width = fiber.basis, fiber.dim
    sigma = RatMatrix([[v[r] for v in basis] for r in sigma_rows], cols=width)
    return [sigma] + [
        RatMatrix([[-v[r] for v in basis] for r in rows], cols=width) for rows in direction_rows
    ]


def times(c: int, m: RatMatrix) -> RatMatrix:
    """c·m, every entry times the int c."""
    return RatMatrix(pairs=[[(j, c * x) for j, x in row] for row in m.pairs], cols=m.cols)


def denominator(space: Subspace) -> int:
    """The lcm of every denominator of the dense basis."""
    return lcm(1, *(x.denominator for v in space.basis for x in v))


def dense_partial_map(conn) -> RatMatrix:
    """∂_D with rows b*n + i, each A_i applied to dense symbol vectors."""
    images = [[a.apply(v) for v in conn.symbol.basis] for a in conn.mats]
    rows = [[out[b] for out in ai] for b in range(conn.coeff_dim) for ai in images]
    return RatMatrix(rows, cols=conn.symbol.dim)


def dense_point(system: PdeSystem, fiber: Subspace, u) -> tuple:
    """(e, psi) of a jet, each block's coordinates read densely."""
    n, m, k = system.n, system.m, system.k
    u = [Fraction(x) for x in u]
    parts = [u[: jet_fiber_dim(n, m, k)]] + [[u[t] for t in ts] for ts in _jet_shift(n, m, k)]
    pieces = []
    for part in parts:
        coords = dense_coords(fiber, part)
        if coords is None:
            raise ValueError("not a solution")
        pieces += coords
    return tuple(pieces)


def test_the_connection_route_reads_pairs_as_the_dense_route_did():
    # every corpus system's walk at levels 1-3, and that of -4u_xx + 3u_x = 0,
    # whose base fiber has D = 4: sigma and the A_i are D times what dense
    # basis rows give (W scaled by D), ∂_D is E times the dense ∂_D over
    # them (E the symbol's D), the prolongation fiber is the dense
    # connection's as data, and each fiber jet's (e, psi) is the dense point
    named = [(path.name, load_system(str(path)))
             for path in sorted((resources.files("formalpde") / "corpus").iterdir())]
    scales = []
    for name, s in named + [("ode_over_fourths", ode_over_fourths())]:
        for level, (lower, lower_fiber, fiber, _, _) in enumerate(canonical_walk(s, 3), 1):
            n, m, k = lower.n, lower.m, lower.k
            conn = _relconn(lower, lower_fiber)
            want = dense_connection(
                lower_fiber, range(jet_fiber_dim(n, m, k - 1)), _jet_shift(n, m, k - 1)
            )
            scale = denominator(lower_fiber)
            scales.append((name, level, scale))
            assert [conn.sigma, *conn.mats] == [times(scale, a) for a in want], (name, level)
            assert symbol_map(conn).partial_map == times(
                denominator(conn.symbol), dense_partial_map(conn)
            ), (name, level)
            dense = RelConn(want[0], want[1:])
            assert classical_prolongation_fiber(conn) == classical_prolongation_fiber(dense)
            width = (1 + n) * lower_fiber.dim
            for j, v in enumerate(fiber.basis):
                # the integer row d_j·b_j maps to the ascending pairs of d_j
                # times the dense point of b_j
                ints = fiber.rows[j]
                point = _prolongation_point(lower, lower_fiber, ints)
                indices = [i for i, _ in point]
                assert indices == sorted(set(indices)) and all(x for _, x in point)
                assert RatMatrix(pairs=[point], cols=width).row(0) == tuple(
                    ints[0][1] * x for x in dense_point(lower, lower_fiber, v)
                ), (name, level)
            if level == 1:  # the prolongation fiber's layout: e, then the psi blocks
                sd, pf = conn.source_dim, classical_prolongation_fiber(conn).subspace
                blocks = [range((1 + i) * sd, (2 + i) * sd) for i in range(n)]
                outer = prolongation_connection(conn)
                want = dense_connection(pf, range(sd), blocks)
                assert [outer.sigma, *outer.mats] == [times(denominator(pf), a) for a in want]
    # every corpus level reads D = 1; the scaled case is the last system's base
    assert {scale for name, _, scale in scales if name != "ode_over_fourths"} == {1}
    assert ("ode_over_fourths", 1, 4) in scales
    s = cauchy_riemann()
    bad = [0] * jet_fiber_dim(s.n, s.m, s.k + 1)
    bad[0] = 1
    bad[jet_index(2, 2, 2, 0, (1, 0))] = 1  # violates u1_x = u2_y
    pairs = [(t, x) for t, x in enumerate(bad) if x]
    for to_point, jet in ((_prolongation_point, pairs), (dense_point, bad)):
        with pytest.raises(ValueError):
            to_point(s, solution_fiber(s), jet)


def test_the_connection_route_builds_no_matrix_from_dense_rows(monkeypatch, count_calls):
    # on_fiber, symbol_map and classical_prolongation_fiber read the bases'
    # pairs; a RatMatrix built from dense rows anywhere beneath them means a
    # dense path came back
    watched = {f.__code__ for f in (RelConn.on_fiber, symbol_map, classical_prolongation_fiber)}
    dense = []
    init = RatMatrix.__init__

    def recording(self, data=(), *, cols=None, pairs=None):
        frame = sys._getframe(1)
        while pairs is None and frame is not None:
            if frame.f_code in watched:
                dense.append(frame.f_code.co_name)
            frame = frame.f_back
        init(self, data, cols=cols, pairs=pairs)

    monkeypatch.setattr(RatMatrix, "__init__", recording)
    calls = [count_calls(f) for f in (RelConn.on_fiber, symbol_map, classical_prolongation_fiber)]
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        crosscheck_routes(load_system(str(path)), 3)
    assert all(len(c) >= 18 for c in calls)  # six systems, three levels each
    assert dense == []


# --------------------------- 13. bounds ---------------------------


def test_tower_depth_validation():
    with pytest.raises(ValueError):
        prolongation_tower(cauchy_riemann(), 0)
    with pytest.raises(ValueError):
        goldschmidt_check(cauchy_riemann(), -1)
    with pytest.raises(ValueError):
        finite_type_integrability(cauchy_riemann(), -1)


def test_a_held_tower_serves_exact_prefixes_of_its_own_system(count_calls):
    # the deepest tower is held for the system's symbol; a shallower request
    # gets exactly the tower a fresh build at that depth would return, and
    # builds nothing.  Every corpus tower is involutive at level 0, so a
    # deeper request builds nothing either.  The two flat connections share
    # their zero symbol, so the second builds none
    builds, seen = count_calls(tower), set()
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        s = load_system(str(path))
        builds.clear()
        symbol_tower(s, 4)
        for d in range(1, 6):
            served, fresh = symbol_tower(s, d), tower(symbol_tableau(s), d)
            assert served.depth == d, (path.name, d)
            assert served == fresh, (path.name, d)  # n, every level and every ∂
        assert len(builds) == (symbol_tableau(s) not in seen), path.name
        seen.add(symbol_tableau(s))
    assert len(seen) == 5


def pool_283():
    # pool system 283, -2 u_x1 + 2 u_x1x2 + 3 u = 0, -4 u_x2 - 2 u_x1x1 - u_x2x2 = 0,
    # passes Cartan's test only at level 1, which a depth-1 tower cannot see
    return PdeSystem.from_terms(2, 1, 2, [
        [(-2, 0, (1, 0)), (2, 0, (1, 1)), (3, 0, (0, 0))],
        [(-4, 0, (0, 1)), (-2, 0, (2, 0)), (-1, 0, (0, 2))],
    ])


def test_a_held_tower_with_no_involution_is_rebuilt_deeper(count_calls):
    s = pool_283()
    builds = count_calls(tower)
    assert symbol_tower(s, 1).involution is None
    deeper = symbol_tower(s, 2)
    assert len(builds) == 2 and deeper.involution.level == 1
    assert deeper == tower(symbol_tableau(s), 2)


def test_a_prefix_past_a_chain_with_no_involution_is_refused():
    # a depth-1 tower of pool system 283 has no involution, so it cannot
    # answer depth 2; it says so rather than return itself
    chain = tower(symbol_tableau(pool_283()), 1)
    with pytest.raises(ValueError, match="chain too short: level 2 not present"):
        chain.prefix(2)
    assert chain.prefix(1) == chain and chain.prefix(0).depth == 0


def test_another_system_never_gets_the_held_tower(count_calls):
    builds = count_calls(tower)
    # same shape, different symbols: a shared chain would hold the wrong spaces
    held = symbol_tower(laplace2d(), 4)
    served = symbol_tower(wave1d(), 2)
    assert served == tower(symbol_tableau(wave1d()), 2)
    assert served.levels[0] != held.levels[0]
    # laplace2d and wave1d, then each again: each symbol's record is its own
    assert symbol_tower(laplace2d(), 2) == held.prefix(2) and symbol_tower(wave1d(), 2) == served
    assert len(builds) == 2


def test_systems_with_one_symbol_share_one_tower(count_calls):
    # u_xx + u_yy + u_x = 0 has laplace2d's symbol with a lower-order term:
    # another system, with a walk of its own, but one symbol record and one
    # tower, whose prefixes are what a fresh build gives either system
    builds = count_calls(tower)
    damped = PdeSystem.from_terms(
        2, 1, 2, [[(1, 0, (2, 0)), (1, 0, (0, 2)), (1, 0, (1, 0))]]
    )
    assert symbol_tableau(damped) == symbol_tableau(laplace2d())
    runs = ((laplace2d(), 4), (damped, 2), (laplace2d(), 3), (damped, 5))
    reports = [prolongation_tower(s, depth) for s, depth in runs]
    for s, depth in runs:
        assert symbol_tower(s, depth) == tower(symbol_tableau(s), depth)
    assert len(builds) == 1
    # the walks are each system's own: every report is a cold record's
    for (s, depth), report in zip(runs, reports):
        clear_held()
        assert prolongation_tower(s, depth) == report


def test_validation_runs_before_the_held_tower_is_read(monkeypatch, count_calls):
    # every budget runs on every request, whatever either record holds, so a
    # refusal reads the same with the records cold and warm: budgets that
    # the held depth met are still checked.  The tower's jet budget runs
    # once its symbol tower is read, at the depth the walk reaches
    s = laplace2d()
    obstructed = load_system(str(resources.files("formalpde") / "corpus"
                                 / "flat_connection_obstructed.pde"))

    def refusals():
        seen = []
        # first, while the warm record is the obstructed system's: it is not
        # onto at level 1, so its walk goes on past level 2, onto, to level
        # 3 and the order-4 jet fiber of 2·C(6, 2) = 30 coordinates
        cases = [(lambda: prolongation_tower(obstructed, 4), "depth 3 needs the order-4 jet "
                  "fiber of 30 coordinates", {formalpde.jetpde: ("MAX_JET_FIBER", 20)}),
                 (lambda: symbol_tower(s, 0), "tower needs depth >= 1", {}),
                 (lambda: symbol_tower(s, -1), "tower needs depth >= 1", {}),
                 # the crosscheck walks every level: (1 + 2)·C(2 + 2 + 41, 2) = 2970
                 (lambda: crosscheck_routes(s, 42), "above the budget of 1000", {}),
                 (lambda: prolongation_tower(s, 1), "order-3 jet fiber of 10 coordinates",
                  {formalpde.jetpde: ("MAX_JET_FIBER", 9)}),
                 (lambda: symbol_tower(s, 1), "n·A\\^2 is above the budget of 20",
                  {formalpde.tableau: ("MAX_TOWER_WORK", 20)})]
        for call, message, lowered in cases:
            with monkeypatch.context() as patch:
                for module, (name, value) in lowered.items():
                    patch.setattr(module, name, value)
                with pytest.raises(ValueError, match=message) as err:
                    call()
            seen.append(str(err.value))
        return seen

    cold = refusals()
    # laplace2d, involutive at level 0, walks two levels of 42
    assert len(prolongation_tower(s, 42).levels) == 42
    assert len(formalpde.jetpde._Analysis(s).steps) == 2
    goldschmidt_check(s, 2)
    prolongation_tower(obstructed, 4)
    assert len(formalpde.jetpde._Analysis(obstructed).steps) == 3
    assert refusals() == cold
    # the symbol record is charged the tower budget alone: symbol_tower walks
    # no jets, so depth 42 is held
    assert symbol_tower(s, 42).depth == 42
    # a rebuild that raises holds nothing new: the shallower tower stays
    # held, and the next request builds again.  Only a held tower with no
    # involution is rebuilt, so hold pool system 283 (certified only at
    # level 1) at depth 1 and ask for depth 2
    p = pool_283()
    shallow = symbol_tower(p, 1)
    assert shallow.involution is None
    monkeypatch.setattr(formalpde.tableau, "prolong",
                        lambda t: Subspace.full(sym_dim(t.n, t.degree + 1) * t.f))
    with pytest.raises(InvariantViolation):
        symbol_tower(p, 2)
    assert formalpde.jetpde._Symbol(symbol_tableau(p)).tower == shallow
    monkeypatch.undo()
    builds = count_calls(tower)
    assert symbol_tower(p, 2) == tower(symbol_tableau(p), 2)
    assert len(builds) == 1


def test_a_window_that_raises_is_never_held(monkeypatch, count_calls):
    # a fault in the window's δ∘δ = 0 check fails goldschmidt, and the symbol
    # record holds no window; with the fault gone the next request computes
    # it and holds it once
    s = pool_283()  # not involutive at level 0, so its window is assembled
    record = formalpde.jetpde._Analysis(s).symbol
    monkeypatch.setattr(formalpde.spencer, "_composes_to_zero", lambda *args: False)
    with pytest.raises(InvariantViolation, match="image is not contained in the kernel"):
        goldschmidt_check(s, 1)
    assert record.windows == {} and record.tower is not None
    monkeypatch.undo()
    windows = count_calls(cohomology)
    assert goldschmidt_check(s, 1) == goldschmidt_check(s, 1)
    assert list(record.windows) == [(1, 2)] and len(windows) == 1


def test_each_test_starts_with_nothing_held_for_a_system_or_a_symbol(capsys):
    # every cache in jetpde and cli but the pure coordinate tables holds state
    # of a system or a symbol, and the autouse fixture must empty each one
    tables = {"_jet_shift", "_jet_reads"}
    caches = {
        f"{module.__name__}.{name}": value
        for module in (formalpde.jetpde, formalpde.cli)
        for name, value in vars(module).items()
        if callable(getattr(value, "cache_clear", None))
        and value.__module__ == module.__name__ and name not in tables
    }
    assert set(caches.values()) == set(HELD)
    path = str(resources.files("formalpde") / "corpus" / "laplace2d.pde")
    assert main(["goldschmidt", path]) == 0
    capsys.readouterr()
    assert all(cache.cache_info().currsize for cache in caches.values())
    clear_held()
    assert [name for name, cache in caches.items() if cache.cache_info().currsize] == []


def test_finite_type_bound_capping():
    # u_11 = u_22 = 0 has symbol spanned by x1 x2: finite type at level 1
    s = PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    full = finite_type_integrability(s, 3)
    assert full.verdict == "formally-integrable-certified"
    assert full.certification_basis == "finite-type(1)"
    dims = [full.base_fiber_dim] + [r.fiber_dim for r in full.levels]
    assert dims == [4, 4, 4]


# --------------------------- Cartan's test on the corpus and the pool ---------------------------

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cli_pool.json"


def test_cartans_test_certifies_the_corpus_and_the_pool_at_level_0_or_1():
    # the symbol tower of every corpus system and every pool system (read
    # only), to the pool's depth 4, stops at its first level that passes
    # Cartan's test; 12 pool systems need level 1, and none is left over
    pool = json.loads(POOL.read_text())
    systems = [load_system(str(path)) for path in (resources.files("formalpde") / "corpus").iterdir()]
    systems += [
        PdeSystem.from_terms(rec["n"], rec["m"], rec["k"],
                             [[(c, a, tuple(alpha)) for c, a, alpha in eq] for eq in rec["eqs"]])
        for rec in pool["pool"]
    ]
    found = Counter()
    for s in systems:
        involution = tower(symbol_tableau(s), pool["tower_depth"]).involution
        found[None if involution is None else involution.level] += 1
    assert len(systems) == 582 and found == {0: 570, 1: 12}


def test_a_flag_past_the_first_vandermonde_one_certifies_the_pool_system_they_miss():
    # -u2_x2x2 - u2_x1x2 = 0, -3 u2_x1 - u1_x1x2 + u1 = 0: under v_1 = (1, 0),
    # (0, 1) and (1, 1) dim g_1 = 1 at every level, so the coordinate flag and
    # the Vandermonde flag at t = 1, 2 miss it; t = 2, 3 certifies level 0
    s = PdeSystem.from_terms(2, 2, 2, [
        [(-1, 1, (0, 2)), (-1, 1, (1, 1))],
        [(-3, 1, (1, 0)), (-1, 0, (1, 1)), (1, 0, (0, 0))],
    ])
    chain = symbol_tower(s, 4)
    assert chain.involution == Involution(level=0, flag=((1, 2), (1, 3)), characters=(4, 0))
    assert len(chain.levels) == 2 and chain.ranks == (4, 4, 4, 4)
    for flag in (((1, 0), (0, 1)), ((1, 1), (1, 2))):
        assert cartan_dims(2, chain.partials[0], flag) == (4, 1, 0)
    # the walk eliminates levels 2 .. 4 and meets the closed form there
    assert [rec.symbol_dim for rec in prolongation_tower(s, 4).levels] == [4, 4, 4, 4]


def test_the_height_case_prolongs_only_its_first_symbol_level(count_calls):
    # level 0 passes Cartan's test, so the tower prolongs level 0 alone, and
    # the walk checks level 2 against the closed form and stops there, one
    # past its onto level 1
    s = height_case()
    prolongs = count_calls(formalpde.tableau.prolong)
    report = prolongation_tower(s, 4)
    assert [rec.symbol_dim for rec in report.levels] == [7, 9, 11, 13]
    assert [t.space for (t,) in prolongs] == [symbol_tableau(s).space]
