"""Tests for jet-level PDE systems and integrability reports.

Plan:
 1. jet coordinate layout: order, index round-trip, truncation-as-prefix
 2. from_terms accumulation (repeated and cancelling terms give the pair
    rows of the dense-built matrix) and input validation (float coefficients
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
    second walk from the same cached base fiber repeats the first, and only
    the symbol tower's level 0 reads an annihilator off a basis
    (`constraint_matrix`);
    the crosscheck prolongs once per level and caches no level system,
    every cache in the package is bounded, and the base system's fiber and
    symbol caches hold the one system the six commands share; the
    eliminations per analysis are pinned, the walk's forward ones apart
    (symbols and e = 0 slices are read
    off the fibers, not eliminated again), and the tower, its cohomology and
    goldschmidt test membership over nonzero pairs, never by a dense
    coset representative; every membership test of the six commands on the
    corpus gets only int values; the symbol tower multiplies no Fractions
    (its prolongation and contraction check run on integer rows), keeps
    every ∂ in ints, and its Spencer cohomology builds no Fraction
 8. goldschmidt on Cauchy-Riemann: evidence-bounded positive verdict
 9. an obstructed system with a nonzero symbol
10. torsion-home invariant: the obstruction class sits in the top jet slice,
    is delta-closed into form degree 3, and is nonzero modulo delta of the
    symbol
11. solution jets of the prolonged system = prolongation fiber of the
    associated relative connection (exact subspace equality); at every walk
    level the torsion at a lower-fiber basis vector vanishes exactly when
    the jet image holds it (corpus, MIXED_PARTIALS, drawn small systems)
12. jet_to_prolongation_point rejects non-solutions; on the corpus walks,
    the connection route's sigma, A_i, ∂_D and jet points, read off pairs,
    equal what dense basis rows give (a fiber vector's integer row maps to
    its scale times the dense point), and it builds no matrix from dense rows
13. tower depth validation; the held symbol tower serves exact prefixes,
    only to its own system, and only after every depth and budget check;
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
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formalpde
from formalpde.cli import load_system, main
from formalpde.errors import InvariantViolation
from formalpde.jetpde import (
    PdeSystem,
    _jet_shift,
    _prolongation_point,
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
from formalpde.spencer import cohomology
from formalpde.tableau import Tableau, tower
from formalpde.tensorspace import ext_dim, sym_dim

from matrices import contains, coords_of, identity, zeros
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


def test_tower_rows_stay_within_the_jet_fiber(monkeypatch):
    import formalpde.jetpde as jetpde_mod

    received = []

    def recording(system):
        received.append((system.k, system.equations.rows))
        return formal_prolongation(system)

    monkeypatch.setattr(jetpde_mod, "formal_prolongation", recording)
    for s in (laplace2d(), heat3()):
        received.clear()
        rep = prolongation_tower(s, 6)
        assert [k for k, _ in received] == [s.k + level - 1 for level in range(1, 7)]
        # each level prolongs the rows of the fiber below's annihilator (one
        # per jet coordinate outside that fiber) that the annihilator one
        # level lower lacks: all of them at level 1
        lower_dims = [rep.base_fiber_dim] + [lv.fiber_dim for lv in rep.levels[:-1]]
        annihilators = [jet_fiber_dim(s.n, s.m, k) - d for (k, _), d in zip(received, lower_dims)]
        assert [rows for _, rows in received] == [
            ann - below for ann, below in zip(annihilators, [0] + annihilators[:-1])
        ], s.n
    monkeypatch.undo()
    # the annihilator handed up loses nothing: every level's fiber is the
    # fiber of the plain repeated prolongation, which keeps every row
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        s = load_system(str(path))
        rep = prolongation_tower(s, 4)
        naive = s
        for level in rep.levels:
            naive = formal_prolongation(naive)
            assert level.fiber_dim == solution_fiber(naive).dim, (path.name, level)


def canonical_walk(s: PdeSystem, depth: int):
    """Each walk level read out canonically: the system of its new rows below,
    the canonical fiber below, the level's canonical fiber (`_Level.fiber`),
    its truncation image and the walk's symbol dimension."""
    lower_fiber = solution_fiber(s)
    for step in _walk(s, lower_fiber, symbol_tower(s, depth).ranks):
        fiber = step.fiber()
        yield step.lower, lower_fiber, fiber, fiber.head(lower_fiber.ambient_dim), step.symbol_dim
        lower_fiber = fiber


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
def test_the_tower_reads_what_the_canonical_fibers_give(terms, depth):
    # the walk reads each level's dims off its forward pivot columns and
    # builds canonical fibers only for a witness; every record must equal
    # what the canonical fibers of the whole prolonged annihilators give,
    # built level by level with no walk: fiber, truncation image, symbol,
    # surjectivity and the first lower basis vector outside the image
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
        assert rec == (rec.level, fiber.dim, fiber.dim - img.dim, onto, onto, witness)
        lower_fiber = fiber


@settings(deadline=None, max_examples=40)
@given(small_terms(), st.integers(1, 4))
def test_walking_a_cached_base_fiber_twice_gives_the_same_fibers(terms, depth):
    # each level seeds its elimination with copies of the rows below, and a
    # level hands `kernel` copies of its rows, so a walk leaves the cached
    # fiber's kept rows as they were and a second walk from the same fiber
    # repeats it
    s = PdeSystem.from_terms(*terms)
    base = solution_fiber(s)
    kept = [dict(row) for row in base.annihilator()]
    walks = [
        [(fib.rows, img.rows) for _, _, fib, img, _ in canonical_walk(s, depth)] for _ in (1, 2)
    ]
    assert walks[0] == walks[1]
    assert list(base.annihilator()) == kept


def test_the_walk_reads_no_annihilator_off_a_basis(count_calls):
    # the walk seeds every level with the rows the elimination below kept,
    # and the symbol tower raises them; only its tail-built level 0, which
    # no kernel built, reads its annihilator off its canonical basis
    read_off = count_calls(Subspace.constraint_matrix)
    walks = count_calls(formalpde.jetpde._walk)
    for d in range(1, 5):
        for analysis in (prolongation_tower, crosscheck_routes):
            solution_fiber.cache_clear()
            symbol_tableau.cache_clear()
            formalpde.jetpde._held_tower.cache_clear()
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
    solution_fiber.cache_clear()
    symbol_tableau.cache_clear()
    for command in ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck"):
        assert main([command, path]) == 0
    capsys.readouterr()
    for cache in (solution_fiber, symbol_tableau):
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits > 0, info


def test_eliminations_per_analysis(count_calls, monkeypatch):
    # counts the integer elimination `ratlin._reduced`, which `kernel` runs
    # once per call (`rref`, on no analysis path, runs two).  A tower level
    # eliminates its tableau prolongation; its jet system runs only the
    # forward elimination `ratlin._echelon`, counted apart below, and reads
    # its dims off the pivot columns.  heat3 is surjective at every level, so
    # its tower builds no canonical fiber past the base fiber, which is one
    # more.  A crosscheck level adds the jet level's canonical fiber and the
    # connection's symbol, prolongation fiber and ∂-symmetry kernel.
    # Truncation images, symbols and e = 0 slices are read off pivots or
    # canonical bases, not eliminated, the e = 0 slice is checked against
    # g^(1) by membership, and the mapped jet fiber by its points'
    # coordinates in the connection fiber.  A Spencer window reduces
    # nothing: those coordinates and its slot maps are ranked by
    # `ratlin.rank`, which builds no basis.  So goldschmidt_check takes the
    # base fiber and one tableau prolongation per symbol level 1 .. l + 1.
    calls = count_calls(formalpde.ratlin._reduced)
    walked = []
    forward = formalpde.jetpde._echelon
    monkeypatch.setattr(
        formalpde.jetpde, "_echelon", lambda rows, seed: walked.append(1) or forward(rows, seed)
    )

    def count(analysis, *args):
        solution_fiber.cache_clear()
        symbol_tableau.cache_clear()
        formalpde.jetpde._held_tower.cache_clear()
        calls.clear()
        walked.clear()
        analysis(*args)
        return len(calls), len(walked)

    for d in range(1, 5):
        assert count(prolongation_tower, heat3(), d) == (d + 1, d)
        assert count(crosscheck_routes, heat3(), d) == (5 * d + 1, d)
    for l in range(4):
        assert count(goldschmidt_check, heat3(), l) == (l + 2, 1)


def wave4() -> PdeSystem:
    # u_x1x1 - u_x2x2 - u_x3x3 - u_x4x4 + u_x1 = 0
    second = [(1 if i == 0 else -1, 0, tuple(2 * (j == i) for j in range(4))) for i in range(4)]
    return PdeSystem.from_terms(4, 1, 2, [second + [(1, 0, (1, 0, 0, 0))]])


def test_the_tower_and_cohomology_never_reduce_densely(count_calls):
    # the tower's contraction check and every walk membership read a vector's
    # nonzero pairs (`Subspace._coords`); δ∘δ = 0 multiplies integers.  A
    # return to the dense coset representative fails here
    dense = count_calls(Subspace.reduce_mod)
    sparse = count_calls(Subspace._coords)
    for s in (heat3(), wave4()):
        solution_fiber.cache_clear()
        symbol_tableau.cache_clear()
        chain = symbol_tower(s, 3)
        report = cohomology(chain, 2, 2)
        assert all(e.h_dim == 0 for e in report.entries.values())
        goldschmidt_check(s, 2)
    assert dense == []
    assert len(sparse) > 100


def test_every_membership_of_the_six_commands_runs_in_ints(monkeypatch):
    # the walk's witness search, the tower's contraction check and both
    # routes of the crosscheck hand `Subspace._coords` integer rows, so no
    # membership on a command path is tested in Fraction arithmetic
    seen = []
    coords = Subspace._coords

    def recording(self, pairs):
        pairs = list(pairs)
        seen.extend(type(x) for _, x in pairs)
        return coords(self, pairs)

    monkeypatch.setattr(Subspace, "_coords", recording)
    solution_fiber.cache_clear()
    symbol_tableau.cache_clear()
    for command in ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck"):
        for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, str(path)]) == 0
    assert len(seen) > 500 and set(seen) == {int}


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
        assert len(symbol_tower(s, depth).levels) == depth + 1
    assert products == []
    assert Fraction(2, 3) * 3 == 2 and products == [1]  # the counter counts


def test_the_tower_walk_and_cohomology_build_no_fraction(monkeypatch):
    # every level's elimination is a `kernel`, which reads the integer
    # pivot rows directly, so the tower, the jet walk and cohomology
    # construct no Fraction at all (the systems are built before counting).
    # A return to rendering the echelon rows as Fractions and reading them
    # back fails here
    runs = (
        (prolongation_tower, heat3(), 5),
        (prolongation_tower, wave4(), 4),
        (goldschmidt_check, wave4(), 3),
    )
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *a, **k: made.append(1) or new(cls, *a, **k)
    )
    for analysis, s, depth in runs:
        solution_fiber.cache_clear()
        symbol_tableau.cache_clear()
        formalpde.jetpde._held_tower.cache_clear()
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
    solution_fiber.cache_clear()
    symbol_tableau.cache_clear()
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
        assert all(x == 0 for x in full.map_out(0, 2).apply(slice_vec))
    # and nonzero modulo the image of delta on forms valued in the symbol
    img = image(tower(symbol_tableau(s), 1).map_out(0, 1))
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
    # every corpus system's walk at levels 1-3: sigma, the A_i, ∂_D and each
    # fiber jet's (e, psi) equal what dense basis rows give, as data
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        s = load_system(str(path))
        for level, (lower, lower_fiber, fiber, _, _) in enumerate(canonical_walk(s, 3), 1):
            n, m, k = lower.n, lower.m, lower.k
            conn = _relconn(lower, lower_fiber)
            want = dense_connection(
                lower_fiber, range(jet_fiber_dim(n, m, k - 1)), _jet_shift(n, m, k - 1)
            )
            assert [conn.sigma, *conn.mats] == want, (path.name, level)
            assert symbol_map(conn).partial_map.pairs == dense_partial_map(conn).pairs
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
                ), (path.name, level)
            if level == 1:  # the prolongation fiber's layout: e, then the psi blocks
                sd, pf = conn.source_dim, classical_prolongation_fiber(conn).subspace
                blocks = [range((1 + i) * sd, (2 + i) * sd) for i in range(n)]
                outer = prolongation_connection(conn)
                assert [outer.sigma, *outer.mats] == dense_connection(pf, range(sd), blocks)
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
    # the deepest tower is held; a shallower request gets exactly the tower a
    # fresh build at that depth would return, and builds nothing
    builds = count_calls(tower)
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        s = load_system(str(path))
        builds.clear()
        symbol_tower(s, 4)
        for d in range(1, 5):
            served, fresh = symbol_tower(s, d), tower(symbol_tableau(s), d)
            assert len(served.levels) == len(served.partials) == d + 1, (path.name, d)
            assert served == fresh, (path.name, d)  # n, every level and every ∂
        assert len(builds) == 1, path.name
        symbol_tower(s, 5)  # deeper than the held tower: one more build
        assert len(builds) == 2, path.name


def test_another_system_never_gets_the_held_tower(count_calls):
    builds = count_calls(tower)
    # same shape, different symbols: a shared chain would hold the wrong spaces
    held = symbol_tower(laplace2d(), 4)
    served = symbol_tower(wave1d(), 2)
    assert served == tower(symbol_tableau(wave1d()), 2)
    assert served.levels[0] != held.levels[0]
    # the same symbol with a lower-order term is another system all the same
    damped = PdeSystem.from_terms(
        2, 1, 2, [[(1, 0, (2, 0)), (1, 0, (0, 2)), (1, 0, (1, 0))]]
    )
    assert symbol_tower(damped, 2) == symbol_tower(laplace2d(), 2)
    # laplace2d, wave1d, damped, then laplace2d again: only one system is held
    assert len(builds) == 4


def test_validation_runs_before_the_held_tower_is_read(monkeypatch, count_calls):
    s = laplace2d()
    symbol_tower(s, 4)
    for depth in (0, -1):
        with pytest.raises(ValueError, match="tower needs depth >= 1"):
            symbol_tower(s, depth)
    with pytest.raises(ValueError, match="above the budget of 1000"):
        symbol_tower(s, 42)  # C(2 + 2 + 42, 2) = 1035 jet coordinates
    # budgets that the held depth met are still checked on every request
    monkeypatch.setattr(formalpde.jetpde, "MAX_JET_FIBER", 9)
    with pytest.raises(ValueError, match="order-3 jet fiber of 10 coordinates"):
        symbol_tower(s, 1)
    monkeypatch.undo()
    monkeypatch.setattr(formalpde.tableau, "MAX_TOWER_WORK", 20)
    with pytest.raises(ValueError, match="n·A\\^2 is above the budget of 20"):
        symbol_tower(s, 1)
    monkeypatch.undo()
    # a build that raises leaves nothing held: the next request builds again
    monkeypatch.setattr(formalpde.tableau, "prolong",
                        lambda t: Subspace.full(sym_dim(t.n, t.degree + 1) * t.f))
    with pytest.raises(InvariantViolation):
        symbol_tower(s, 5)
    assert formalpde.jetpde._held_tower(s) == []
    monkeypatch.undo()
    builds = count_calls(tower)
    assert symbol_tower(s, 2) == tower(symbol_tableau(s), 2)
    assert len(builds) == 1


def test_finite_type_bound_capping():
    # u_11 = u_22 = 0 has symbol spanned by x1 x2: finite type at level 1
    s = PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    full = finite_type_integrability(s, 3)
    assert full.verdict == "formally-integrable-certified"
    assert full.certification_basis == "finite-type(1)"
    dims = [full.base_fiber_dim] + [r.fiber_dim for r in full.levels]
    assert dims == [4, 4, 4]
