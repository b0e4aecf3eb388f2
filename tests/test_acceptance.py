"""Acceptance suite: one test per published criterion, exact arithmetic only.

Each test is named test_criterion_NN_<slug>; the conftest hook prints one
PASS/FAIL line per criterion after the run.  All equalities are exact
(Fraction arithmetic, tolerance zero); the two timed criteria assert their
runtime budgets.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

from formalpde.cli import format_system, main, parse_system
from formalpde.jetpde import (
    PdeSystem,
    finite_type_integrability,
    formal_prolongation,
    goldschmidt_check,
    jet_fiber_dim,
    pde_to_relconn,
    prolongation_tower,
    solution_fiber,
    symbol_tableau,
)
from formalpde.ratlin import RatMatrix, Subspace, image
from formalpde.relconn import (
    RelConn,
    classical_prolongation_fiber,
    curvature_of_lift,
    symbol_map,
    torsion_at,
)
from formalpde.spencer import cohomology
from formalpde.tableau import Tableau, prolong, tower
from formalpde.tensorspace import ext_dim, multi_indices, sym_dim

from ambient_reference import TensorSpaceDesc, delta_apply_basis, delta_matrix
from matrices import full_tower, identity, map_out, product, slot_map, zeros
from rref_reference import solve

CORPUS_NAMES = (
    "cauchy_riemann.pde",
    "laplace2d.pde",
    "wave1d.pde",
    "gradient_zero.pde",
    "flat_connection_commuting.pde",
    "flat_connection_obstructed.pde",
)


def corpus_path(name: str) -> str:
    return str(resources.files("formalpde") / "corpus" / name)


def corpus_system(name: str) -> PdeSystem:
    with open(corpus_path(name)) as handle:
        return parse_system(handle.read())


def random_tableau(rng: random.Random) -> Tableau:
    """A random classical or generalized tableau at desk scale."""
    n = rng.randint(1, 3)
    f = rng.randint(1, 2)
    if rng.random() < 0.25:
        carrier = rng.randint(1, 3)
        partial = RatMatrix(
            [[Fraction(rng.randint(-2, 2)) for _ in range(carrier)]
             for _ in range(n * f)],
            cols=carrier,
        )
        return Tableau.generalized(n, f, Subspace.full(carrier), partial)
    degree = rng.randint(1, 2)
    ambient = sym_dim(n, degree) * f
    rows = [
        [Fraction(rng.randint(-2, 2)) for _ in range(ambient)]
        for _ in range(rng.randint(0, 3))
    ]
    constraints = RatMatrix(rows, cols=ambient)
    from formalpde.ratlin import kernel

    return Tableau(n=n, f=f, space=kernel(constraints), degree=degree)


def random_pde(rng: random.Random) -> PdeSystem:
    n = rng.randint(1, 3)
    m = rng.randint(1, 2)
    k = rng.randint(1, 2)
    eqs = []
    for _ in range(rng.randint(1, 4)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randrange(m)
            alpha = [0] * n
            for _ in range(rng.randint(0, k)):
                alpha[rng.randrange(n)] += 1
            terms.append((rng.randint(-2, 2), a, tuple(alpha)))
        eqs.append(terms)
    return PdeSystem.from_terms(n, m, k, eqs)


def flat_connection_system(mats: list) -> PdeSystem:
    """du = -(sum_i A_i dx_i) u as a first-order system, n = len(mats)."""
    n = len(mats)
    m = len(mats[0])
    eqs = []
    for i, mat in enumerate(mats):
        step = tuple(1 if t == i else 0 for t in range(n))
        for b in range(m):
            terms = [(1, b, step)]
            for c in range(m):
                if mat[b][c]:
                    terms.append((mat[b][c], c, (0,) * n))
            eqs.append(terms)
    return PdeSystem.from_terms(n, m, 1, eqs)


# --------------------------- criterion 1 ---------------------------


def test_criterion_01_spencer_complex_squares_to_zero():
    started = time.monotonic()
    # ambient: delta after delta annihilates every basis element
    for n, f, k in itertools.product(range(1, 5), range(1, 4), range(1, 5)):
        for j in range(0, n + 1):
            from formalpde.tensorspace import ext_indices

            for a in range(f):
                for s in ext_indices(n, j):
                    for alpha in multi_indices(n, k):
                        acc: dict = {}
                        for key1, c1 in delta_apply_basis(
                            n, j, k, a, s, alpha
                        ).items():
                            a1, s1, alpha1 = key1
                            for key2, c2 in delta_apply_basis(
                                n, j + 1, k - 1, a1, s1, alpha1
                            ).items():
                                acc[key2] = acc.get(key2, Fraction(0)) + c1 * c2
                        assert all(v == 0 for v in acc.values())
    # the same statement at matrix level on a sample of shapes
    for n, f, k, j in [(2, 2, 2, 0), (3, 2, 3, 1), (4, 3, 4, 2), (4, 1, 2, 3)]:
        second = product(delta_matrix(n, j + 1, k - 1, f), delta_matrix(n, j, k, f))
        assert second == zeros(second.rows, second.cols)
    # restricted chains: consecutive chain maps compose to zero on every
    # level, which `tower` builds only through the one above its first
    # involutive level, so they are read off the full tower, of which the
    # built levels are a prefix
    rng = random.Random(90125)
    for _ in range(200):
        t = random_tableau(rng)
        depth = rng.randint(2, 3)
        chain, built = full_tower(t, depth), tower(t, depth)
        assert built.levels == chain.levels[: len(built.levels)]
        assert built.partials == chain.partials[: len(built.partials)]
        assert built.ranks == chain.ranks
        for l in range(1, depth + 1):
            for m in range(0, t.n):
                lower = map_out(chain, l - 1, m + 1)
                upper = map_out(chain, l, m)
                composed = product(lower, upper)
                assert composed == zeros(composed.rows, composed.cols)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 1 exceeded its budget: {elapsed:.1f}s"


# --------------------------- criterion 2 ---------------------------


def test_criterion_02_first_cohomology_always_vanishes():
    tableaux = [symbol_tableau(corpus_system(name)) for name in CORPUS_NAMES]
    rng = random.Random(60901)
    tableaux += [random_tableau(rng) for _ in range(100)]
    for t in tableaux:
        chain = tower(t, 3)
        report = cohomology(chain, l_max=2, m_max=1)
        assert all(
            report.entries[(l, 1)].h_dim == 0 for l in range(3)
        ), f"H(l,1) != 0 for {t}"


# --------------------------- criterion 3 ---------------------------


def test_criterion_03_full_tableau_ranks_and_acyclicity():
    for n in range(1, 4):
        for f in range(1, 4):
            t = Tableau(n=n, f=f, space=Subspace.full(n * f))
            ranks = (t.space.dim,) + tower(t, 4).ranks
            expected = tuple(f * math.comb(n + i, i + 1) for i in range(5))
            assert ranks == expected
            chain = tower(t, 3)
            report = cohomology(chain, l_max=2, m_max=max(n, 1))
            assert all(entry.h_dim == 0 for entry in report.entries.values())


# --------------------------- criterion 4 ---------------------------


def test_criterion_04_cauchy_riemann_profile():
    s = corpus_system("cauchy_riemann.pde")
    tab = symbol_tableau(s)
    assert tab.space.dim == 2
    assert (tab.space.dim,) + tower(tab, 4).ranks == (2, 2, 2, 2, 2)
    rep = prolongation_tower(s, 4)
    assert rep.base_fiber_dim == 4
    assert [r.fiber_dim for r in rep.levels] == [6, 8, 10, 12]
    assert all(r.projection_surjective for r in rep.levels)
    gold = goldschmidt_check(s, 4)
    assert gold.verdict == "integrable-up-to"
    assert gold.certification_basis == "goldschmidt-up-to-evidence(4)"
    assert all(gold.cohomology[(l, 2)] == 0 for l in range(5))


# --------------------------- criterion 5 ---------------------------


def test_criterion_05_laplace_symbol_constant():
    s = corpus_system("laplace2d.pde")
    tab = symbol_tableau(s)
    assert tab.space.dim == 2
    assert (tab.space.dim,) + tower(tab, 4).ranks == (2, 2, 2, 2, 2)
    rep = prolongation_tower(s, 4)
    assert rep.base_fiber_dim == 5
    assert [r.fiber_dim for r in rep.levels] == [7, 9, 11, 13]
    assert all(r.projection_surjective for r in rep.levels)


# --------------------------- criterion 6 ---------------------------


def random_matrix(rng: random.Random, m: int) -> list[list[int]]:
    return [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]


def mat_mul(a, b):
    m = len(a)
    return [
        [sum(a[r][t] * b[t][c] for t in range(m)) for c in range(m)]
        for r in range(m)
    ]


def mat_poly(coeffs, mat):
    """coeffs[d] multiplies mat^d; evaluated exactly over the integers."""
    m = len(mat)
    out = [[0] * m for _ in range(m)]
    power = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
    for d, coeff in enumerate(coeffs):
        if d > 0:
            power = mat_mul(power, mat)
        for r in range(m):
            for c in range(m):
                out[r][c] += coeff * power[r][c]
    return out


def commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return [
        [ab[r][c] - ba[r][c] for c in range(len(a))] for r in range(len(a))
    ]


def test_criterion_06_flat_connection_family():
    rng = random.Random(46751)
    commuting = []
    while len(commuting) < 50:
        m = rng.choice((2, 2, 3))
        seed_mat = random_matrix(rng, m)
        a = mat_poly([rng.randint(-2, 2) for _ in range(3)], seed_mat)
        b = mat_poly([rng.randint(-2, 2) for _ in range(3)], seed_mat)
        assert commutator(a, b) == [[0] * m for _ in range(m)]
        commuting.append((a, b))
    noncommuting = []
    while len(noncommuting) < 50:
        m = rng.choice((2, 2, 3))
        a, b = random_matrix(rng, m), random_matrix(rng, m)
        if commutator(a, b) != [[0] * m for _ in range(m)]:
            noncommuting.append((a, b))
    for a, b in commuting:
        s = flat_connection_system([a, b])
        verdict = finite_type_integrability(s, 2)
        assert verdict.verdict == "formally-integrable-certified"
    for a, b in noncommuting:
        m = len(a)
        s = flat_connection_system([a, b])
        verdict = finite_type_integrability(s, 2)
        assert verdict.verdict == "obstructed-at"
        assert verdict.verdict_level == 1
        rep = prolongation_tower(s, 2)
        assert rep.verdict == "obstructed-at" and rep.verdict_level == 1
        # second pipeline: the connection-side torsion is the commutator class
        # (slot oriented by e_1 ∧ e_2, i.e. the coefficient of dx1 ∧ dx2)
        conn = pde_to_relconn(s)
        assert conn.sigma == identity(m)
        comm = commutator(a, b)
        obstructed_count = 0
        for c in range(m):
            e = [Fraction(1) if t == c else Fraction(0) for t in range(m)]
            result = torsion_at(conn, e)
            expected = [Fraction(comm[r][c]) for r in range(m)]
            if any(x != 0 for x in expected):
                assert result.kind == "obstruction"
                assert list(result.representative) == expected
                obstructed_count += 1
            else:
                assert result.kind == "vanishes"
        assert obstructed_count > 0


# --------------------------- criteria 7 and 8 ---------------------------


def _criterion7_instances():
    systems = [corpus_system(name) for name in CORPUS_NAMES]
    rng = random.Random(77013)
    systems += [random_pde(rng) for _ in range(100)]
    return systems


def test_criterion_07_cross_route_equivalence():
    started = time.monotonic()
    for s in _criterion7_instances():
        pf = classical_prolongation_fiber(pde_to_relconn(s))
        f1 = solution_fiber(formal_prolongation(s))
        assert pf.subspace.dim == f1.dim
        lo = jet_fiber_dim(s.n, s.m, s.k)
        jet_image_dim = Subspace.from_spanning(
            lo, [col[:lo] for col in f1.basis]
        ).dim
        assert pf.projection_image.dim == jet_image_dim
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 7 exceeded its budget: {elapsed:.1f}s"


def test_criterion_08_exact_sequence_bookkeeping():
    for s in _criterion7_instances():
        conn = pde_to_relconn(s)
        pf = classical_prolongation_fiber(conn)
        g1 = prolong(symbol_map(conn))
        assert pf.subspace.dim == g1.dim + pf.projection_image.dim


# --------------------------- criterion 9 ---------------------------


def random_relconn(rng: random.Random) -> RelConn:
    n = rng.randint(2, 3)
    w = rng.randint(1, 3)
    q = rng.randint(1, 3)
    def rand_mat():
        return RatMatrix(
            [[Fraction(rng.randint(-2, 2)) for _ in range(q)] for _ in range(w)],
            cols=q,
        )
    return RelConn(rand_mat(), [rand_mat() for _ in range(n)])


def test_criterion_09_torsion_lift_independence():
    rng = random.Random(11209)
    obstructions = 0
    for _ in range(100):
        conn = random_relconn(rng)
        n, q, w = conn.n, conn.source_dim, conn.coeff_dim
        delta_image = image(slot_map(symbol_map(conn).partial_map, n, 1))
        sym_basis = symbol_map(conn).space.basis
        for c in range(q):
            e = [Fraction(1) if t == c else Fraction(0) for t in range(q)]
            result = torsion_at(conn, e)
            if result.kind == "fiber-empty":
                continue
            # rebuild a lift independently, then shift it inside the kernel
            lift = []
            feasible = True
            for i in range(n):
                rhs = [-x for x in conn.mats[i].apply(e)]
                sol = solve(conn.sigma, rhs)
                if sol is None:
                    feasible = False
                    break
                lift.extend(sol)
            assert feasible
            base_class = delta_image.reduce_mod(curvature_of_lift(conn, lift))
            if result.kind == "obstruction":
                assert list(result.representative) == list(base_class)
                obstructions += 1
            else:
                assert all(x == 0 for x in base_class)
            for _ in range(3):
                shifted = list(lift)
                for i in range(n):
                    if sym_basis and rng.random() < 0.8:
                        vec = sym_basis[rng.randrange(len(sym_basis))]
                        scale = Fraction(rng.randint(-2, 2))
                        for t in range(q):
                            shifted[i * q + t] += scale * vec[t]
                curv = curvature_of_lift(conn, shifted)
                assert list(delta_image.reduce_mod(curv)) == list(base_class)
                drift = [
                    a - b
                    for a, b in zip(curv, curvature_of_lift(conn, lift))
                ]
                assert delta_image.contains_vector(drift)
    assert obstructions >= 10  # the sample genuinely exercises the hard branch


# --------------------------- criterion 10 ---------------------------


def test_criterion_10_cli_determinism(capsys, tmp_path):
    commands = (
        ["symbol"],
        ["tower"],
        ["cohomology"],
        ["goldschmidt"],
        ["finite-type"],
        ["crosscheck"],
    )
    for name in CORPUS_NAMES:
        path = corpus_path(name)
        for command in commands:
            argv = command + [path, "--json", "-"]
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second, f"{name} {command[0]} output drifted"
            json.loads(first)
    # process-level determinism is independent of hash randomization
    blobs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "formalpde", "tower",
             corpus_path("cauchy_riemann.pde"), "--json", "-"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0
        blobs.append(proc.stdout)
    assert blobs[0] == blobs[1]
    # parse/print round-trip identity on the corpus
    for name in CORPUS_NAMES:
        with open(corpus_path(name)) as handle:
            system = parse_system(handle.read())
        printed = format_system(system)
        assert parse_system(printed) == system
        assert format_system(parse_system(printed)) == printed
