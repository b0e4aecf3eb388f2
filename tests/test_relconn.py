"""Relative connection tests.

Plan:
 1) flat connections (sigma = id): torsion decides commutativity, the
    obstruction class is the commutator applied to the point;
 2) prolongation fibers: partial vs classical, projection image and e = 0
    slice on worked examples, the induced connection and its compatibility
    (including the necessity of the minus sign in the psi extraction);
 3) the curvature formula against the section-level symbolic oracle, and
    lift-independence of the class;
 4) fiber-empty detection for non-surjective sigma, compatibility failure
    records, h01 on a worked example.
"""

import random
from fractions import Fraction

import pytest
import sympy

from formalpde.errors import InvariantViolation
from formalpde.ratlin import RatMatrix, Subspace, image
from formalpde.relconn import (
    RelConn,
    classical_prolongation_fiber,
    compatible,
    curvature_of_lift,
    h01_dim,
    partial_prolongation_fiber,
    prolongation_connection,
    symbol_map,
    torsion_at,
)
from formalpde.spencer import delta_partial_matrix

from oracle_brute import section_curvature

F = Fraction


def flat_conn(a1, a2):
    """sigma = id, directions act by the given matrices."""
    m = len(a1)
    return RelConn(RatMatrix.identity(m), [RatMatrix(a1), RatMatrix(a2)])


def to_sympy(m: RatMatrix) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x) for x in m.row(i)] for i in range(m.rows)])


# --------------------------- 1) flat connections ---------------------------


def test_flat_commuting_torsion_vanishes():
    conn = flat_conn([[1, 1], [0, 1]], [[1, 2], [0, 1]])  # A_2 = A_1^2
    for e in ([1, 0], [0, 1], [3, -2]):
        res = torsion_at(conn, e)
        assert res.kind == "vanishes"
        # the lift is forced: psi_i = -A_i e
        for i, a in enumerate(conn.mats):
            want = tuple(-x for x in a.apply(e))
            assert res.lift[i * 2 : (i + 1) * 2] == want


def test_flat_noncommuting_obstruction_is_commutator():
    a1 = [[0, 1], [0, 0]]
    a2 = [[0, 0], [1, 0]]
    conn = flat_conn(a1, a2)
    comm = RatMatrix(a1) @ RatMatrix(a2) - RatMatrix(a2) @ RatMatrix(a1)
    for e in ([1, 0], [0, 1], [2, 5]):
        res = torsion_at(conn, e)
        assert res.kind == "obstruction"
        # ker sigma = 0, so the class is the raw curvature [A_1, A_2] e
        assert res.representative == comm.apply(e)
    # points in the kernel of the commutator (here only 0) do vanish
    assert torsion_at(conn, [0, 0]).kind == "vanishes"


def test_flat_symbol_is_zero_and_sigma_surjective():
    conn = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert conn.symbol.dim == 0
    assert conn.sigma.rank() == conn.coeff_dim  # sigma is onto
    tab = symbol_map(conn)
    assert tab.dim == 0 and tab.partial_map.shape == (4, 0)


# --------------------------- 2) prolongation fibers ---------------------------


def test_commuting_fiber_shape():
    conn = flat_conn([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    pf = classical_prolongation_fiber(conn)
    assert pf.subspace.dim == 2
    assert pf.projection_image == Subspace.full(2)
    assert pf.kernel_part.dim == 0


def test_obstructed_fiber_is_empty_above_nonzero_points():
    conn = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    pf = classical_prolongation_fiber(conn)
    assert pf.subspace.dim == 0
    assert pf.projection_image.dim == 0
    partial = partial_prolongation_fiber(conn)
    assert partial.dim == 2  # lifts exist over every point, just not symmetric ones


def test_partial_fiber_with_kernel():
    # sigma forgets the third source coordinate
    sigma = RatMatrix([[1, 0, 0], [0, 1, 0]])
    a1 = RatMatrix([[0, 0, 1], [0, 0, 0]])
    a2 = RatMatrix([[0, 0, 2], [0, 0, 0]])
    conn = RelConn(sigma, [a1, a2])
    assert conn.symbol.dim == 1
    pf = classical_prolongation_fiber(conn)
    assert pf.subspace.dim == 4
    assert pf.projection_image == Subspace.full(3)
    assert pf.kernel_part.dim == 1


def test_prolongation_connection_is_compatible():
    rng = random.Random(21)
    for _ in range(10):
        cd, sd = rng.randint(1, 2), rng.randint(2, 3)
        sigma = RatMatrix([[rng.randint(-2, 2) for _ in range(sd)] for _ in range(cd)])
        mats = [
            RatMatrix([[rng.randint(-2, 2) for _ in range(sd)] for _ in range(cd)])
            for _ in range(2)
        ]
        conn = RelConn(sigma, mats)
        inner = prolongation_connection(conn)
        assert compatible(conn, inner).ok


def test_prolongation_connection_sign_is_forced():
    conn = flat_conn([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    fiber = classical_prolongation_fiber(conn).subspace
    cols = fiber.basis
    sigma_p = RatMatrix([c[:2] for c in cols], cols=2).transpose()
    wrong = RelConn(
        sigma_p,
        [
            RatMatrix([c[2 + i * 2 : 4 + i * 2] for c in cols], cols=2).transpose()
            for i in range(2)
        ],
    )
    report = compatible(conn, wrong)
    assert not report.ok
    assert any(f.condition == 1 for f in report.failures)


# --------------------------- 3) the curvature formula ---------------------------


def random_surjective_conn(rng, n=2):
    while True:
        cd = rng.randint(1, 2)
        sd = cd + rng.randint(1, 2)
        sigma = RatMatrix([[rng.randint(-2, 2) for _ in range(sd)] for _ in range(cd)])
        if sigma.rank() != cd:
            continue
        mats = [
            RatMatrix([[rng.randint(-2, 2) for _ in range(sd)] for _ in range(cd)])
            for _ in range(n)
        ]
        return RelConn(sigma, mats)


def test_curvature_matches_section_level_oracle():
    rng = random.Random(33)
    checked = 0
    for _ in range(12):
        conn = random_surjective_conn(rng)
        fiber = partial_prolongation_fiber(conn)
        if fiber.dim == 0:
            continue
        col = fiber.basis[rng.randrange(fiber.dim)]
        sd = conn.source_dim
        e = sympy.Matrix([sympy.Rational(x) for x in col[:sd]])
        psis = [
            sympy.Matrix([sympy.Rational(x) for x in col[sd + i * sd : sd + (i + 1) * sd]])
            for i in range(conn.n)
        ]
        for trial in range(2):  # two section choices: K must not see the difference
            cs = [
                sympy.Matrix([rng.randint(-2, 2) for _ in range(sd)])
                for _ in range(conn.n)
            ]
            oracle = section_curvature(
                conn.n, to_sympy(conn.sigma), [to_sympy(m) for m in conn.mats],
                e, psis, cs,
            )
            mine = curvature_of_lift(conn, col[sd:])
            cd = conn.coeff_dim
            # n = 2 here, so the only slot is (0, 1)
            assert set(oracle) == {(0, 1)}
            assert [sympy.Rational(x) for x in mine[:cd]] == list(oracle[(0, 1)])
        checked += 1
    assert checked >= 8


def test_class_is_lift_independent():
    rng = random.Random(34)
    for _ in range(10):
        conn = random_surjective_conn(rng)
        if conn.symbol.dim == 0:
            continue
        fiber = partial_prolongation_fiber(conn)
        cols = fiber.basis
        sd = conn.source_dim
        # find two lifts over the same base point by adding a kernel direction
        base = cols[0]
        e = base[:sd]
        psi1 = list(base[sd:])
        g = conn.symbol
        shift = g.basis[0]
        psi2 = list(psi1)
        for c in range(sd):
            psi2[c] += shift[c]  # shift psi_1 by a symbol vector
        im = image(delta_partial_matrix(symbol_map(conn).partial_map, conn.n, 1))
        k1 = im.reduce_mod(curvature_of_lift(conn, psi1))
        k2 = im.reduce_mod(curvature_of_lift(conn, psi2))
        assert k1 == k2


# --------------------------- 4) edge and error behavior ---------------------------


def test_fiber_empty_with_witness():
    sigma = RatMatrix([[1, 0], [0, 0]])
    a1 = RatMatrix([[0, 0], [1, 0]])
    a2 = RatMatrix.zeros(2, 2)
    conn = RelConn(sigma, [a1, a2])
    res = torsion_at(conn, [1, 0])
    assert res.kind == "fiber-empty"
    y = res.witness
    assert y is not None and any(y)
    # y annihilates every row block sigma while pairing nontrivially with -A e
    rhs = [-x for x in a1.apply([1, 0])] + [0, 0]
    assert sum(a * b for a, b in zip(y, rhs)) != 0


def test_compatibility_failure_records():
    outer = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    inner = RelConn(RatMatrix.identity(2), [RatMatrix.zeros(2, 2)] * 2)
    report = compatible(outer, inner)
    assert not report.ok
    kinds = {f.condition for f in report.failures}
    assert kinds == {1}
    assert all(any(f.discrepancy) for f in report.failures)


def test_h01_dim_worked_example():
    sigma = RatMatrix([[1, 0, 0], [0, 1, 0]])
    a1 = RatMatrix([[0, 0, 1], [0, 0, 0]])
    a2 = RatMatrix([[0, 0, 2], [0, 0, 0]])
    outer = RelConn(sigma, [a1, a2])
    # against the full prolongation the quotient closes up
    assert h01_dim(outer, prolongation_connection(outer)) == 0
    # against the empty inner connection it is all of Z: one dimension here
    trivial = RelConn(RatMatrix.zeros(3, 0), [RatMatrix.zeros(3, 0)] * 2)
    assert h01_dim(outer, trivial) == 1


def test_h01_dim_rejects_incompatible_pairs():
    outer = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    inner = RelConn(RatMatrix.identity(2), [RatMatrix.zeros(2, 2)] * 2)
    with pytest.raises(ValueError):
        h01_dim(outer, inner)


def test_relconn_shape_validation():
    with pytest.raises(ValueError):
        RelConn(RatMatrix.identity(2), [])
    with pytest.raises(ValueError):
        RelConn(RatMatrix.identity(2), [RatMatrix.zeros(3, 2)])
