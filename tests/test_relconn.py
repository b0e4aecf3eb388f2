"""Relative connection tests.

Plan:
 1) flat connections (sigma = id): torsion decides commutativity, the
    obstruction class is the commutator applied to the point, and a class
    that vanishes without a symmetric lift is an InvariantViolation;
 2) prolongation fibers: partial vs classical, projection image and e = 0
    slice on worked examples, the induced connection and its compatibility
    (including the necessity of the minus sign in the psi extraction), and
    the zero connection a zero source prolongs to;
 3) the curvature formula against the section-level symbolic oracle, and
    lift-independence of the class;
 4) fiber-empty detection for non-surjective sigma, compatibility failure
    records, h01 on a worked example; the shape refusals of a connection,
    a nested pair and a torsion point, each by its message;
 5) torsion certificates on drawn connections, sigma not onto included:
    every kind agrees with the Fraction reference solver
    (`rref_reference.solve`), a vanishing lift solves the partial and
    symmetry rows and is zero at the prolongation fiber's psi pivots, a
    fiber-empty witness kills sigma in every block and pairs nonzero with
    -A e, an obstruction is the reference lift's class; a point with no
    lift and no witness is an InvariantViolation.
"""

import random
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from formalpde import relconn
from formalpde.errors import InvariantViolation
from formalpde.ratlin import RatMatrix, Subspace, image, kernel
from formalpde.relconn import (
    RelConn,
    _partial_rows,
    _symmetry_rows,
    classical_prolongation_fiber,
    compatible,
    curvature_of_lift,
    prolongation_connection,
    symbol_map,
    torsion_at,
)

from matrices import contains, coords_of, identity, rref_rank, slot_map, zeros
from oracle_brute import section_curvature
from rref_reference import solve

F = Fraction


def flat_conn(a1, a2):
    """sigma = id, directions act by the given matrices."""
    m = len(a1)
    return RelConn(identity(m), [RatMatrix(a1), RatMatrix(a2)])


def to_sympy(m: RatMatrix) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x) for x in m.row(i)] for i in range(m.rows)])


def partial_prolongation_fiber(conn: RelConn) -> Subspace:
    """{(e, psi) : sigma(psi_i) = -A_i e for all i}."""
    return kernel(_partial_rows(conn))


def h01_dim(outer: RelConn, inner: RelConn) -> int:
    """dim of ker(delta_∂D on Hom(E, g)) / (symbol of the inner connection).

    Requires the pair to pass ``compatible``; raises ValueError otherwise.
    """
    if not compatible(outer, inner).ok:
        raise ValueError("h01_dim needs a compatible pair")
    g, n = outer.symbol, outer.n
    z = kernel(slot_map(symbol_map(outer).partial_map, n, 1))  # delta_∂D on Hom(E, g)
    vecs = []
    for v in inner.symbol.basis:
        eta = [F(0)] * (n * g.dim)
        for i in range(n):
            coords = coords_of(g, inner.mats[i].apply(v))
            assert coords is not None, "inner symbol does not map into the outer symbol"
            eta[i * g.dim : (i + 1) * g.dim] = coords
        vecs.append(eta)
    b = Subspace.from_spanning(n * g.dim, vecs)
    assert contains(z, b), "inner-symbol image is not closed"
    return z.dim - b.dim


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
    m1, m2 = conn.mats
    for e in ([1, 0], [0, 1], [2, 5]):
        res = torsion_at(conn, e)
        assert res.kind == "obstruction"
        # ker sigma = 0, so the class is the raw curvature [A_1, A_2] e
        comm_e = tuple(x - y for x, y in zip(m1.apply(m2.apply(e)), m2.apply(m1.apply(e))))
        assert res.representative == comm_e
    # points in the kernel of the commutator (here only 0) do vanish
    assert torsion_at(conn, [0, 0]).kind == "vanishes"


def test_a_vanished_torsion_class_without_a_symmetric_lift_is_an_internal_failure(monkeypatch):
    # with no symmetric lift the curvature class is nonzero modulo Im δ; an
    # image that fills the whole slot space leaves no class, and torsion_at
    # refuses to report an obstruction without one
    conn = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert torsion_at(conn, [1, 0]).kind == "obstruction"
    slots = comb(conn.n, 2) * conn.coeff_dim
    monkeypatch.setattr(relconn, "_delta_image", lambda c: Subspace.full(slots))
    with pytest.raises(InvariantViolation, match="torsion class vanished although no symmetric"):
        torsion_at(conn, [1, 0])


def test_flat_symbol_is_zero_and_sigma_surjective():
    conn = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert conn.symbol.dim == 0
    assert rref_rank(conn.sigma) == conn.coeff_dim  # sigma is onto
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


def test_a_zero_source_prolongs_to_the_zero_connection():
    # no source coordinates: the prolongation fiber is the zero space, and
    # the induced connection keeps both directions over no coordinates
    zero = RatMatrix([[]], cols=0)
    conn = prolongation_connection(RelConn(zero, [zero] * 2))
    assert (conn.n, conn.source_dim, conn.coeff_dim) == (2, 0, 0)


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
        if rref_rank(sigma) != cd:
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
        im = image(slot_map(symbol_map(conn).partial_map, conn.n, 1))
        k1 = im.reduce_mod(curvature_of_lift(conn, psi1))
        k2 = im.reduce_mod(curvature_of_lift(conn, psi2))
        assert k1 == k2


# --------------------------- 4) edge and error behavior ---------------------------


def test_fiber_empty_with_witness():
    sigma = RatMatrix([[1, 0], [0, 0]])
    a1 = RatMatrix([[0, 0], [1, 0]])
    a2 = zeros(2, 2)
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
    inner = RelConn(identity(2), [zeros(2, 2)] * 2)
    report = compatible(outer, inner)
    assert not report.ok

    def records(report):
        return [(f.condition, f.directions, f.basis_index, f.discrepancy) for f in report.failures]

    # condition 1 breaks as A_i itself: its first nonzero column
    assert records(report) == [(1, (0,), 1, (1, 0)), (1, (1,), 0, (0, 1))]
    # A_1 A_2 - A_2 A_1 = diag(1, -1): condition 2 breaks at the first column
    assert records(compatible(outer, outer)) == [(2, (0, 1), 0, (1, 0))]


def test_h01_dim_worked_example():
    sigma = RatMatrix([[1, 0, 0], [0, 1, 0]])
    a1 = RatMatrix([[0, 0, 1], [0, 0, 0]])
    a2 = RatMatrix([[0, 0, 2], [0, 0, 0]])
    outer = RelConn(sigma, [a1, a2])
    # against the full prolongation the quotient closes up
    assert h01_dim(outer, prolongation_connection(outer)) == 0
    # against the empty inner connection it is all of Z: one dimension here
    trivial = RelConn(zeros(3, 0), [zeros(3, 0)] * 2)
    assert h01_dim(outer, trivial) == 1


def test_h01_dim_rejects_incompatible_pairs():
    outer = flat_conn([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    inner = RelConn(identity(2), [zeros(2, 2)] * 2)
    with pytest.raises(ValueError):
        h01_dim(outer, inner)


def test_relconn_shape_validation():
    with pytest.raises(ValueError, match="need at least one direction"):
        RelConn(identity(2), [])
    with pytest.raises(ValueError, match="all A_i must share sigma's shape"):
        RelConn(identity(2), [zeros(3, 2)])
    # and the shapes a nested pair or a torsion point must match
    outer = RelConn(identity(2), [zeros(2, 2)])
    with pytest.raises(ValueError, match="direction counts differ"):
        compatible(outer, RelConn(identity(2), [zeros(2, 2), zeros(2, 2)]))
    with pytest.raises(ValueError, match="inner coefficients must be the outer source"):
        compatible(outer, RelConn(zeros(3, 2), [zeros(3, 2)]))
    with pytest.raises(ValueError, match="point has wrong dimension"):
        torsion_at(outer, [1])


# --------------------------- 5) torsion certificates ---------------------------


def test_the_vanishing_lift_is_zero_at_the_fibers_psi_pivots():
    # sigma forgets the third source coordinate, so psi_i's third entry is
    # free up to the symmetry psi_2[2] = 2 psi_1[2]: the fiber's one psi pivot
    # is psi_1[2], and the canonical lift is zero there
    sigma = RatMatrix([[1, 0, 0], [0, 1, 0]])
    conn = RelConn(sigma, [RatMatrix([[0, 0, 1], [0, 0, 0]]), RatMatrix([[0, 0, 2], [0, 0, 0]])])
    fiber = classical_prolongation_fiber(conn).subspace
    assert [p - 3 for p in fiber.pivots if p >= 3] == [2]
    res = torsion_at(conn, [1, 1, 1])
    assert res.kind == "vanishes"
    assert res.lift == (-1, 0, 0, -2, 0, 0)


def test_a_fiber_empty_point_without_a_witness_is_an_internal_failure(monkeypatch):
    # by the Fredholm alternative a point with no partial lift has a witness
    # in some block's copy of ker(sigmaᵀ); a cokernel that comes back zero
    # leaves none, and torsion_at refuses to report an empty fiber without one
    conn = RelConn(RatMatrix([[1, 0], [0, 0]]), [RatMatrix([[0, 0], [1, 0]]), zeros(2, 2)])
    assert torsion_at(conn, [1, 0]).kind == "fiber-empty"
    cokernel_of, real = conn.sigma.transpose(), relconn.kernel
    monkeypatch.setattr(
        relconn, "kernel",
        lambda m: Subspace.from_spanning(m.cols, []) if m == cokernel_of else real(m),
    )
    with pytest.raises(InvariantViolation, match="no lift and no Fredholm witness"):
        torsion_at(conn, [1, 0])


@st.composite
def connections_at_points(draw):
    """A connection with up to three directions and a point; with more
    coefficient than source coordinates, or rank-deficient draws, sigma is
    not onto."""
    n, w, q = (draw(st.integers(1, 3)) for _ in range(3))
    rows = st.lists(st.lists(st.integers(-2, 2), min_size=q, max_size=q), min_size=w, max_size=w)
    sigma, *mats = (RatMatrix(draw(rows), cols=q) for _ in range(1 + n))
    return RelConn(sigma, mats), draw(st.lists(st.integers(-2, 2), min_size=q, max_size=q))


def psi_system(rows: RatMatrix, e) -> tuple[RatMatrix, list]:
    """Equations over (e, psi) as A psi = b at the point e, in dense rows."""
    sd = len(e)
    dense = [rows.row(i) for i in range(rows.rows)]
    b = [-sum(x * y for x, y in zip(r[:sd], e)) for r in dense]
    return RatMatrix([r[sd:] for r in dense], cols=rows.cols - sd), b


@settings(deadline=None, max_examples=60)
@given(connections_at_points())
def test_torsion_at_certificates(case):
    conn, e = case
    n, sd, cd = conn.n, conn.source_dim, conn.coeff_dim
    partial, symmetry = _partial_rows(conn), _symmetry_rows(conn)
    full_lift = solve(*psi_system(RatMatrix.vstack([partial, symmetry]), e))
    partial_lift = solve(*psi_system(partial, e))
    res = torsion_at(conn, e)
    if full_lift is not None:
        assert res.kind == "vanishes"
        point = [*e, *res.lift]
        assert not any(partial.apply(point)) and not any(symmetry.apply(point))
        pivots = classical_prolongation_fiber(conn).subspace.pivots
        assert all(res.lift[p - sd] == 0 for p in pivots if p >= sd)
    elif partial_lift is None:
        assert res.kind == "fiber-empty"
        blocks = [res.witness[i * cd : (i + 1) * cd] for i in range(n)]
        assert all(not any(conn.sigma.transpose().apply(y)) for y in blocks)
        minus_ae = [[-x for x in a.apply(e)] for a in conn.mats]
        assert sum(a * b for y, rhs in zip(blocks, minus_ae) for a, b in zip(y, rhs)) != 0
    else:
        assert res.kind == "obstruction"
        delta_image = image(slot_map(symbol_map(conn).partial_map, n, 1))
        assert res.representative == delta_image.reduce_mod(curvature_of_lift(conn, partial_lift))
