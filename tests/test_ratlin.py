"""Exact linear algebra tests.

Plan:
 1) hand-checked row reductions, kernels, images, affine solves;
 2) canonical Subspace semantics (order-independent bases, membership,
    reduce_mod, constraint matrices read off the basis with no elimination);
    floats are refused, also among Fractions, and reduce_mod's cached
    supports leave equality and hashing alone;
 3) hypothesis property tests for the classical identities (rank-nullity,
    Fredholm witness);
 4) zero-row / zero-column edge shapes;
 5) the single-elimination kernel equals the kernel read off rref(m) and
    canonicalised again, bit for bit, and its row basis spans the row space;
    a spanned subspace's basis is the nonzero rows of the rref of its
    spanning vectors, and rref equals sympy's on sparse matrices; a kernel's
    tail is the kernel of the columns it keeps, and every subspace is the
    kernel of its constraint matrix.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from formalpde.ratlin import (
    AffineSolution,
    RatMatrix,
    Subspace,
    image,
    kernel,
    kernel_with_row_basis,
    rref,
    solve,
    solve_affine,
)

F = Fraction


# --------------------------- 1) hand checks ---------------------------


def test_rref_hand_case():
    # [[2,4],[1,2]]: row1 scaled to [1,2], row2 eliminated.
    r, pivots = rref(RatMatrix([[2, 4], [1, 2]]))
    assert r == RatMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_pivot_rule_prefers_first_nonzero_row():
    # column 0 is zero, so the leftmost pivot column is 1; the first nonzero
    # row there is row 0 after the zero check, giving a fully reduced form.
    r, pivots = rref(RatMatrix([[0, 0, 3], [0, 2, 1]]))
    assert pivots == (1, 2)
    assert r == RatMatrix([[0, 1, 0], [0, 0, 1]])


def test_rref_idempotent_and_rank():
    m = RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r, pivots = rref(m)
    assert m.rank() == 2 and pivots == (0, 1)
    assert rref(r)[0] == r


def test_kernel_hand_case():
    # x + y = 0, y + z = 0  =>  span{(1,-1,1)}
    k = kernel(RatMatrix([[1, 1, 0], [0, 1, 1]]))
    assert k.dim == 1
    assert k.contains_vector([1, -1, 1])
    assert not k.contains_vector([1, 0, 0])


def test_image_hand_case():
    im = image(RatMatrix([[1, 2], [2, 4], [0, 0]]))
    assert im.dim == 1
    assert im.contains_vector([1, 2, 0])


def test_solve_feasible():
    a = RatMatrix([[1, 1], [0, 1]])
    x = solve(a, [3, 1])
    assert x is not None and a.apply(x) == (F(3), F(1))


def test_solve_affine_infeasible_has_fredholm_witness():
    # Second equation reads 0 = 1: infeasibility is a value with certificate.
    a = RatMatrix([[1, 0], [0, 0]])
    sol = solve_affine(a, [1, 1])
    assert isinstance(sol, AffineSolution) and not sol.feasible
    y = sol.witness
    assert y is not None
    assert all(v == 0 for v in a.transpose().apply(y))
    assert sum(yi * bi for yi, bi in zip(y, [F(1), F(1)])) != 0


def test_solve_affine_feasible_carries_kernel():
    a = RatMatrix([[1, 1]])
    sol = solve_affine(a, [2])
    assert sol.feasible and sol.witness is None
    assert a.apply(sol.particular) == (F(2),)
    assert sol.kernel.dim == 1 and sol.kernel.contains_vector([1, -1])


# --------------------------- 2) subspace semantics ---------------------------


def test_subspace_canonical_basis_is_order_independent():
    v1, v2 = [1, 2, 3], [0, 1, 1]
    a = Subspace.from_spanning(3, [v1, v2])
    b = Subspace.from_spanning(3, [v2, v1])
    c = Subspace.from_spanning(3, [v1, [1, 3, 4], v2])  # redundant spanning set
    assert a == b == c
    assert a.basis == b.basis == c.basis
    # echelon: pivot entries are 1, other basis vectors vanish there
    for j, p in enumerate(a.pivots):
        assert a.basis[j][p] == 1
        for l in range(a.dim):
            if l != j:
                assert a.basis[l][p] == 0


def test_reduce_mod_and_coords():
    u = Subspace.from_spanning(3, [[1, 0, 1], [0, 1, 1]])
    v = [2, 3, 5]
    assert u.contains_vector(v)
    coords = u.coords_of(v)
    assert coords is not None
    rebuilt = RatMatrix(u.basis).transpose().apply(coords)
    assert rebuilt == (F(2), F(3), F(5))
    w = [0, 0, 1]
    red = u.reduce_mod(w)
    assert any(red)
    assert u.reduce_mod(red) == red  # idempotent
    assert u.coords_of(w) is None


def test_wrong_vector_lengths_raise():
    u = Subspace.from_spanning(3, [[1, 0, 1]])
    with pytest.raises(ValueError):
        Subspace.from_spanning(3, [[1, 2]])
    with pytest.raises(ValueError):
        Subspace.from_spanning(3, [[1, 2, 3], [1, 2]])
    for probe in (u.reduce_mod, u.contains_vector, u.coords_of):
        with pytest.raises(ValueError):
            probe([1, 0])
    with pytest.raises(ValueError):
        solve(RatMatrix([[1, 0]]), [1, 2])


@pytest.mark.parametrize("x", [0.5, 1.0, float("nan")])
def test_floats_are_refused(x):
    # exactness is a contract: a float is never rounded into a Fraction
    with pytest.raises(ValueError, match="not an exact rational"):
        RatMatrix([[1, x]])
    with pytest.raises(ValueError, match="not an exact rational"):
        RatMatrix([[1, 2]]).apply([1, x])
    with pytest.raises(ValueError, match="not an exact rational"):
        Subspace.from_spanning(2, [[1, 0], [x, 1]])
    # rows of Fractions skip coercion; one float among them is still caught
    exact = [F(1), F(-2, 3), F(0)]
    tainted = [F(1), x, F(0)]
    u = Subspace.from_spanning(3, [exact, [0, 0, 1]])
    for build in (
        lambda: RatMatrix([exact, tainted]),
        lambda: RatMatrix([exact]).apply(tainted),
        lambda: u.reduce_mod(tainted),
        lambda: u.contains_vector(tainted),
    ):
        with pytest.raises(ValueError, match="not an exact rational"):
            build()
    # other exact entries are coerced into the same matrix
    assert RatMatrix([[1, "-2/3", False, F(1, 2), True]]) == RatMatrix(
        [[F(1), F(-2, 3), F(0), F(1, 2), F(1)]]
    )
    # the support read by reduce_mod is a cache, invisible to the value
    assert u.contains_vector(exact) and not u.contains_vector([0, 1, 0])
    fresh = Subspace.from_spanning(3, [[0, 0, 1], exact])
    assert u == fresh and hash(u) == hash(fresh) and repr(u) == repr(fresh)
    for name in ("basis", "_support"):
        with pytest.raises(AttributeError):
            setattr(u, name, None)


def test_constraint_matrix_cuts_out_the_subspace(count_calls):
    u = Subspace.from_spanning(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    calls = count_calls(rref)
    q = u.constraint_matrix()
    assert calls == []  # read off the canonical basis
    assert kernel(q) == u


# --------------------------- 3) property tests ---------------------------

small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(RatMatrix)
        )
    )


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_nullity_and_kernel_annihilation(m):
    k = kernel(m)
    assert m.rank() + k.dim == m.cols
    for col in k.basis:
        assert all(x == 0 for x in m.apply(col))
    assert image(m).dim == m.rank()


small_fractions = st.sampled_from([F(p, q) for p in range(-3, 4) for q in (1, 2, 3)])


def matrices_with_empty_shapes(max_rows=6, max_cols=7):
    """Like matrices(), but zero rows and zero columns are allowed too."""
    return st.integers(0, max_rows).flatmap(
        lambda r: st.integers(0, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: RatMatrix(rows, cols=c))
        )
    )


sparse_entries = st.sampled_from(
    [F(0)] * 12 + [F(p, q) for p in (-3, -1, 1, 2) for q in (1, 3)]
)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda r: st.integers(1, 8).flatmap(
            lambda c: st.lists(
                st.lists(sparse_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )
)
def test_rref_matches_sympy(rows):
    # the reduced row echelon form is unique, so sympy is an oracle that
    # shares neither code nor pivot rule with ratlin
    import sympy

    r, pivots = rref(RatMatrix(rows))
    want, want_pivots = sympy.Matrix(rows).rref()
    assert pivots == tuple(want_pivots)
    assert [list(r.row(i)) for i in range(r.rows)] == [
        [F(int(x.p), int(x.q)) for x in want.row(i)] for i in range(want.rows)
    ]


def free_column_kernel(m: RatMatrix) -> Subspace:
    """The kernel read off rref(m) directly, one vector per free column,
    then canonicalised by a second reduction."""
    r, pivots = rref(m)
    vecs = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i, f]
        vecs.append(v)
    return Subspace.from_spanning(m.cols, vecs)


@settings(deadline=None, max_examples=200)
@given(matrices_with_empty_shapes())
def test_single_elimination_kernel_is_bit_identical(m):
    k, rows = kernel_with_row_basis(m)
    ref = free_column_kernel(m)
    assert k.ambient_dim == ref.ambient_dim == m.cols
    assert len(k.basis) == len(ref.basis)
    assert all(len(v) == m.cols for v in k.basis)
    assert k.basis == ref.basis
    assert k.pivots == ref.pivots
    assert kernel(m) == k and kernel(m).pivots == k.pivots
    # the row basis is independent and spans the row space of m
    assert rows.cols == m.cols and rows.rows == m.rank()
    assert rows.rank() == rows.rows
    assert image(rows.transpose()) == image(m.transpose())


@settings(deadline=None, max_examples=200)
@given(matrices_with_empty_shapes())
def test_from_spanning_basis_is_the_nonzero_rref_rows(m):
    vectors = [m.row(i) for i in range(m.rows)]
    s = Subspace.from_spanning(m.cols, vectors)
    r, pivots = rref(m)
    nonzero = tuple(row for row in (r.row(i) for i in range(r.rows)) if any(row))
    assert s.basis == nonzero and s.pivots == pivots
    assert type(s.basis) is tuple
    assert all(type(v) is tuple and all(type(x) is F for x in v) for v in s.basis)
    # each basis vector is 1 at its own pivot and 0 at every other pivot
    for j, p in enumerate(s.pivots):
        for l, v in enumerate(s.basis):
            assert v[p] == (1 if l == j else 0)
    assert image(m) == Subspace.from_spanning(m.rows, [m.col(j) for j in range(m.cols)])


@settings(deadline=None, max_examples=200)
@given(matrices_with_empty_shapes())
def test_kernel_tail_is_the_kernel_of_the_kept_columns(m):
    k = kernel(m)
    for start in range(m.cols + 1):
        tail = k.tail(start)
        ref = kernel(RatMatrix([m.row(i)[start:] for i in range(m.rows)], cols=m.cols - start))
        assert tail.ambient_dim == ref.ambient_dim
        assert tail.basis == ref.basis and tail.pivots == ref.pivots


@settings(deadline=None, max_examples=200)
@given(matrices_with_empty_shapes())
def test_every_subspace_is_the_kernel_of_its_constraints(m):
    u = Subspace.from_spanning(m.cols, [m.row(i) for i in range(m.rows)])
    q = u.constraint_matrix()
    assert q.shape == (m.cols - u.dim, m.cols)
    k = kernel(q)
    assert k == u and k.pivots == u.pivots


def test_single_elimination_kernel_on_empty_shapes():
    for r, c in ((0, 0), (0, 3), (3, 0), (2, 2)):
        k, rows = kernel_with_row_basis(RatMatrix.zeros(r, c))
        assert k == Subspace.full(c) and k.pivots == tuple(range(c))
        assert rows.shape == (0, c)


@settings(deadline=None, max_examples=60)
@given(matrices(4, 4), st.lists(small_entries, min_size=4, max_size=4))
def test_solve_affine_certificates(m, x):
    x = x[: m.cols]
    while len(x) < m.cols:
        x.append(0)
    b = m.apply(x)
    sol = solve_affine(m, b)
    assert sol.feasible
    assert m.apply(sol.particular) == tuple(b)
    # perturb b outside the image when the image is proper
    im = image(m)
    if im.dim < m.rows:
        for j in range(m.rows):
            e = [0] * m.rows
            e[j] = 1
            if not im.contains_vector(e):
                bad = [bi + ei for bi, ei in zip(b, e)]
                s2 = solve_affine(m, bad)
                assert not s2.feasible
                y = s2.witness
                assert all(v == 0 for v in m.transpose().apply(y))
                assert sum(yi * vi for yi, vi in zip(y, bad)) != 0
                break


# --------------------------- 4) degenerate shapes ---------------------------


def test_zero_shape_matrices():
    z = RatMatrix.zeros(0, 3)
    assert z.shape == (0, 3)
    assert kernel(z) == Subspace.full(3)
    assert image(z) == Subspace.zero(0)
    zc = RatMatrix.zeros(3, 0)
    assert kernel(zc) == Subspace.zero(0)
    assert image(zc) == Subspace.zero(3)
    assert (z @ zc).shape == (0, 0)
    prod = zc @ z
    assert prod.shape == (3, 3) and prod.is_zero()


def test_zero_ambient_subspace():
    s = Subspace.zero(0)
    assert s.dim == 0 and s == Subspace.full(0)


def test_matrix_immutability_and_hash():
    m = RatMatrix([[1, 2]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(RatMatrix([[1, 2]]))
    assert m != RatMatrix([[1, 3]])
