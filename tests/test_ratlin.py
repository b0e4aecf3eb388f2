"""Exact linear algebra tests.

Plan:
 1) hand-checked row reductions, kernels (one whose integer quotients
    reduce) and images;
    `kernel` is the one read-out of an echelon: every `_reduced` call of
    `rref` and `from_spanning` comes from a `kernel` call, two per rref;
 2) canonical Subspace semantics (order-independent bases, membership,
    containment, by a test-side helper over `_coords`, of a smaller, an
    equal-dimension and a larger subspace,
    reduce_mod, constraint matrices read off the basis with no elimination);
    floats are refused, also among Fractions and among pairs, and membership
    leaves equality and hashing alone;
 3) hypothesis property tests for the classical identities (rank-nullity);
    coordinates read over a vector's nonzeros agree with
    reduce_mod, on spans and on kernels, and rebuild the vector, and so do
    a nonzero integer multiple's, given as Fraction pairs or as int pairs; an
    integer-scaled vector's coordinates, tested in ints, are the Fraction
    coordinates times the scale, and one unit off the span is refused;
    int pair values build the same matrix, hash, rref, rank and kernel as
    Fractions, and floats and bools among them are refused;
 4) zero-row / zero-column edge shapes, and the shapes a builder cannot
    know (pair rows or no rows without a column count, a vstack of nothing
    or of two widths, a vector of the wrong length) refused;
 5) the kernel of integer rows {column: int} equals the kernel of their
    pairs as a RatMatrix, by hand, on drawn rows with distinct top columns
    (either sign there) and on a matrix's rows scaled to integers, and is
    refused without a column count; a kernel's kept rows are its constraint
    matrix up to sign and content, `annihilator` returns the same tuple each
    time, and the rows, handed back as copies, give the same kernel, and
    with a new row a wider one, and are left as they were;
    the single-elimination kernel's rows equal, bit for bit, the kernel
    read off the Fraction reference's rref of m (`rref_reference.py`),
    canonicalised by it again and scaled to primitive integer rows, and its
    annihilator is the row basis of the reference's reversed-column rref of
    m, negated, up to a positive scale and row order, in primitive integer
    rows;
    a spanned subspace's basis is the nonzero rows of the rref of its
    spanning vectors, and rref equals sympy's on sparse matrices; a kernel's
    tail is the kernel of the columns it keeps, and every subspace is the
    kernel of its constraint matrix; every builder (kernel, from_spanning,
    full, zero, head, tail) emits the canonical rows, each basis vector's
    primitive integer row, ascending and led by its pivot's (p, d) with
    d > 0, rendering the reference's dense rref rows; a cut row is divided
    by its content again;
 6) the integer row insertion of rref equals a Fraction Gauss–Jordan
    reference (`rref_reference.py`), matrix and pivots, on wide
    denominators, dense and sparse rows, and duplicated, scaled and combined
    rows that cancel mid-insertion; `rank` of the rows' nonzero pairs, or of
    all their pairs with explicit zeros, equals that reference's pivot
    count, and so do fixed cases: entries and denominators that are
    multiples of 2^31 − 1, a row cancelling at fill-in, no rows, and a zero
    pair at a row's leading column; a matrix built from its nonzero pairs
    equals, and hashes as, the one built from its dense rows.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from formalpde import ratlin
from formalpde.ratlin import (
    RatMatrix,
    Subspace,
    image,
    kernel,
    rank,
    rref,
)

from matrices import contains, coords_of, identity, rref_rank, zeros
from rref_reference import reference_rref

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
    assert rref_rank(m) == 2 and pivots == (0, 1)
    assert rref(r)[0] == r


def test_kernel_hand_case():
    # x + y = 0, y + z = 0  =>  span{(1,-1,1)}
    k = kernel(RatMatrix([[1, 1, 0], [0, 1, 1]]))
    assert k.dim == 1
    assert k.contains_vector([1, -1, 1])
    assert not k.contains_vector([1, 0, 0])


def test_kernel_hand_case_with_reduced_quotients():
    # 3/2 x + 2y + 3z = 0: reversed and scaled to ints the row is (6, 4, 3),
    # lead 6 at z, so b_x is 1 at x and -3/6 = -1/2 at z, b_y 1 at y and
    # -4/6 = -2/3 at z, each stored as its primitive integer row
    k = kernel(RatMatrix([[Fraction(3, 2), 2, 3]]))
    assert k.rows == (((0, 2), (2, -1)), ((1, 3), (2, -2)))
    assert k.pivots == (0, 1)
    assert k.basis == ((1, 0, F(-1, 2)), (0, 1, F(-2, 3)))


def test_kernel_hand_case_with_kept_rows():
    # 2x0 - x1 = 0 and x0 + x2 - 3x3 = 0, tops 1 and 3, both entries there
    # negative, and x2 + x3 = 0, as integer rows keyed by column: x3 = -x2,
    # x0 = -4x2, x1 = -8x2, so the kernel is b_0 = (1, 2, -1/4, 1/4), stored
    # as 4·b_0
    rows = [((0, 2), (1, -1)), ((0, 1), (2, 1), (3, -3)), ((2, 1), (3, 1))]
    k = kernel([dict(row) for row in rows], cols=4)
    assert k.rows == (((0, 4), (1, 8), (2, -1), (3, 1)),)
    assert k == kernel(RatMatrix(pairs=rows, cols=4))


def test_image_hand_case():
    im = image(RatMatrix([[1, 2], [2, 4], [0, 0]]))
    assert im.dim == 1
    assert im.contains_vector([1, 2, 0])


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
    coords = coords_of(u, v)
    assert coords is not None
    rebuilt = RatMatrix(u.basis).transpose().apply(coords)
    assert rebuilt == (F(2), F(3), F(5))
    w = [0, 0, 1]
    red = u.reduce_mod(w)
    assert any(red)
    assert u.reduce_mod(red) == red  # idempotent
    assert coords_of(u, w) is None


def test_wrong_vector_lengths_raise():
    u = Subspace.from_spanning(3, [[1, 0, 1]])
    with pytest.raises(ValueError):
        Subspace.from_spanning(3, [[1, 2]])
    with pytest.raises(ValueError):
        Subspace.from_spanning(3, [[1, 2, 3], [1, 2]])
    for probe in (u.reduce_mod, u.contains_vector):
        with pytest.raises(ValueError):
            probe([1, 0])


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
    # rows given as pairs are not coerced, so a float among them is refused
    with pytest.raises(ValueError, match="pair values must be Fractions"):
        RatMatrix(pairs=[[(0, F(1)), (2, x)]], cols=3)
    # other exact entries are coerced into the same matrix
    assert RatMatrix([[1, "-2/3", False, F(1, 2), True]]) == RatMatrix(
        [[F(1), F(-2, 3), F(0), F(1, 2), F(1)]]
    )
    # membership reads the stored integer rows and leaves the value alone
    assert u.contains_vector(exact) and not u.contains_vector([0, 1, 0])
    assert u._coords([(0, 3), (1, -2)]) == [(0, 3)]
    fresh = Subspace.from_spanning(3, [[0, 0, 1], exact])
    assert u == fresh and hash(u) == hash(fresh) and repr(u) == repr(fresh)
    for name in ("basis", "rows"):
        with pytest.raises(AttributeError):
            setattr(u, name, None)


def test_constraint_matrix_cuts_out_the_subspace(count_calls):
    u = Subspace.from_spanning(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    calls = count_calls(ratlin._reduced)
    q = u.constraint_matrix()
    assert calls == []  # read off the canonical basis
    assert kernel(q) == u


def test_kernel_is_the_one_read_out_of_an_echelon(count_calls):
    # rref is the kernel of the kernel, so every `_reduced` call comes from a
    # `kernel` call: two per rref, and from_spanning runs one rref
    cases = [
        RatMatrix([[2, 4], [1, 2]]),
        RatMatrix([[0, 0, 3], [0, 2, 1]]),
        RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        RatMatrix([[6, 10, 0], [0, 15, 21], [12, 35, 21]]),
    ] + [zeros(r, c) for r, c in ((0, 0), (0, 3), (3, 0), (2, 2))]
    kernels = count_calls(ratlin.kernel)
    reduced = count_calls(ratlin._reduced)
    for m in cases:
        rref(m)
        Subspace.from_spanning(m.cols, map(m.row, range(m.rows)))
    assert len(kernels) == len(reduced) == 4 * len(cases)


def test_contains_compares_subspaces_not_dimensions():
    plane = Subspace.from_spanning(3, [[1, 0, 0], [0, 1, 0]])
    assert not contains(plane, Subspace.from_spanning(3, [[1, 0, 0], [0, 0, 1]]))
    assert contains(plane, Subspace.from_spanning(3, [[1, 1, 0], [1, -1, 0]]))
    assert not contains(plane, Subspace.full(3))
    assert contains(plane, Subspace.from_spanning(3, [[1, 2, 0]]))


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
    assert rref_rank(m) + k.dim == m.cols
    for col in k.basis:
        assert all(x == 0 for x in m.apply(col))
    assert image(m).dim == rref_rank(m)


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


@settings(deadline=None, max_examples=150)
@given(matrices_with_empty_shapes(4, 6), st.booleans(), st.data())
def test_coordinates_agree_with_the_coset_representative(m, as_kernel, data):
    # membership reads only the coordinates a vector and the basis vectors it
    # selects touch; reduce_mod reads every coordinate, so the two must agree.
    # A kernel hands its supports over in its own order, a span reads them
    # off the rref, so both kinds of subspace are drawn
    u = kernel(m) if as_kernel else Subspace.from_spanning(m.cols, map(m.row, range(m.rows)))
    d = u.ambient_dim
    weights = data.draw(st.lists(sparse_entries, min_size=u.dim, max_size=u.dim))
    inside = [sum((w * b[i] for w, b in zip(weights, u.basis)), F(0)) for i in range(d)]
    noise = data.draw(st.lists(sparse_entries, min_size=d, max_size=d))
    factor = data.draw(st.integers(-6, 6).filter(bool))
    for v in (inside, [x + y for x, y in zip(inside, noise)]):
        coords = coords_of(u, v)
        assert (coords is None) == any(u.reduce_mod(v)) == (not u.contains_vector(v))
        if coords is not None:
            assert len(coords) == u.dim
            rebuilt = [sum((c * b[i] for c, b in zip(coords, u.basis)), F(0)) for i in range(d)]
            assert rebuilt == v
        # a nonzero integer multiple, as Fraction pairs and as int pairs: one
        # formula tests both, each exactly when its coset representative vanishes,
        # and reads its pivot entries in the pairs' own type
        w = [int(x * factor * lcm(1, *(y.denominator for y in v))) for x in v]
        outside = any(u.reduce_mod(w))
        for kind in (F, int):
            got = u._coords([(i, kind(x)) for i, x in enumerate(w) if x])
            assert (got is None) == outside
            if got is not None:
                assert got == [(j, w[p]) for j, p in enumerate(u.pivots) if w[p]]
                assert all(type(x) is kind for _, x in got)
    assert coords_of(u, inside) == tuple(weights)


@settings(deadline=None, max_examples=100)
@given(matrices_with_empty_shapes(4, 6), st.booleans(), st.integers(1, 6), st.data())
def test_integer_coordinates_are_the_fraction_coordinates_scaled(m, as_kernel, factor, data):
    # integer pairs are tested in ints against the basis's integer rows; that
    # path must refuse exactly what the Fraction path refuses, and otherwise
    # read the same coordinates times the scale, as ints
    u = kernel(m) if as_kernel else Subspace.from_spanning(m.cols, map(m.row, range(m.rows)))
    d = u.ambient_dim
    weights = data.draw(st.lists(sparse_entries, min_size=u.dim, max_size=u.dim))
    inside = [sum((w * b[i] for w, b in zip(weights, u.basis)), F(0)) for i in range(d)]
    noise = data.draw(st.lists(sparse_entries, min_size=d, max_size=d))
    for v in (inside, [x + y for x, y in zip(inside, noise)]):
        pairs = [(i, x) for i, x in enumerate(v) if x]
        scale = factor * lcm(1, *(x.denominator for _, x in pairs))
        ints = [(i, int(x * scale)) for i, x in pairs]
        want, got = u._coords(pairs), u._coords(ints)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == [(j, x * scale) for j, x in want]
            assert all(type(x) is int for _, x in got)
            # one unit off the span, at a coordinate no basis vector leads
            for i in sorted(set(range(d)).difference(u.pivots))[:2]:
                moved = dict(ints)
                moved[i] = moved.get(i, 0) + 1
                assert u._coords([(j, x) for j, x in sorted(moved.items()) if x]) is None


@settings(deadline=None, max_examples=60)
@given(matrices_with_empty_shapes())
def test_int_pair_rows_are_the_fraction_rows(m):
    # a matrix of integral Fractions, rebuilt with int pair values: the same
    # matrix and hash, and the same echelon form, rank and kernel
    scaled = [[(j, x * lcm(1, *(y.denominator for _, y in row))) for j, x in row] for row in m.pairs]
    frac = RatMatrix(pairs=scaled, cols=m.cols)
    ints = RatMatrix(pairs=[[(j, int(x)) for j, x in row] for row in scaled], cols=m.cols)
    assert ints == frac and hash(ints) == hash(frac)
    assert rref(ints) == rref(frac)
    assert rank(ints.pairs) == rank(frac.pairs) == rref_rank(m)
    assert kernel(ints) == kernel(frac) == kernel(m)


@pytest.mark.parametrize("x", [1.0, True, False])
def test_pair_values_are_fractions_or_ints(x):
    with pytest.raises(ValueError, match="pair values must be Fractions or ints"):
        RatMatrix(pairs=[[(0, F(1)), (2, x)]], cols=3)
    with pytest.raises(ValueError, match="pair values must be Fractions or ints"):
        RatMatrix(pairs=[[(0, 1), (2, x)]], cols=3)


def free_column_kernel(m: RatMatrix) -> tuple:
    """The kernel's canonical rows by the Fraction reference alone: one
    vector per free column of reference_rref(m), canonicalised by a second
    reference elimination, each row scaled to its primitive integer row."""
    r, pivots = reference_rref(m)
    vecs = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r.row(i)[f]
        vecs.append(v)
    rows = []
    for b in reference_span(vecs, m.cols):
        d = lcm(*(F(x).denominator for x in b))
        rows.append(tuple((i, int(x * d)) for i, x in enumerate(b) if x))
    return tuple(rows)


@settings(deadline=None, max_examples=200)
@given(matrices_with_empty_shapes())
def test_single_elimination_kernel_is_bit_identical(m):
    k = kernel(m)
    assert k.ambient_dim == m.cols
    assert k.rows == free_column_kernel(m)
    assert all(len(v) == m.cols for v in k.basis)
    # the kernel's annihilator is m's echelon rows, each led at its top
    # column, which the reversed-column rref gives read back in order; the
    # constraint matrix gives them negated, up to a positive scale and row
    # order.  Each row is primitive in ints and ends at its top column, where
    # its echelon row has its 1
    r, pivots = reference_rref(RatMatrix([m.row(i)[::-1] for i in range(m.rows)], cols=m.cols))
    echelon = {tuple(r.row(i)[::-1]) for i in range(len(pivots))}
    q = k.constraint_matrix()
    assert q.shape == (rref_rank(m), m.cols)
    negated = set()
    for i, row in enumerate(q.pairs):
        assert all(type(x) is int for _, x in row) and gcd(*(x for _, x in row)) == 1
        scale = -row[-1][1]
        assert scale > 0
        negated.add(tuple(F(-x, scale) for x in q.row(i)))
    assert negated == echelon


@st.composite
def kept_rows(draw, cols):
    """Integer pair rows with distinct top columns, the entry at each top of
    either sign and the entries below it free, other rows' tops included."""
    tops = draw(st.lists(st.integers(0, cols - 1), unique=True, max_size=cols)) if cols else []
    rows = []
    for j in sorted(tops):
        below = draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
        top = draw(st.integers(-4, 4).filter(bool))
        rows.append(tuple((i, x) for i, x in enumerate(below) if x) + ((j, top),))
    return rows


@settings(deadline=None, max_examples=60)
@given(matrices_with_empty_shapes(), st.data())
def test_kept_rows_seed_the_kernel_of_kept_and_new_rows(m, data):
    # a kernel's own annihilator, as a walk level keeps it: its echelon rows,
    # primitive and positive at distinct tops.  Handed back as copies, they
    # are stored as pivot rows unreduced, and give the same kernel, bit for
    # bit; with a new row whose pivot is cleared from them, in a wider space,
    # the kernel of both; and the rows are left as they were
    kept = data.draw(kept_rows(m.cols))
    both = kernel(RatMatrix.vstack([RatMatrix(pairs=kept, cols=m.cols), m]))
    rows = both.annihilator()
    before = [dict(row) for row in rows]
    assert kernel(map(dict, rows), cols=m.cols).rows == both.rows
    new = [{p: 1} for p in both.pivots[:1]]
    wider = kernel([*map(dict, rows), *new], cols=m.cols + 2)
    q = both.constraint_matrix().pairs
    assert wider == kernel(RatMatrix(pairs=[*q, *(row.items() for row in new)], cols=m.cols + 2))
    assert list(rows) == before


def negated_primitive(row: dict) -> tuple:
    """An integer row {column: int} as pairs, primitive and negated."""
    g = gcd(*row.values())
    return tuple((j, -x // g) for j, x in sorted(row.items()))


@settings(deadline=None, max_examples=100)
@given(matrices_with_empty_shapes(), st.data())
def test_kept_rows_are_the_annihilator_read_off_the_basis(m, data):
    # a kernel's kept rows, made primitive and negated, are bit for bit the
    # constraint matrix read off its canonical basis, and `annihilator` hands
    # out the same rows each time, not a rebuilt copy
    kept = data.draw(kept_rows(m.cols))
    for k in (kernel(m), kernel(RatMatrix.vstack([RatMatrix(pairs=kept, cols=m.cols), m]))):
        rows = k.annihilator()
        want = Subspace(k.ambient_dim, k.rows).constraint_matrix().pairs
        assert tuple(map(negated_primitive, rows)) == want
        assert k.annihilator() is rows
    # integer rows keyed by column give the kernel of their pairs: drawn rows
    # with distinct tops of either sign, and m's rows scaled to integers
    assert kernel([dict(row) for row in kept], cols=m.cols) == kernel(
        RatMatrix(pairs=kept, cols=m.cols)
    )
    scaled = [{j: int(x * lcm(*(F(y).denominator for _, y in row))) for j, x in row}
              for row in m.pairs]
    assert kernel(scaled, cols=m.cols) == kernel(m)
    with pytest.raises(ValueError, match="explicit column count"):
        kernel(scaled)


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
        # the projection onto the coordinates before the cut, read off as well
        head = k.head(start)
        ref = Subspace.from_spanning(start, [v[:start] for v in k.basis])
        assert head.ambient_dim == ref.ambient_dim
        assert head.basis == ref.basis and head.pivots == ref.pivots


@settings(deadline=None, max_examples=200)
@given(matrices_with_empty_shapes())
def test_every_subspace_is_the_kernel_of_its_constraints(m):
    u = Subspace.from_spanning(m.cols, [m.row(i) for i in range(m.rows)])
    q = u.constraint_matrix()
    assert q.shape == (m.cols - u.dim, m.cols)
    k = kernel(q)
    assert k == u and k.pivots == u.pivots


def reference_span(vectors, width: int) -> tuple:
    """The nonzero rows of the Fraction reference's rref of the vectors."""
    r, pivots = reference_rref(RatMatrix(list(vectors), cols=width))
    return tuple(r.row(i) for i in range(len(pivots)))


def assert_pair_form(u: Subspace, want: tuple):
    # rows are the only storage, each basis vector's primitive integer row:
    # it ascends, leads with its pivot's (p, d) for a d > 0, holds nonzero
    # ints only and has content 1; pivots increase, every other row is
    # absent at a pivot, and the rendered basis is the reference rref's rows
    assert list(u.pivots) == sorted(set(u.pivots))
    for j, (p, row) in enumerate(zip(u.pivots, u.rows)):
        assert row[0][0] == p and row[0][1] > 0
        assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), row
        assert all(type(x) is int and x for _, x in row)
        assert gcd(*(x for _, x in row)) == 1, row
        assert all(p not in dict(other) for l, other in enumerate(u.rows) if l != j)
    assert u.basis == want


def test_a_cut_integer_row_is_divided_by_its_content():
    # b = (1, 0, 1/2) is stored as (2, 0, 1); its cut at 2 is (1, 0), not (2, 0)
    u = Subspace.from_spanning(3, [[1, 0, F(1, 2)]])
    assert u.rows == (((0, 2), (2, 1)),)
    assert_pair_form(u, ((F(1), F(0), F(1, 2)),))
    assert u.head(2).rows == (((0, 1),),)
    assert_pair_form(u.head(2), ((F(1), F(0)),))


@settings(deadline=None, max_examples=100)
@given(matrices_with_empty_shapes(4, 6))
def test_every_builder_emits_the_canonical_pair_form(m):
    d = m.cols
    vectors = [m.row(i) for i in range(m.rows)]
    r, pivots = reference_rref(m)
    free = []  # the reference kernel: 1 at each free column f, -r.row(i)[f] at pivot i
    for f in (f for f in range(d) if f not in pivots):
        v = [F(f == c) for c in range(d)]
        for i, p in enumerate(pivots):
            v[p] = -r.row(i)[f]
        free.append(v)
    built = [
        (kernel(m), reference_span(free, d)),
        (Subspace.from_spanning(d, vectors), reference_span(vectors, d)),
    ]
    for u, want in list(built):
        for c in range(d + 1):
            built.append((u.head(c), reference_span((v[:c] for v in want), c)))
            tail = (v[c:] for v in want if not any(v[:c]))
            built.append((u.tail(c), reference_span(tail, d - c)))
    identity = [[F(i == j) for j in range(d)] for i in range(d)]
    built += [(Subspace.full(d), reference_span(identity, d)), (Subspace.zero(d), ())]
    for u, want in built:
        assert_pair_form(u, want)


def test_single_elimination_kernel_on_empty_shapes():
    for r, c in ((0, 0), (0, 3), (3, 0), (2, 2)):
        k = kernel(zeros(r, c))
        assert k == Subspace.full(c) and k.pivots == tuple(range(c))
        assert k.constraint_matrix().shape == (0, c)


# --------------------------- 4) degenerate shapes ---------------------------


def test_zero_shape_matrices():
    z = zeros(0, 3)
    assert z.shape == (0, 3)
    assert kernel(z) == Subspace.full(3)
    assert image(z) == Subspace.zero(0)
    zc = zeros(3, 0)
    assert kernel(zc) == Subspace.zero(0)
    assert image(zc) == Subspace.zero(3)


def test_matrix_builders_refuse_shapes_they_cannot_know():
    with pytest.raises(ValueError, match="pair rows need an explicit column count"):
        RatMatrix(pairs=[[(0, 1)]])
    with pytest.raises(ValueError, match="empty matrix needs an explicit column count"):
        RatMatrix([])
    with pytest.raises(ValueError, match="vstack of nothing"):
        RatMatrix.vstack([])
    with pytest.raises(ValueError, match="vstack: column counts differ"):
        RatMatrix.vstack([zeros(1, 2), zeros(1, 3)])
    with pytest.raises(ValueError, match="shape mismatch in apply"):
        RatMatrix([[1, 2]]).apply([1, 2, 3])


def test_zero_ambient_subspace():
    s = Subspace.zero(0)
    assert s.dim == 0 and s == Subspace.full(0)


def test_matrix_immutability_and_hash():
    m = RatMatrix([[1, 2]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(RatMatrix([[1, 2]]))
    assert m != RatMatrix([[1, 3]])
    # the same matrix built dense and from its nonzero pairs is the same data
    dense = RatMatrix([[0, F(2, 3), 0], [0, 0, 0], [-1, 0, 4]])
    sparse = RatMatrix(pairs=[[(1, F(2, 3))], [], [(0, F(-1)), (2, F(4))]], cols=3)
    assert sparse == dense and hash(sparse) == hash(dense)
    assert sparse.row(2) == (F(-1), F(0), F(4)) and sparse.row(0)[1] == F(2, 3)


# --------------------------- 6) the Fraction reference ---------------------------


def test_rref_of_the_hilbert_matrix_is_the_identity():
    h = RatMatrix([[F(1, i + j + 1) for j in range(10)] for i in range(10)])
    assert rref(h) == reference_rref(h) == (identity(10), tuple(range(10)))


def test_rref_row_cancelling_exactly_mid_insertion():
    # row 2 is 2·row 0 + row 1: reduced at column 0 by row 0 (content 2) and
    # at column 1 by row 1, it leaves no entry
    m = RatMatrix([[6, 10, 0], [0, 15, 21], [12, 35, 21]])
    r, pivots = rref(m)
    assert pivots == (0, 1) and (r, pivots) == reference_rref(m)
    assert r == RatMatrix([[1, 0, F(-7, 3)], [0, 1, F(7, 5)], [0, 0, 0]])


wide_fractions = st.builds(F, st.integers(-(10**4), 10**4), st.integers(1, 10**4))
# zeros that are not one shared object: a zero numerator decides, not identity
fresh_zeros = st.builds(F, st.just(0), st.integers(1, 9))


@st.composite
def stress_matrices(draw, max_rows=12, max_cols=14):
    """Dense and sparse rows with denominators up to 10^4, then copies of
    them scaled by wide fractions and sums of two, all shuffled."""
    cols = draw(st.integers(0, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows // 2))):
        if draw(st.booleans()):
            entries = st.one_of(wide_fractions, fresh_zeros)
            row = draw(st.lists(entries, min_size=cols, max_size=cols))
        else:
            row = [F(0)] * cols
            if cols:
                hits = st.dictionaries(st.integers(0, cols - 1), wide_fractions, max_size=3)
                for j, x in draw(hits).items():
                    row[j] = x
        rows.append(row)
    for _ in range(draw(st.integers(0, max_rows - len(rows))) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(wide_fractions), draw(st.one_of(st.just(F(0)), wide_fractions))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return RatMatrix(draw(st.permutations(rows)), cols=cols)


@settings(deadline=None, max_examples=200)
@given(stress_matrices())
def test_rref_matches_the_fraction_reference(m):
    assert rref(m) == reference_rref(m)


def supports(m: RatMatrix) -> list:
    return [[(c, x) for c, x in enumerate(m.row(r)) if x] for r in range(m.rows)]


@settings(deadline=None, max_examples=200)
@given(stress_matrices())
def test_rank_matches_the_fraction_reference(m):
    want = len(reference_rref(m)[1])
    assert rank(supports(m)) == want
    # every entry as a pair, zeros included: a zero pair is dropped, never led by
    assert rank([list(enumerate(m.row(r))) for r in range(m.rows)]) == want


P = 2**31 - 1  # a common modulus: an exact rank must not read its multiples as 0


def test_rank_fixed_cases():
    assert rank([[(0, F(P)), (1, F(3 * P, 2))], [(1, F(5))]]) == 2
    assert rank([[(0, F(1, P))]]) == rank([[(0, F(P, 7))]]) == 1
    # the second row cancels at its fill-in
    assert rank([[(0, F(1)), (1, F(2))], [(0, F(2)), (1, F(4))]]) == 1
    assert rank([]) == rank([[(0, F(0))], []]) == 0
    # an explicit zero at the leading column must not become a pivot
    assert rank([[(0, F(0)), (1, F(3))], [(0, F(2))]]) == 2
