"""Spencer differential tests.

Plan:
 1) ambient matrix hand cases pinning the sign/coefficient convention;
 2) delta∘delta = 0 on ambient spaces (small sweep; the full sweep is in the
    acceptance suite);
 3) restricted differentials: the first-order tableau slot map, exact equality
    with the ∂-built map for ∂ = inclusion, escape detection (also of a
    contraction that agrees with its predecessor at every pivot), the
    contraction check on drawn pairs that are not prolongations of each
    other, the lower one with mixed leads, against a dense reference (ι_i
    read off `multi_indices`, then `reduce_mod`): it raises exactly when one
    contraction escapes and otherwise gives the reference's coordinates
    times the leads, also on a full predecessor, on two ∂ rows reading one
    column and on an escape along the last direction alone, which the
    check names; and every chain map of random towers against the
    ambient differential read through the level bases;
 4) chain cohomology on the full (free) tableau: everything vanishes,
    short-chain, empty-window, missing-level and bad-r errors, a chain
    whose ∂s do not commute or whose level-0 ∂ has a row count the assembly
    would cut short is refused, and so is a ∂ that misses its level's
    basis or the level below, and a depth its levels do not reach;
    the integer δ∘δ = 0 check agrees with Fraction products on maps that
    compose to zero only once denominators cancel, and on those maps with one
    entry moved, also when handed A·D and an integer B for a diagonal D;
    each distinct slot map is ranked once; chains scaled by 2^31 - 1 or
    its inverse, a nonzero H, and random classical and generalized towers
    give every entry of the subspace reference (kernel, image, containment)
    below;
 5) on random small systems, and on one whose principal parts carry mixed
    top-order partials, the tower's level dimensions and the type verdict
    equal the sympy oracle's symbol tower, and that tower equals the symbol
    dimensions of the oracle's own prolonged equations.

The ambient differential of 1)-3) lives in tests/ambient_reference.py.
Frozen reference values come from tests/oracle_brute.py (independent sympy
implementation): the first-order 2x2 rotation-like tableau has ker dim 2 in
form degree 1, and free towers are acyclic in every slot.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from formalpde import relconn, spencer
from formalpde.errors import InvariantViolation
from formalpde.jetpde import PdeSystem, goldschmidt_check, symbol_tableau
from formalpde.ratlin import RatMatrix, Subspace, image, kernel, rank
from formalpde.spencer import (
    HEntry,
    TableauChain,
    _composes_to_zero,
    cohomology,
    is_r_acyclic,
)
from formalpde.tableau import (
    Tableau,
    TypeVerdict,
    _verify_contracts_into,
    classify_type,
    prolong,
    tower,
)
from formalpde.tensorspace import ext_dim, ext_indices, multi_indices, sym_dim

import oracle_brute
from ambient_reference import TensorSpaceDesc, delta_apply_basis, delta_matrix
from matrices import (
    contains, coords_of, full_tower, map_out, product, rref_rank, slot_map, zeros,
)
from systems import MIXED_PARTIALS, small_terms


# --------------------------- 1) ambient hand cases ---------------------------


def test_delta_on_x1_squared():
    # delta(x1^2) = dx1 ⊗ 2 x1 (monomial coefficients, no divided powers)
    d = delta_matrix(2, 0, 2, 1)
    src = TensorSpaceDesc(2, 0, 2, 1)
    tgt = TensorSpaceDesc(2, 1, 1, 1)
    col = d.col(src.index_of(0, (), (2, 0)))
    assert col[tgt.index_of(0, (0,), (1, 0))] == 2
    assert sum(1 for x in col if x) == 1
    # delta(x1 x2) = dx1 ⊗ x2 + dx2 ⊗ x1
    col = d.col(src.index_of(0, (), (1, 1)))
    assert col[tgt.index_of(0, (0,), (0, 1))] == 1
    assert col[tgt.index_of(0, (1,), (1, 0))] == 1


def test_delta_insertion_sign_in_form_degree_one():
    # delta(dx1 ⊗ x2) inserts direction 2 past dx1: sign (-1)^1
    d = delta_matrix(2, 1, 1, 1)
    src = TensorSpaceDesc(2, 1, 1, 1)
    tgt = TensorSpaceDesc(2, 2, 0, 1)
    col = d.col(src.index_of(0, (0,), (0, 1)))
    assert col[tgt.index_of(0, (0, 1), (0, 0))] == -1
    # while delta(dx2 ⊗ x1) inserts direction 1 before dx2: sign +1
    col = d.col(src.index_of(0, (1,), (1, 0)))
    assert col[tgt.index_of(0, (0, 1), (0, 0))] == 1


def test_delta_apply_basis_matches_matrix():
    src = TensorSpaceDesc(3, 1, 2, 2)
    tgt = TensorSpaceDesc(3, 2, 1, 2)
    d = delta_matrix(3, 1, 2, 2)
    for a, s, alpha in src.basis():
        col = d.col(src.index_of(a, s, alpha))
        sparse = delta_apply_basis(3, 1, 2, a, s, alpha)
        dense = [Fraction(0)] * tgt.dim
        for (aa, t, beta), v in sparse.items():
            dense[tgt.index_of(aa, t, beta)] = v
        assert tuple(dense) == col


# --------------------------- 2) delta ∘ delta = 0 (smoke) ---------------------------


def test_delta_squared_zero_small():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for j in range(n):
                a = delta_matrix(n, j, k, 2)
                b = delta_matrix(n, j + 1, k - 1, 2)
                assert product(b, a) == zeros(b.rows, a.cols)


# --------------------------- 3) restricted differentials ---------------------------


def cr_tableau_space():
    # eta^1_1 = eta^2_2, eta^1_2 = -eta^2_1 inside S^1 ⊗ R^2 (flat a*2 + i)
    return Subspace.from_spanning(4, [[1, 0, 0, 1], [0, 1, -1, 0]])


def cr_chain_map(m):
    # level 0 of the CR tableau's chain: ι into the full S^0 ⊗ F
    return map_out(tower(Tableau(n=2, f=2, space=cr_tableau_space()), 1), 0, m)


def test_delta_hom_on_cr_tableau():
    d = cr_chain_map(1)
    assert d.shape == (2, 4)  # Λ² ⊗ F is 1*2-dimensional, Λ¹ ⊗ g is 2*2
    assert kernel(d).dim == 2  # frozen via the brute-force oracle
    assert rref_rank(d) == 2


def test_delta_partial_with_inclusion_equals_restricted():
    g = cr_tableau_space()
    # ∂ = the inclusion g -> S^1 ⊗ F read as Hom(E, F) with rows b*n + i;
    # the subspace ambient flat (a*n + i) is already that row convention.
    incl = RatMatrix(g.basis).transpose()
    left = slot_map(incl, 2, 1)
    assert left == cr_chain_map(1)


def test_delta_partial_degree_zero_single_direction_is_partial_itself():
    partial = RatMatrix([[2], [3]])  # G = 1, n = 1, F_b = 2: rows b*1 + 0
    out = slot_map(partial, 1, 0)
    assert out == partial


def test_delta_restricted_escape_raises():
    # the tower's contraction check is where a level escaping its target shows
    src = Subspace.from_spanning(3, [[1, 0, 0]])  # span{x1^2} in S^2
    tgt = Subspace.from_spanning(2, [[0, 1]])  # span{x2} in S^1
    with pytest.raises(InvariantViolation):
        _verify_contracts_into(2, 1, 2, src, tgt)


def test_a_contraction_off_the_pivots_is_an_escape():
    # prev = span{x1 + x2} in S^1, pivot x1.  v with jet components
    # (1, 4, 0), x1^2 / 2 + 4 x1x2, has ι_1 v = x1 + 4 x2: it agrees with
    # x1 + x2 at the pivot and differs only at x2, so a check reading pivot
    # entries alone would miss it
    prev = Subspace.from_spanning(2, [[1, 1]])
    level = Subspace.from_spanning(3, [[1, 4, 0]])
    message = (
        r"tower level of degree 2 \(dim 1\) does not contract into its "
        r"predecessor \(dim 1\) along direction 0"
    )
    with pytest.raises(InvariantViolation, match=message):
        _verify_contracts_into(2, 1, 2, level, prev)
    # (x1 + x2)^2 / 2, jet components (1, 1, 1), contracts to x1 + x2 along
    # both directions, each read with coefficient 1
    level = Subspace.from_spanning(3, [[1, 1, 1]])
    assert _verify_contracts_into(2, 1, 2, level, prev) == RatMatrix([[1], [1]])
    # x2^2 / 2, jet components (0, 0, 1), contracts to 0 along x1 and to x2
    # along x2, so it escapes along the last direction alone, and is named there
    level = Subspace.from_spanning(3, [[0, 0, 1]])
    with pytest.raises(InvariantViolation, match="along direction 1$"):
        _verify_contracts_into(2, 1, 2, level, prev)


def dense_contractions(n, f, degree, v):
    """ι_0 v, ..., ι_(n-1) v for v dense in S^degree ⊗ F, read off
    `multi_indices`: coordinate (a, alpha) of ι_i v is v at (a, alpha + e_i)."""
    up = {alpha: r for r, alpha in enumerate(multi_indices(n, degree))}
    low = multi_indices(n, degree - 1)
    return [
        [v[a * len(up) + up[tuple(e + (j == i) for j, e in enumerate(alpha))]]
         for a in range(f) for alpha in low]
        for i in range(n)
    ]


weights = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 0, 0])


class Drawn:
    """Stands in for `st.data()` in an @example: each draw takes the next value."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([(n, f, d) for n in (1, 2, 3) for f in (1, 2) for d in (1, 2, 3)]), st.data())
# prev the full S^1 (no free column, as at tower level 0): no residual, and
# ∂ rows (x1, direction 1) and (x2, direction 0) both read column x1x2
@example((2, 1, 2), Drawn(set(), [[1, 2, 0], [0, Fraction(1, 2), -1]], False))
# prev = span{x1 + x2/2} ⊕ S^1 of the second fiber, leads 2 and 1: rows
# (b, i) = (1, 1) and (2, 0) read that fiber's x1x2, and x2 of the first
# fiber is a non-pivot whose residual subtracts a halved column
@example((2, 2, 2), Drawn({1}, Fraction(1, 2), [[1, -1, 2, Fraction(1, 2)], [0, 1, 0, 2]], False))
# prev = span{x1}, level = span{x1^2, x2^2}: x2^2 escapes along the last direction only
@example((2, 1, 2), Drawn({1}, 0, [[1]], True, [[1, 0, 1]]))
def test_the_contraction_check_matches_a_dense_reference(shape, data):
    # prev has one or two free columns, its first basis vector halves and
    # thirds there and the others ints, so its leads mix 1 and d > 1; level
    # spans vectors of prev's prolongation and, half the time, a drawn one,
    # so some pairs contract and others escape.  The dense reference reduces
    # each ι_i of level's basis mod prev, and its coordinates, the entries
    # at prev's pivots, times level's leads d_j are the ∂·D
    n, f, degree = shape
    up, low = sym_dim(n, degree) * f, sym_dim(n, degree - 1) * f
    free = data.draw(st.sets(st.integers(1, max(1, low - 1)), min_size=low > 1, max_size=2 * (low > 1)))
    pivots = [c for c in range(low) if c not in free]
    rows = []
    for j, p in enumerate(pivots):
        entries = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), 0] if j == 0 else [1, -1, 2, 0])
        rows.append([int(c == p) if c <= p or c in pivots else data.draw(entries) for c in range(low)])
    prev = Subspace.from_spanning(low, rows)
    if degree > 1:
        g1 = prolong(Tableau(n=n, f=f, space=prev, degree=degree - 1))
    else:  # ι_i(b ⊗ x_i) = b
        g1 = Subspace.from_spanning(
            up, [[b[a] * (r == i) for a in range(f) for r in range(n)] for b in prev.basis for i in range(n)]
        )
    vectors = lambda dim: st.lists(st.lists(weights, min_size=dim, max_size=dim), min_size=1, max_size=2)
    spans = [
        [sum((w * b[c] for w, b in zip(ws, g1.basis)), Fraction(0)) for c in range(up)]
        for ws in data.draw(vectors(g1.dim))
    ]
    noise = data.draw(vectors(up))[:1] if data.draw(st.booleans()) else []
    level = Subspace.from_spanning(up, spans + noise)
    want = [[0] * level.dim for _ in range(n * prev.dim)]
    escapes = False
    for col, (v, d) in enumerate(zip(level.basis, level.leads())):
        for i, w in enumerate(dense_contractions(n, f, degree, v)):
            escapes |= any(prev.reduce_mod(w))
            for b, p in enumerate(prev.pivots):
                want[b * n + i][col] = w[p] * d
    if escapes:
        with pytest.raises(InvariantViolation, match=f"tower level of degree {degree} "):
            _verify_contracts_into(n, f, degree, level, prev)
    else:
        assert _verify_contracts_into(n, f, degree, level, prev) == RatMatrix(want, cols=level.dim)


def factorial(alpha):
    """alpha! = alpha_1! ... alpha_n!, the jet component of x^alpha."""
    return math.prod(map(math.factorial, alpha))


def ambient_map_through_bases(n, f, degree, m, level, below):
    """delta_matrix on Λ^m ⊗ level, written in the slot coordinates of the chain.

    level sits in S^degree ⊗ F and below in S^(degree-1) ⊗ F, both in jet
    components; each slot basis vector e_S ⊗ v_c goes to the reference's
    monomial coefficients (c_alpha = u_alpha / alpha!), through the reference
    differential, back to jet components (u_beta = beta! · c_beta) and
    through below's basis, ext-major on both sides.  This is the one place
    the two conventions meet.
    """
    src = TensorSpaceDesc(n, m, degree, f)
    tgt = TensorSpaceDesc(n, m + 1, degree - 1, f)
    d = delta_matrix(n, m, degree, f)
    src_sym = multi_indices(n, degree)
    tgt_sym = multi_indices(n, degree - 1)
    cols = []
    for s in ext_indices(n, m):
        for v in level.basis:
            amb = [Fraction(0)] * src.dim
            for a in range(f):
                for r, alpha in enumerate(src_sym):
                    amb[src.index_of(a, s, alpha)] = v[a * len(src_sym) + r] / factorial(alpha)
            out = d.apply(amb)
            col = []
            for t in ext_indices(n, m + 1):
                flat = [
                    out[tgt.index_of(a, t, beta)] * factorial(beta)
                    for a in range(f)
                    for beta in tgt_sym
                ]
                coords = coords_of(below, flat)
                assert coords is not None
                col.extend(coords)
            cols.append(col)
    rows = len(ext_indices(n, m + 1)) * below.dim
    return RatMatrix([[col[r] for col in cols] for r in range(rows)], cols=len(cols))


def test_chain_maps_match_the_ambient_differential():
    # d^2 = 0 cannot see a zero or transposed ∂; this pins every map itself
    rng = random.Random(6)
    seen_nonzero = 0
    for _ in range(40):
        n, f, degree = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
        amb = sym_dim(n, degree) * f
        vecs = [[rng.randint(-2, 2) for _ in range(amb)] for _ in range(rng.randint(1, 3))]
        t = Tableau(n=n, f=f, space=Subspace.from_spanning(amb, vecs), degree=degree)
        chain = tower(t, 3)
        below = Subspace.full(sym_dim(n, degree - 1) * f)
        for l, level in enumerate(chain.levels):
            for m in range(n + 1):
                want = ambient_map_through_bases(n, f, degree + l, m, level, below)
                got = map_out(chain, l, m)
                assert got == want, (n, f, degree, l, m)
                seen_nonzero += got != zeros(*got.shape)
            below = level
    assert seen_nonzero > 100


# --------------------------- 4) chains ---------------------------


def polarization_matrix(n, degree, f):
    """S^degree ⊗ F -> Hom(E, S^(degree-1) ⊗ F), rows b*n + i: in jet
    components, ι_i reads coordinate alpha at alpha - e_i with coefficient 1."""
    from formalpde.tensorspace import multi_indices, sym_rank

    sd_src = sym_dim(n, degree)
    sd_tgt = sym_dim(n, degree - 1)
    rows = [[Fraction(0)] * (sd_src * f) for _ in range(n * sd_tgt * f)]
    for a in range(f):
        for sr, alpha in enumerate(multi_indices(n, degree)):
            for i in range(n):
                if alpha[i]:
                    beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                    b = a * sd_tgt + sym_rank(beta)
                    rows[b * n + i][a * sd_src + sr] = Fraction(1)
    return RatMatrix(rows, cols=sd_src * f)


def full_chain(n, f, depth):
    # on full levels the basis coordinates are the ambient ones, so each ∂ is
    # the polarization of its degree
    levels = tuple(Subspace.full(sym_dim(n, 1 + l) * f) for l in range(depth + 1))
    partials = tuple(polarization_matrix(n, 1 + l, f) for l in range(depth + 1))
    return TableauChain(n=n, levels=levels, partials=partials)


def test_full_tableau_chain_is_acyclic():
    chain = full_chain(2, 1, 3)
    report = cohomology(chain, l_max=2, m_max=2)
    assert all(e.h_dim == 0 for e in report.entries.values())
    assert report.vanishing_level is None
    verdict = is_r_acyclic(report, 2)
    assert verdict.acyclic and not verdict.unconditional
    # degree-2 slots are honest: Z and B agree and are nontrivial somewhere
    assert report.entries[(0, 1)].z_dim == report.entries[(0, 1)].b_dim > 0


def test_cohomology_requires_levels_through_l_max_plus_one():
    chain = full_chain(2, 1, 1)
    with pytest.raises(ValueError, match="chain too short"):
        cohomology(chain, l_max=1, m_max=1)


@pytest.mark.parametrize("l_max, m_max", [(-1, 1), (0, 0)])
def test_cohomology_refuses_an_empty_window(l_max, m_max):
    with pytest.raises(ValueError, match=r"need l_max >= 0 and m_max >= 1"):
        cohomology(full_chain(2, 1, 1), l_max=l_max, m_max=m_max)


def test_map_out_refuses_levels_the_chain_lacks():
    chain = full_chain(2, 1, 1)
    with pytest.raises(ValueError, match="no outgoing map below the bottom"):
        map_out(chain, -1, 1)
    with pytest.raises(ValueError, match="chain too short: level not present"):
        map_out(chain, len(chain.levels), 1)


def test_spencer_keeps_no_fraction_and_relconn_builds_no_chain():
    # every Spencer map is `_slot_matrix` of an integer ∂·D, and the exact
    # differential with D⁻¹ put back as Fractions is the test reference
    # `matrices.map_out`; the connection route's δ image calls `_slot_matrix`
    # on its one full level rather than building a chain by hand
    assert not hasattr(spencer, "Fraction")
    assert not hasattr(relconn, "TableauChain")


def test_is_r_acyclic_rejects_r_above_m_max():
    chain = full_chain(2, 1, 2)
    report = cohomology(chain, l_max=1, m_max=1)
    with pytest.raises(ValueError):
        is_r_acyclic(report, 2)


def test_zero_chain_vanishing_short_circuit():
    z1 = Subspace.from_spanning(sym_dim(2, 1) * 1, [])
    z2 = Subspace.from_spanning(sym_dim(2, 2) * 1, [])
    z3 = Subspace.from_spanning(sym_dim(2, 3) * 1, [])
    chain = TableauChain(
        n=2,
        levels=(z1, z2, z3),
        partials=(zeros(2, 0), zeros(0, 0), zeros(0, 0)),
    )
    report = cohomology(chain, l_max=1, m_max=2)
    assert report.vanishing_level == 0
    verdict = is_r_acyclic(report, 2)
    assert verdict.acyclic and verdict.unconditional


ROWS = "partial map 0 needs a multiple of n rows"


@pytest.mark.parametrize("n, partials, depth, message", [
    # rows b*n + i: with n = 2, three rows would lose the last one to b = rows // n
    pytest.param(2, (RatMatrix([[1], [0], [5]]), zeros(2, 0)), None, ROWS, id="2-3"),
    pytest.param(2, (RatMatrix([[1]]), zeros(2, 0)), None, ROWS, id="2-1"),
    pytest.param(0, (RatMatrix([[1]]), zeros(0, 0)), None, ROWS, id="0-1"),
    pytest.param(2, (zeros(2, 2), zeros(2, 0)), None,
                 "partial map 0 must consume the level-0 basis", id="consume"),
    pytest.param(2, (zeros(2, 1), zeros(4, 0)), None, "partial map 1 must land in level 0",
                 id="land"),
    pytest.param(2, (zeros(2, 1), zeros(2, 0)), 2, "a chain holds its levels through depth",
                 id="depth"),
])
def test_level_zero_partial_needs_a_multiple_of_n_rows(n, partials, depth, message):
    # and every other ∂ and depth a chain's levels cannot carry
    levels = (Subspace.full(1), Subspace.from_spanning(0, []))
    TableauChain(n=2, levels=levels, partials=(zeros(2, 1), zeros(2, 0)))
    with pytest.raises(ValueError, match=message):
        TableauChain(n=n, levels=levels, partials=partials, depth=depth)


def reference_cycles_and_boundaries(chain, l, m):
    """Z^(l,m) and B^(l,m) as subspaces: the kernel of the map out of the
    slot and the image of the map into it, checked to nest."""
    z = kernel(map_out(chain, l, m))
    b = image(map_out(chain, l + 1, m - 1))
    assert contains(z, b), (l, m)
    return z, b


def test_representatives_span_a_complement():
    chain = full_chain(2, 2, 2)
    report = cohomology(chain, l_max=1, m_max=2)
    for (l, m), entry in report.entries.items():
        z, b = reference_cycles_and_boundaries(chain, l, m)
        reduced = [b.reduce_mod(v) for v in z.basis]
        reps = Subspace.from_spanning(z.ambient_dim, reduced).basis
        assert len(reps) == entry.h_dim


def test_noncommuting_partials_are_refused():
    # on full levels of S^1, S^2 (n = 2, f = 1) the second ∂ is polarization
    # plus one stray entry: ∂_1 of x1^2 gains an x2 term, so ∂_2∂_1 x1^2 = 1
    # while ∂_1∂_2 x1^2 = 0, and δ∘δ out of slot (1, 0) is not zero
    chain = full_chain(2, 1, 2)
    rows = [list(chain.partials[1].row(r)) for r in range(chain.partials[1].rows)]
    rows[1 * 2 + 0][0] += 1  # row b*n + i with b = x2, i = x1; column x1^2
    partials = (chain.partials[0], RatMatrix(rows), chain.partials[2])
    bad = TableauChain(n=2, levels=chain.levels, partials=partials)
    message = r"image is not contained in the kernel at slot \(0, 1\)"
    with pytest.raises(InvariantViolation, match=message):
        cohomology(bad, l_max=1, m_max=2)


def fraction_product_is_zero(a_rows, b_rows, width):
    """A @ B = 0 over dense Fraction rows, one entry at a time."""
    return all(
        sum((x * b_rows[k][j] for k, x in enumerate(a)), Fraction(0)) == 0
        for a in a_rows
        for j in range(width)
    )


fractions_off_the_integers = st.sampled_from(
    [Fraction(0)] * 6 + [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 5)]
)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_the_integer_composition_check_matches_fraction_products(k, w, data):
    # B with a dependent last row, and A spanning B's left kernel scaled by
    # non-integers: A @ B = 0 only once the denominators cancel.  One entry
    # of A moved in a column where B's row is nonzero must be caught, and an
    # unrelated A must get the reference's answer either way
    rows = st.lists(fractions_off_the_integers, min_size=w, max_size=w)
    b = data.draw(st.lists(rows, min_size=k, max_size=k))
    if k > 1:
        c0, c1 = data.draw(st.lists(fractions_off_the_integers, min_size=2, max_size=2))
        b[-1] = [c0 * x + c1 * y for x, y in zip(b[0], b[1])]
    b_pairs = RatMatrix(b).pairs
    scale = data.draw(st.sampled_from([Fraction(p, q) for p in (-2, 1, 3) for q in (2, 7)]))
    a = [[scale * x for x in v] for v in kernel(RatMatrix(b).transpose()).basis]
    ones = [1] * k
    assert fraction_product_is_zero(a, b, w)
    assert _composes_to_zero(RatMatrix(a, cols=k).pairs, b_pairs, ones)
    hits = [row for row, entries in enumerate(b) if any(entries)]
    if a and hits:
        r = data.draw(st.integers(0, len(a) - 1))
        a[r][data.draw(st.sampled_from(hits))] += Fraction(1, 7)
        assert not fraction_product_is_zero(a, b, w)
        assert not _composes_to_zero(RatMatrix(a, cols=k).pairs, b_pairs, ones)
    other = data.draw(
        st.lists(st.lists(fractions_off_the_integers, min_size=k, max_size=k), max_size=3)
    )
    got = _composes_to_zero(RatMatrix(other, cols=k).pairs, b_pairs, ones)
    assert got == fraction_product_is_zero(other, b, w)


small_integers = st.sampled_from([0] * 4 + [-3, -2, -1, 1, 2, 3])


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_the_integer_composition_check_undoes_a_diagonal_scaling(k, w, data):
    # as cohomology calls it: A·D for a positive integer diagonal D and an
    # integer B, so the product it decides is (A·D)(D⁻¹·B) = A·B.  A spans
    # B's left kernel, which A·D does not unless D is scalar; the one-entry
    # move and an unrelated A are judged as in the property above
    leads = data.draw(st.lists(st.integers(1, 7), min_size=k, max_size=k))
    int_rows = st.lists(small_integers, min_size=w, max_size=w)
    ints = data.draw(st.lists(int_rows, min_size=k, max_size=k))
    if k > 1:
        c0, c1 = data.draw(st.lists(small_integers, min_size=2, max_size=2))
        ints[-1] = [c0 * x + c1 * y for x, y in zip(ints[0], ints[1])]
    b_int = RatMatrix(ints, cols=w).pairs
    b = [[Fraction(x, d) for x in row] for row, d in zip(ints, leads)]  # D⁻¹·B
    scale = data.draw(st.sampled_from([Fraction(p, q) for p in (-2, 1, 3) for q in (2, 7)]))
    left = kernel(RatMatrix(ints, cols=w).transpose()).basis
    a = [[scale * x * d for x, d in zip(v, leads)] for v in left]  # A·D
    assert fraction_product_is_zero(a, b, w)
    assert _composes_to_zero(RatMatrix(a, cols=k).pairs, b_int, leads)
    hits = [row for row, entries in enumerate(ints) if any(entries)]
    if a and hits:
        r = data.draw(st.integers(0, len(a) - 1))
        a[r][data.draw(st.sampled_from(hits))] += Fraction(1, 7)
        assert not fraction_product_is_zero(a, b, w)
        assert not _composes_to_zero(RatMatrix(a, cols=k).pairs, b_int, leads)
    other = data.draw(
        st.lists(st.lists(fractions_off_the_integers, min_size=k, max_size=k), max_size=3)
    )
    got = _composes_to_zero(RatMatrix(other, cols=k).pairs, b_int, leads)
    assert got == fraction_product_is_zero(other, b, w)


# --------------------------- 4b) exact ranks ---------------------------

P = 2**31 - 1  # a common modulus for ranks; an exact rank does not depend on it


def scaled_chain(chain, factor):
    """The chain with every entry of every ∂ multiplied by factor."""
    partials = tuple(
        RatMatrix([[x * factor for x in d.row(r)] for r in range(d.rows)], cols=d.cols)
        for d in chain.partials
    )
    return TableauChain(n=chain.n, levels=chain.levels, partials=partials)


def test_each_distinct_map_is_ranked_once(count_calls):
    calls = count_calls(rank)
    report = cohomology(full_chain(2, 1, 3), l_max=2, m_max=2)
    assert all(e.h_dim == 0 for e in report.entries.values())
    # every slot is nonzero here, and a map shared by two slots is ranked once
    maps = set(report.entries) | {(l + 1, m - 1) for l, m in report.entries}
    assert len(calls) == len(maps) == 10


@pytest.mark.parametrize(
    "factor", [P, Fraction(1, P)], ids=["residues-zero", "denominators-of-p"]
)
def test_maps_the_squeeze_cannot_read_get_exact_ranks(factor):
    # maps a rank mod P cannot read: every entry 0 mod P, or every
    # denominator divisible by P.  Scaling keeps δ∘δ = 0 and every rank, so
    # the report must not change
    chain = full_chain(2, 1, 3)
    want = cohomology(chain, l_max=2, m_max=2).entries
    scaled = scaled_chain(chain, factor)
    report = cohomology(scaled, l_max=2, m_max=2)
    assert report.entries == want
    assert_matches_the_subspace_reference(scaled, report)


def test_nonzero_cohomology_gets_exact_ranks_and_keeps_the_verdict():
    # u_x1x1 = u_x2x2 = 0 has H(0, 2) = 1, so the verdict stays inconclusive
    system = PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    rep = goldschmidt_check(system, 2)
    assert (rep.verdict, rep.verdict_level) == ("inconclusive", 0)
    assert rep.cohomology[(0, 2)] == 1
    chain = tower(symbol_tableau(system), 3)
    assert_matches_the_subspace_reference(chain, cohomology(chain, l_max=2, m_max=2))


def assert_matches_the_subspace_reference(chain, report):
    for (l, m), entry in report.entries.items():
        if ext_dim(chain.n, m) * chain.level_dim(l) == 0:
            assert entry == HEntry(0, 0, 0)
            continue
        z, b = reference_cycles_and_boundaries(chain, l, m)
        assert entry == HEntry(z.dim, b.dim, z.dim - b.dim), (l, m)


@st.composite
def generalized_tableaux(draw):
    """Tableau.generalized over a full carrier with a random rational ∂,
    n <= 3, f <= 2, dim g <= 3: its towers often have nonzero H."""
    n, f, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entries = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    row = st.lists(entries, min_size=p, max_size=p)
    rows = draw(st.lists(row, min_size=n * f, max_size=n * f))
    return Tableau.generalized(n, f, Subspace.full(p), RatMatrix(rows, cols=p))


@settings(deadline=None, max_examples=40)
@given(generalized_tableaux(), st.integers(0, 2))
def test_generalized_cohomology_matches_the_subspace_reference(t, l_max):
    # the reference reads every level, so the full tower, not tower's prefix
    report = cohomology(tower(t, l_max + 1), l_max=l_max, m_max=t.n)
    assert_matches_the_subspace_reference(full_tower(t, l_max + 1), report)


def small_systems():
    return small_terms().map(lambda terms: PdeSystem.from_terms(*terms))


@settings(deadline=None, max_examples=40)
@given(small_systems(), st.integers(0, 2))
def test_cohomology_matches_the_subspace_reference(system, l_max):
    t = symbol_tableau(system)
    report = cohomology(tower(t, l_max + 1), l_max=l_max, m_max=system.n)
    assert_matches_the_subspace_reference(full_tower(t, l_max + 1), report)


@settings(deadline=None, max_examples=40)
@given(small_terms(), st.integers(1, 3), st.integers(0, 3))
@example(MIXED_PARTIALS, 4, 2)
def test_tower_and_type_match_the_oracle(terms, depth, l_max):
    l_max = min(l_max, depth)
    chain = tower(symbol_tableau(PdeSystem.from_terms(*terms)), depth)
    dims = tuple(len(basis) for _, _, basis in oracle_brute.symbol_tower_bases(*terms, depth))
    assert tuple(map(chain.level_dim, range(depth + 1))) == dims
    assert chain.ranks == dims[1:]
    ranks = dims[: l_max + 1]
    if 0 in ranks:
        expected = TypeVerdict(kind="finite", level=ranks.index(0), ranks=ranks)
    else:
        expected = TypeVerdict(kind="infinite-up-to", level=l_max, ranks=ranks)
    assert classify_type(chain, l_max) == expected


@settings(deadline=None, max_examples=25)
@given(small_terms(), st.integers(1, 2))
@example(MIXED_PARTIALS, 2)
def test_the_oracles_symbol_tower_matches_its_prolonged_equations(terms, depth):
    # the oracle's tableau tower, prolonged from its symbol in monomial
    # coefficients, against the symbol column of its own tower_data: the
    # symbol dims of the prolonged equations, in jet coordinates
    n, m = terms[:2]
    tower_dims = [len(basis) for _, _, basis in oracle_brute.symbol_tower_bases(*terms, depth)]
    walked = [
        oracle_brute.symbol_dim(n, m, *oracle_brute.prolonged(*terms, d)) for d in range(depth + 1)
    ]
    assert tower_dims == walked


# --------------------------- 5) involution past the built levels ---------------------------


@settings(deadline=None, max_examples=4)
@given(small_terms())
@example((2, 2, 2, [[(-1, 1, (0, 2)), (-1, 1, (1, 1))], [(-3, 1, (1, 0)), (-1, 0, (1, 1)), (1, 0, (0, 0))]]))
def test_involution_answers_the_levels_above_it_as_the_oracle_does(terms):
    # a tower that passes Cartan's test at level l holds levels 0 .. l + 1
    # and reads every level above off the closed form, and every Spencer
    # group at and above l is 0 with no rank taken.  The sympy oracle
    # prolongs the jet system and the symbol itself through l + 3 (l <= 1:
    # its cost grows fast with the depth, about 0.6 s at depth 4 for n = 3, m = 2, k = 2)
    n, m, k, eqs = terms
    chain = tower(symbol_tableau(PdeSystem.from_terms(*terms)), 2)
    assume(chain.involution is not None)
    top = chain.involution.level + 3
    symbols = [symbol for _, symbol, _ in oracle_brute.tower_data(n, m, k, eqs, top)]
    assert list(map(chain.level_dim, range(top + 1))) == symbols
    bases = oracle_brute.symbol_tower_bases(n, m, k, eqs, top)
    report = cohomology(chain.prefix(top), l_max=top - 1, m_max=n)
    for l in range(chain.involution.level, top):
        for j in range(1, n + 1):
            assert oracle_brute.spencer_h_dim(n, m, bases, l, j) == 0, (l, j)
            assert report.entries[(l, j)].h_dim == 0, (l, j)


@settings(deadline=None, max_examples=30)
@given(small_terms(), st.integers(1, 4))
def test_every_entry_above_an_involutive_level_is_the_full_towers(terms, depth):
    # z, b and h of every slot, the ones cohomology fills in from level
    # dimensions included, against a chain built level by level with no
    # involution, whose every entry is ranked
    t = symbol_tableau(PdeSystem.from_terms(*terms))
    chain, full = tower(t, depth), full_tower(t, depth)
    assert chain.ranks == full.ranks
    assert chain.levels == full.levels[: len(chain.levels)]
    assert cohomology(chain, depth - 1, t.n).entries == cohomology(full, depth - 1, t.n).entries
