"""Spencer differential tests.

Plan:
 1) ambient matrix hand cases pinning the sign/coefficient convention;
 2) delta∘delta = 0 on ambient spaces (small sweep; the full sweep is in the
    acceptance suite);
 3) restricted differentials: the first-order tableau slot map, exact equality
    with the ∂-built map for ∂ = inclusion, escape detection (also of a
    contraction that agrees with its predecessor at every pivot), and every
    chain map of random towers against the ambient differential read through
    the level bases;
 4) chain cohomology on the full (free) tableau: everything vanishes,
    short-chain, empty-window, missing-level and bad-r errors, a chain
    whose ∂s do not commute or whose level-0 ∂ has a row count the assembly
    would cut short is refused;
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
from hypothesis import example, given, settings, strategies as st

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
    tower,
)
from formalpde.tensorspace import ext_indices, multi_indices, sym_dim

import oracle_brute
from ambient_reference import TensorSpaceDesc, delta_apply_basis, delta_matrix
from matrices import contains, coords_of, product, rref_rank, slot_map, zeros
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
    return tower(Tableau(n=2, f=2, space=cr_tableau_space()), 1).map_out(0, m)


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
                got = chain.map_out(l, m)
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
        chain.map_out(-1, 1)
    with pytest.raises(ValueError, match="chain too short: level not present"):
        chain.map_out(len(chain.levels), 1)


def test_is_r_acyclic_rejects_r_above_m_max():
    chain = full_chain(2, 1, 2)
    report = cohomology(chain, l_max=1, m_max=1)
    with pytest.raises(ValueError):
        is_r_acyclic(report, 2)


def test_zero_chain_vanishing_short_circuit():
    z1 = Subspace.zero(sym_dim(2, 1) * 1)
    z2 = Subspace.zero(sym_dim(2, 2) * 1)
    z3 = Subspace.zero(sym_dim(2, 3) * 1)
    chain = TableauChain(
        n=2,
        levels=(z1, z2, z3),
        partials=(zeros(2, 0), zeros(0, 0), zeros(0, 0)),
    )
    report = cohomology(chain, l_max=1, m_max=2)
    assert report.vanishing_level == 0
    verdict = is_r_acyclic(report, 2)
    assert verdict.acyclic and verdict.unconditional


@pytest.mark.parametrize("n, rows", [(2, 3), (2, 1), (0, 1)])
def test_level_zero_partial_needs_a_multiple_of_n_rows(n, rows):
    # rows b*n + i: with n = 2, three rows would lose the last one to b = rows // n
    partial0 = RatMatrix([[1], [0], [5]][:rows])
    levels = (Subspace.full(1), Subspace.zero(0))
    with pytest.raises(ValueError, match="partial map 0"):
        TableauChain(n=n, levels=levels, partials=(partial0, zeros(n, 0)))


def reference_cycles_and_boundaries(chain, l, m):
    """Z^(l,m) and B^(l,m) as subspaces: the kernel of the map out of the
    slot and the image of the map into it, checked to nest."""
    z = kernel(chain.map_out(l, m))
    b = image(chain.map_out(l + 1, m - 1))
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
        if chain.slot_dim(l, m) == 0:
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
    chain = tower(t, l_max + 1)
    assert_matches_the_subspace_reference(chain, cohomology(chain, l_max=l_max, m_max=t.n))


def small_systems():
    return small_terms().map(lambda terms: PdeSystem.from_terms(*terms))


@settings(deadline=None, max_examples=40)
@given(small_systems(), st.integers(0, 2))
def test_cohomology_matches_the_subspace_reference(system, l_max):
    chain = tower(symbol_tableau(system), l_max + 1)
    report = cohomology(chain, l_max=l_max, m_max=system.n)
    assert_matches_the_subspace_reference(chain, report)


@settings(deadline=None, max_examples=40)
@given(small_terms(), st.integers(1, 3), st.integers(0, 3))
@example(MIXED_PARTIALS, 4, 2)
def test_tower_and_type_match_the_oracle(terms, depth, l_max):
    l_max = min(l_max, depth)
    chain = tower(symbol_tableau(PdeSystem.from_terms(*terms)), depth)
    dims = tuple(len(basis) for _, _, basis in oracle_brute.symbol_tower_bases(*terms, depth))
    assert tuple(level.dim for level in chain.levels) == dims
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
