"""Tableau and tower tests.

Plan:
 1) pinned examples: the Cauchy-Riemann tableau (ranks frozen from the
    brute-force oracle), free tableaux (binomial ranks), a finite-type rank-1
    tableau worked out by hand;
 2) structural invariants on seeded random tableaux: (g^(1))^(1) = g^(2),
    the lower bound dim g^(1) >= n dim g - C(n,2) f, monotone vanishing;
 3) generalized tableaux: ∂-symmetry kernel, transport along an injective ∂
    to the classical prolongation of Image(∂), chain assembly; the
    record's shape refusals, each by its message;
 4) classification (a negative or too deep l_max is refused), bounded vs
    unconditional cohomology windows, degenerate n = 0 / f = 0 towers.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from formalpde.errors import InvariantViolation
from formalpde.ratlin import RatMatrix, Subspace, image
from formalpde.spencer import cohomology, is_r_acyclic
from formalpde.tableau import (
    Tableau,
    classify_type,
    prolong,
    tower,
)
from formalpde.tensorspace import sym_dim

from matrices import full_tower, rref_rank, zeros
from rref_reference import solve


def from_matrices(n, f, mats):
    """Degree-1 classical tableau spanned by Hom(E,F) matrices M[a][i]."""
    vecs = [[Fraction(m[a][i]) for a in range(f) for i in range(n)] for m in mats]
    return Tableau(n=n, f=f, space=Subspace.from_spanning(n * f, vecs))


def cr_tableau():
    return from_matrices(2, 2, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def random_tableau(rng, n=None, f=None):
    n = n or rng.randint(1, 3)
    f = f or rng.randint(1, 3)
    count = rng.randint(1, 3)
    vecs = [[rng.randint(-2, 2) for _ in range(n * f)] for _ in range(count)]
    return Tableau(n=n, f=f, space=Subspace.from_spanning(n * f, vecs))


# --------------------------- 1) pinned examples ---------------------------


def test_cr_tableau_tower_ranks():
    t = cr_tableau()
    assert t.dim == 2
    tw = tower(t, 5)
    assert tw.ranks == (2, 2, 2, 2, 2)  # frozen via the brute-force oracle


def test_free_tableau_ranks_are_binomial():
    for n in (1, 2, 3):
        for f in (1, 2):
            tw = tower(Tableau(n=n, f=f, space=Subspace.full(n * f)), 4)
            assert tw.ranks == tuple(f * comb(n + i, i + 1) for i in range(1, 5))


def test_zero_tableau_tower():
    zero = Tableau(n=2, f=2, space=Subspace.from_spanning(4, []))
    tw = tower(zero, 3)
    assert tw.ranks == (0, 0, 0)
    verdict = classify_type(tower(zero, 2), 2)
    assert verdict.kind == "finite" and verdict.level == 0
    with pytest.raises(ValueError):  # the type is read off levels the tower has
        classify_type(tw, 4)
    with pytest.raises(ValueError, match="l_max must be >= 0"):
        classify_type(tw, -1)


def test_identity_like_tableau_is_finite_type_level_one():
    # g spanned by x1 ⊗ f0 + x2 ⊗ f1: second derivatives are pinned down to 0
    t = from_matrices(2, 2, [[[1, 0], [0, 1]]])
    assert prolong(t).dim == 0
    verdict = classify_type(tower(t, 3), 3)
    assert verdict.kind == "finite" and verdict.level == 1
    assert verdict.ranks == (1, 0, 0, 0)


def test_higher_degree_prolongation_matches_oracle_dims():
    # harmonic symbol: kernel of the row (1, 0, 1) over the S^2 basis
    # (2,0), (1,1), (0,2); tower dims frozen as 2, 2, 2 via the oracle
    space = Subspace.from_spanning(3, [[1, 0, -1], [0, 1, 0]])
    t = Tableau(n=2, f=1, space=space, degree=2)
    tw = tower(t, 3)
    assert t.dim == 2 and tw.ranks == (2, 2, 2)


# --------------------------- 2) structural invariants ---------------------------


def test_prolong_of_prolong_is_second_level():
    # a tower involutive at level 0 holds no level 2, only its closed-form
    # dimension, so level 2 is read there and off the full tower
    rng = random.Random(7)
    for _ in range(25):
        t = random_tableau(rng)
        tw = tower(t, 2)
        as_tableau = Tableau(
            n=t.n, f=t.f, space=tw.levels[1], degree=t.degree + 1
        )
        second = prolong(as_tableau)
        assert second.dim == tw.level_dim(2)
        assert second == full_tower(t, 2).levels[2]


def test_first_prolongation_dimension_lower_bound():
    rng = random.Random(8)
    for _ in range(40):
        t = random_tableau(rng)
        g1 = prolong(t)
        assert g1.dim >= t.n * t.dim - comb(t.n, 2) * t.f


def test_monotone_vanishing():
    rng = random.Random(9)
    seen_vanishing = 0
    for _ in range(40):
        t = random_tableau(rng)
        ranks = tower(t, 4).ranks
        for i, r in enumerate(ranks):
            if r == 0:
                seen_vanishing += 1
                assert all(x == 0 for x in ranks[i:])
                break
    assert seen_vanishing > 0  # the sample actually exercises the branch


def test_tower_rejects_depth_zero():
    with pytest.raises(ValueError):
        tower(cr_tableau(), 0)


# --------------------------- 3) generalized tableaux ---------------------------


def polarization(n, degree, f):
    """ι on the full S^degree ⊗ F: the level-0 ∂ of its chain, rows b*n + i."""
    full = Tableau(n=n, f=f, space=Subspace.full(sym_dim(n, degree) * f), degree=degree)
    return tower(full, 1).partials[0]


def random_injective_partial(rng, n, f, p):
    while True:
        m = RatMatrix([[rng.randint(-2, 2) for _ in range(p)] for _ in range(n * f)])
        if rref_rank(m) == p:
            return m


def test_generalized_prolongation_transport_along_injective_partial():
    rng = random.Random(10)
    for _ in range(15):
        n, f, p = 2, rng.randint(2, 3), 2
        partial = random_injective_partial(rng, n, f, p)
        gen = Tableau.generalized(n, f, Subspace.full(p), partial)
        g1 = prolong(gen)  # inside S^1 ⊗ R^p, flat c*n + i
        w = image(partial)  # inside S^1 ⊗ F, flat b*n + i
        w1 = prolong(Tableau(n=n, f=f, space=w))
        # transport: eta -> the unique xi in S^2 ⊗ F with iota_i xi = ∂(eta_i);
        # polarization row b*n + i reads coordinate b of iota_i xi
        pol = polarization(n, 2, f)
        transported = []
        for eta in g1.basis:
            images = [partial.apply([eta[c * n + i] for c in range(p)]) for i in range(n)]
            targets = [images[i][b] for b in range(n * f) for i in range(n)]
            xi = solve(pol, targets)
            assert xi is not None
            transported.append(xi)
        span = Subspace.from_spanning(sym_dim(n, 2) * f, transported)
        assert span == w1
        assert g1.dim == w1.dim


def test_generalized_tower_and_chain():
    # ∂ with a genuinely non-classical carrier: R^3 mapping into Hom(E, R^2)
    partial = RatMatrix(
        [
            [1, 0, 0],  # b=0, i=0
            [0, 1, 0],  # b=0, i=1
            [0, 0, 1],  # b=1, i=0
            [1, 1, 0],  # b=1, i=1
        ]
    )
    gen = Tableau.generalized(2, 2, Subspace.full(3), partial)
    chain = tower(gen, 3)
    # level 0 is the full carrier R^3, and its ∂ lands in F = R^2
    assert chain.levels[0] == Subspace.full(3) and chain.partials[0] == partial
    assert chain.partials[0].rows == 2 * 2
    report = cohomology(chain, l_max=1, m_max=2)
    for (l, m), e in report.entries.items():
        assert e.h_dim >= 0
    # level 2 is the classical prolongation of level 1 inside S^* ⊗ R^3, of
    # the chain's dimension there and the full tower's level
    second = prolong(Tableau(n=2, f=3, space=chain.levels[1]))
    assert second.dim == chain.level_dim(2)
    assert second == full_tower(gen, 3).levels[2]


def test_generalized_partial_shape_validation():
    with pytest.raises(ValueError, match="partial_map must have n"):
        Tableau.generalized(2, 2, Subspace.full(3), zeros(3, 3))
    with pytest.raises(ValueError, match="partial_map columns must match"):
        Tableau.generalized(2, 2, Subspace.full(3), zeros(4, 2))
    # and the record's other refusals, classical and generalized
    with pytest.raises(ValueError, match="negative dimensions"):
        Tableau(n=-1, f=1, space=Subspace.full(0))
    with pytest.raises(ValueError, match="classical tableaux need degree >= 1"):
        Tableau(n=2, f=1, space=Subspace.full(1), degree=0)
    with pytest.raises(ValueError, match="generalized tableaux carry no symmetric degree"):
        Tableau(n=2, f=2, space=Subspace.full(3), degree=2, partial_map=zeros(4, 3))


# --------------------------- 4) classification and scans ---------------------------


def test_classify_cr_is_infinite_up_to_bound():
    verdict = classify_type(tower(cr_tableau(), 4), 4)
    assert verdict.kind == "infinite-up-to" and verdict.level == 4
    assert verdict.ranks == (2, 2, 2, 2, 2)


def test_cr_cohomology_vanishes_in_the_window_only():
    report = cohomology(tower(cr_tableau(), 4), l_max=3, m_max=2)
    assert set(report.entries) == {(l, m) for l in range(4) for m in (1, 2)}
    assert all(e.h_dim == 0 for e in report.entries.values())
    verdict = is_r_acyclic(report, 2)
    assert verdict.acyclic
    assert not verdict.unconditional  # infinite type within the window: evidence only


def test_finite_type_cohomology_is_unconditional():
    t = from_matrices(2, 2, [[[1, 0], [0, 1]]])
    report = cohomology(tower(t, 3), l_max=2, m_max=2)
    assert report.vanishing_level is not None and report.vanishing_level <= 3
    verdict = is_r_acyclic(report, 1)
    assert verdict.acyclic and verdict.unconditional


def test_degenerate_towers_are_zero_not_errors():
    # full and zero carriers coincide when the ambient is 0-dimensional
    empty = Subspace.from_spanning(0, [])
    for t in (Tableau(n=n, f=f, space=empty) for n, f in ((0, 2), (2, 0), (0, 0))):
        tw = tower(t, 3)
        assert tw.ranks == (0, 0, 0)
        assert classify_type(tower(t, 2), 2).kind == "finite"


def test_polarization_matrix_degree_one_is_reindexed_identity():
    p = polarization(2, 1, 3)
    assert p.shape == (6, 6) and rref_rank(p) == 6
    for a in range(3):
        for i in range(2):
            col = p.col(a * 2 + i)
            assert col[a * 2 + i] == 1 and sum(1 for x in col if x) == 1
