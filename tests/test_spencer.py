"""Spencer differential tests.

Plan:
 1) ambient matrix hand cases pinning the sign/coefficient convention;
 2) delta∘delta = 0 on ambient spaces (small sweep; the full sweep is in the
    acceptance suite);
 3) restricted differentials: the first-order tableau slot map, exact equality
    with the ∂-built map for ∂ = inclusion, escape detection;
 4) chain cohomology on the full (free) tableau: everything vanishes, Euler
    bookkeeping, short-chain and bad-r errors.

Frozen reference values come from tests/oracle_brute.py (independent sympy
implementation): the first-order 2x2 rotation-like tableau has ker dim 2 in
form degree 1, and free towers are acyclic in every slot.
"""

from fractions import Fraction

import pytest

from formalpde.ratlin import RatMatrix, Subspace, kernel
from formalpde.spencer import (
    TableauChain,
    cohomology,
    delta_apply_basis,
    delta_matrix,
    delta_partial_matrix,
    delta_restricted,
    euler_check,
    is_r_acyclic,
)
from formalpde.tensorspace import TensorSpaceDesc, sym_dim


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
                assert (b @ a).is_zero()


# --------------------------- 3) restricted differentials ---------------------------


def cr_tableau_space():
    # eta^1_1 = eta^2_2, eta^1_2 = -eta^2_1 inside S^1 ⊗ R^2 (flat a*2 + i)
    return Subspace.from_spanning(4, [[1, 0, 0, 1], [0, 1, -1, 0]])


def test_delta_hom_on_cr_tableau():
    g = cr_tableau_space()
    full_f = Subspace.full(2)  # S^0 ⊗ R^2
    d = delta_restricted(2, 2, 1, 1, g, full_f)
    assert d.shape == (2, 4)  # Λ² ⊗ F is 1*2-dimensional, Λ¹ ⊗ g is 2*2
    assert kernel(d).dim == 2  # frozen via the brute-force oracle
    assert d.rank() == 2


def test_delta_partial_with_inclusion_equals_restricted():
    g = cr_tableau_space()
    # ∂ = the inclusion g -> S^1 ⊗ F read as Hom(E, F) with rows b*n + i;
    # the subspace ambient flat (a*n + i) is already that row convention.
    incl = RatMatrix(g.basis).transpose()
    left = delta_partial_matrix(incl, 2, 1)
    right = delta_restricted(2, 2, 1, 1, g, Subspace.full(2))
    assert left == right


def test_delta_partial_degree_zero_single_direction_is_partial_itself():
    partial = RatMatrix([[2], [3]])  # G = 1, n = 1, F_b = 2: rows b*1 + 0
    out = delta_partial_matrix(partial, 1, 0)
    assert out == partial


def test_delta_restricted_escape_raises():
    src = Subspace.from_spanning(3, [[1, 0, 0]])  # span{x1^2} in S^2
    tgt = Subspace.from_spanning(2, [[0, 1]])  # span{x2} in S^1
    with pytest.raises(ValueError):
        delta_restricted(2, 1, 2, 0, src, tgt)


# --------------------------- 4) chains ---------------------------


def polarization_matrix(n, degree, f):
    """S^degree ⊗ F -> Hom(E, S^(degree-1) ⊗ F), rows b*n + i."""
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
                    rows[b * n + i][a * sd_src + sr] = Fraction(alpha[i])
    return RatMatrix(rows, cols=sd_src * f)


def full_chain(n, f, depth):
    levels = tuple(Subspace.full(sym_dim(n, 1 + l) * f) for l in range(depth + 1))
    return TableauChain(
        n=n,
        fiber_dim=f,
        degree0=1,
        levels=levels,
        bottom_dim=f,
        bottom_partial=polarization_matrix(n, 1, f),
    )


def test_full_tableau_chain_is_acyclic():
    chain = full_chain(2, 1, 3)
    report = cohomology(chain, l_max=2, m_max=2)
    assert all(e.h_dim == 0 for e in report.entries.values())
    assert report.vanishing_level is None
    verdict = is_r_acyclic(report, 2)
    assert verdict.acyclic and not verdict.unconditional and verdict.bound == 2
    # degree-2 slots are honest: Z and B agree and are nontrivial somewhere
    assert report.entries[(0, 1)].z_dim == report.entries[(0, 1)].b_dim > 0


def test_full_chain_euler_identity():
    chain = full_chain(2, 1, 3)
    for i in range(3):
        lhs, rhs = euler_check(chain, i)
        assert lhs == rhs == 0
    chain3 = full_chain(3, 2, 3)
    for i in range(3):
        lhs, rhs = euler_check(chain3, i)
        assert lhs == rhs


def test_cohomology_requires_levels_through_l_max_plus_one():
    chain = full_chain(2, 1, 1)
    with pytest.raises(ValueError, match="chain too short"):
        cohomology(chain, l_max=1, m_max=1)


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
        fiber_dim=1,
        degree0=1,
        levels=(z1, z2, z3),
        bottom_dim=1,
        bottom_partial=polarization_matrix(2, 1, 1),
    )
    report = cohomology(chain, l_max=1, m_max=2)
    assert report.vanishing_level == 0
    verdict = is_r_acyclic(report, 2)
    assert verdict.acyclic and verdict.unconditional


def test_representatives_span_a_complement():
    chain = full_chain(2, 2, 2)
    report = cohomology(chain, l_max=1, m_max=2, representatives=True)
    for key, reps in report.representatives.items():
        assert len(reps) == report.entries[key].h_dim
