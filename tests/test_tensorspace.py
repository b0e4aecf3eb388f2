"""Basis bookkeeping tests.

Plan:
 1) pinned enumeration orders against an independent comparator implementing
    the graded-reverse-lex definition literally;
 2) flat index <-> triple bijection (hand cases + hypothesis round trip);
 3) the x_i table: contraction hand cases read backwards through it
    (jet components, coefficient 1), the jet walk's shift against a
    second derivation through jet_index, and the jet reads table as the
    inverse of truncation and the shifts;
 4) degenerate degree conventions (S^k = 0 for k < 0, Λ^j = 0 for j > n).
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import product

from hypothesis import given, settings, strategies as st

from formalpde.jetpde import _jet_reads, _jet_shift, jet_coords, jet_fiber_dim, jet_index
from formalpde.tensorspace import (
    delta_insertion,
    ext_dim,
    ext_indices,
    ext_rank,
    multi_indices,
    raise_sym,
    raise_table,
    sym_dim,
    sym_rank,
)

from ambient_reference import TensorSpaceDesc


# reference comparator, straight from the definition: alpha precedes beta in
# grevlex-descending order iff the rightmost nonzero entry of alpha - beta is
# negative (same total degree assumed).
def _grevlex_desc_cmp(a, b):
    diff = [x - y for x, y in zip(a, b)]
    for d in reversed(diff):
        if d:
            return -1 if d < 0 else 1
    return 0


def reference_multi_indices(n, k):
    raw = [t for t in product(range(k + 1), repeat=n) if sum(t) == k]
    return sorted(raw, key=cmp_to_key(_grevlex_desc_cmp))


# --------------------------- 1) enumeration ---------------------------


def test_degree_two_orders():
    assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert multi_indices(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_orders_match_reference_comparator():
    for n in range(1, 5):
        for k in range(0, 5):
            assert list(multi_indices(n, k)) == [
                tuple(t) for t in reference_multi_indices(n, k)
            ]


def test_ext_enumeration_is_lexicographic():
    assert ext_indices(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert ext_indices(4, 0) == ((),)
    for n in range(5):
        for j in range(n + 1):
            seq = ext_indices(n, j)
            assert list(seq) == sorted(seq)
            assert len(seq) == ext_dim(n, j)
            for r, s in enumerate(seq):
                assert ext_rank(n, s) == r


def test_sym_rank_roundtrip():
    for n in range(1, 4):
        for k in range(4):
            for r, a in enumerate(multi_indices(n, k)):
                assert sym_rank(a) == r


# --------------------------- 2) flat index bijection ---------------------------


def test_flat_index_hand_case():
    # middle slot of S^2 in two variables is x1 x2
    d = TensorSpaceDesc(n=2, j=0, k=2, f=1)
    assert d.dim == 3
    assert d.index_of(0, (), (1, 1)) == 1


def test_flat_layout_fiber_slowest():
    d = TensorSpaceDesc(n=2, j=1, k=1, f=2)
    # dim = 2 * C(2,1) * C(2,1) = 8; fiber block stride 4, ext stride 2
    assert d.dim == 8
    assert d.index_of(1, (0,), (0, 1)) == 1 * 4 + 0 * 2 + 1
    assert d.index_of(0, (1,), (1, 0)) == 2


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 4),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(1, 3),
)
def test_index_bijection(n, j, k, f):
    d = TensorSpaceDesc(n, j, k, f)
    seen = []
    for a, s, alpha in d.basis():
        idx = d.index_of(a, s, alpha)
        seen.append(idx)
    assert seen == list(range(d.dim))


# --------------------------- 3) contraction ---------------------------


def contract(table, i, eta):
    """ι_i eta read backwards through the x_i table: coordinate c of the
    result is eta at c raised by x_i, with coefficient 1."""
    return [eta[up] for up in table[i]]


def test_contraction_jet_component_convention():
    # jet component u_(1,1) is x1 x2: its derivative along e1 is x2, along e2 x1
    d = TensorSpaceDesc(2, 0, 2, 1)
    target = TensorSpaceDesc(2, 0, 1, 1)
    table = raise_table(2, 1, 1)
    src = d.index_of(0, (), (1, 1))
    assert table[0][target.index_of(0, (), (0, 1))] == src
    assert table[1][target.index_of(0, (), (1, 0))] == src
    # u_(2,0) is x1^2 / 2: ι_1 reads it at (1,0) with coefficient 1 (not 2),
    # and ι_2 not at all, as no x_2 raise lands on (2,0)
    sq = d.index_of(0, (), (2, 0))
    assert table[0][target.index_of(0, (), (1, 0))] == sq
    assert sq not in table[1]
    eta = [Fraction(0)] * d.dim
    eta[sq], eta[src] = Fraction(3), Fraction(5)  # 3 x1^2 / 2 + 5 x1 x2
    assert contract(table, 0, eta) == [3, 5]
    assert contract(table, 1, eta) == [5, 0]
    # each entry is the raised index alone: no factor rides along
    assert all(type(up) is int for entries in table for up in entries)


def test_contraction_degree_one_is_permutation_identity():
    # S^0 -> S^1 with two fiber slots: x_i sends fiber a to its x_i slot, so
    # iota_i picks the x_i component of each
    table = raise_table(2, 0, 2)
    assert table[0] == (0, 2)
    assert table[1] == (1, 3)
    hits = [(c, i, up) for i, entries in enumerate(table) for c, up in enumerate(entries)]
    # every raised coordinate has one preimage, every (source, direction) one image
    assert sorted(up for _, _, up in hits) == [0, 1, 2, 3]
    assert len({(c, i) for c, i, _ in hits}) == 4


def test_jet_shift_matches_jet_index_of_the_raised_coordinate():
    # a second derivation of the walk's shift, coordinate by coordinate
    for n, m, k in product(range(1, 5), range(1, 4), range(0, 5)):
        want = tuple(
            tuple(jet_index(n, m, k + 1, a, raise_sym(alpha, i)) for a, alpha in jet_coords(n, m, k))
            for i in range(n)
        )
        assert _jet_shift(n, m, k) == want, (n, m, k)


def test_jet_reads_list_the_truncation_and_every_shift_into_each_coordinate():
    # each order-(k+1) coordinate lists every (block, source) landing on it
    for n, m, k in product(range(1, 4), range(1, 3), range(0, 4)):
        low, shift, reads = jet_fiber_dim(n, m, k), _jet_shift(n, m, k), _jet_reads(n, m, k)
        assert len(reads) == jet_fiber_dim(n, m, k + 1), (n, m, k)
        for t, got in enumerate(reads):
            want = {(0, t)} if t < low else set()
            want |= {(1 + i, c) for i in range(n) for c in range(low) if shift[i][c] == t}
            assert set(got) == want, (n, m, k, t)


def test_contract_and_raise_sym():
    # ι_1 reads u_(2,0) at (1,0) with coefficient 1: x1 raised by x1 is x1^2;
    # no x1 raise lands on x2^3, so its e1 contraction is zero
    assert raise_table(2, 1, 1)[0][sym_rank((1, 0))] == sym_rank((2, 0))
    assert sym_rank((0, 3)) not in raise_table(2, 2, 1)[0]
    assert raise_sym((1, 0), 1) == (1, 1)


def test_delta_insertion_signs():
    assert delta_insertion((), 1) == (1, (1,))
    assert delta_insertion((0,), 1) == (-1, (0, 1))
    assert delta_insertion((1,), 0) == (1, (0, 1))
    assert delta_insertion((0, 2), 1) == (-1, (0, 1, 2))
    assert delta_insertion((0, 1), 1) is None


# --------------------------- 4) degenerate conventions ---------------------------


def test_degenerate_dims():
    assert sym_dim(3, -1) == 0
    assert sym_dim(0, 0) == 1
    assert sym_dim(0, 2) == 0
    assert ext_dim(2, 3) == 0
    assert TensorSpaceDesc(2, 3, 1, 5).dim == 0
    assert TensorSpaceDesc(2, 1, -1, 5).dim == 0
    assert multi_indices(2, -1) == ()
    assert multi_indices(0, 0) == ((),)
    assert ext_indices(2, 5) == ()
