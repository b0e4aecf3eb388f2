"""Coordinates for the spaces S^k E* ⊗ F and Λ^j E*.

Fixed basis orderings (every matrix in the package is written against these):

* symmetric multi-indices of one degree: graded reverse lexicographic,
  DESCENDING -- equivalently, ascending lexicographic order of the reversed
  exponent tuple.  For n = 2, k = 2: (2,0), (1,1), (0,2).  For n = 3, k = 2:
  x1^2, x1x2, x2^2, x1x3, x2x3, x3^2.
* exterior indices: strictly increasing tuples of 0-based directions, in
  ascending lexicographic order.
* the flat index of (fiber a, symmetric alpha) in S^k ⊗ F is
  a * sym_dim(n,k) + sym_rank(alpha): fiber slowest.

Degenerate degrees follow the usual conventions: S^k = 0 for k < 0 and
Λ^j = 0 for j > n or j < 0, so the corresponding dimensions are 0.
`binomial_past` sizes such spaces against a limit without computing a
binomial of a huge argument; every size budget of the package reads it.

A symmetric tensor's coordinates are jet components: coordinate alpha of
w in S^k ⊗ F is u_alpha, the alpha-th derivative of the polynomial
sum_alpha u_alpha x^alpha / alpha! (the divided-power coordinates, alpha!
times the monomial coefficient).  The action of x_i raises alpha to
alpha + e_i; read backwards it is the contraction (directional derivative)
ι_i, (ι_i w)_beta = w_(beta+e_i), with coefficient 1.  This module owns that
one map as a cached table, `raise_table`: the jet walk's total derivatives
shift along it, and the symbol prolongation and the tower verification
contract along it, and so does every level's ∂ that the Spencer
differentials use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

ExtIndex = tuple[int, ...]
MultiIndex = tuple[int, ...]

# --------------------------- enumeration ---------------------------


def sym_dim(n: int, k: int) -> int:
    """dim S^k(E*) for dim E = n."""
    if k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


def ext_dim(n: int, j: int) -> int:
    """dim Λ^j(E*)."""
    if j < 0 or j > n:
        return 0
    return comb(n, j)


def binomial_past(scale: int, a: int, b: int, cap: int) -> str | None:
    """None if scale·C(a + b, a) <= cap, else that size as a phrase.

    The product is built one factor at a time and stops once past cap
    ('more than S'), so a size limit on huge a or b costs a few steps where
    `math.comb` would not (scale >= 1; a negative a or b leaves scale)."""
    size = scale
    for i in range(1, min(a, b) + 1):
        if size > cap:
            return f"more than {size}"
        size = size * (max(a, b) + i) // i
    return f"{size}" if size > cap else None


@lru_cache
def multi_indices(n: int, k: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of total degree k, in the canonical order: each
    pick of k directions counted per direction, sorted by the reversed tuple."""
    if k < 0:
        return ()
    counts = (tuple(map(c.count, range(n))) for c in combinations_with_replacement(range(n), k))
    return tuple(sorted(counts, key=lambda a: a[::-1]))


@lru_cache
def _sym_rank_table(n: int, k: int) -> dict[MultiIndex, int]:
    return {a: i for i, a in enumerate(multi_indices(n, k))}


def sym_rank(alpha: MultiIndex) -> int:
    return _sym_rank_table(len(alpha), sum(alpha))[tuple(alpha)]


@lru_cache
def ext_indices(n: int, j: int) -> tuple[ExtIndex, ...]:
    if j < 0 or j > n:
        return ()
    return tuple(combinations(range(n), j))


@lru_cache
def _ext_rank_table(n: int, j: int) -> dict[ExtIndex, int]:
    return {s: i for i, s in enumerate(ext_indices(n, j))}


def ext_rank(n: int, s: ExtIndex) -> int:
    return _ext_rank_table(n, len(s))[tuple(s)]


# --------------------------- elementary actions ---------------------------


def raise_sym(alpha: MultiIndex, i: int) -> MultiIndex:
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]


@lru_cache
def raise_table(n: int, d: int, f: int) -> tuple[tuple[int, ...], ...]:
    """x_i : S^d ⊗ F -> S^(d+1) ⊗ F for every direction i, as raised indices.

    table[i][a * sym_dim(n, d) + sym_rank(alpha)] is
    a * sym_dim(n, d+1) + sym_rank(alpha + e_i): each source coordinate has
    exactly one image per direction.  Coordinate c of ι_i w, for w in
    S^(d+1) ⊗ F, is w at table[i][c], with coefficient 1.
    """
    sd_up = sym_dim(n, d + 1)
    return tuple(
        tuple(a * sd_up + sym_rank(raise_sym(al, i)) for a in range(f) for al in multi_indices(n, d))
        for i in range(n)
    )


def delta_insertion(s: ExtIndex, i: int) -> tuple[int, ExtIndex] | None:
    """Insert direction i into the exterior slot with the differential's sign.

    Sign is (-1)^(number of members of s smaller than i), which equals
    (-1)^|s| times the plain wedge sign of e_s ∧ e_i.  Returns None when
    i already occurs.
    """
    if i in s:
        return None
    below = sum(1 for x in s if x < i)
    merged = tuple(sorted(s + (i,)))
    return (-1) ** below, merged

