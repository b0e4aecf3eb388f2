"""The ambient Spencer differential on Λ^j E* ⊗ S^k E* ⊗ F, a test oracle.

The package assembles every differential from a tableau level's ∂ in basis
coordinates (``spencer._slot_matrix``).  The tests check those maps against
this one, written on the whole ambient space in flat coordinates: fiber
slowest, exterior in the middle, symmetric fastest, so the flat index of
(fiber a, exterior S, symmetric alpha) is
(a * C(n,j) + ext_rank(S)) * sym_dim(n,k) + sym_rank(alpha).  The sign
convention is the one in the ``spencer`` module docstring, written here in
monomial coefficients c_alpha, where the package writes jet components
u_alpha = alpha! c_alpha.

It owns the conventions it checks: the monomial contraction and the
insertion sign are derived here, from that docstring, and only the
enumeration and index functions come from the package.
"""

from dataclasses import dataclass
from fractions import Fraction

from formalpde.ratlin import RatMatrix
from formalpde.tensorspace import (
    ext_dim,
    ext_indices,
    ext_rank,
    multi_indices,
    sym_dim,
    sym_rank,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TensorSpaceDesc:
    """Λ^j E* ⊗ S^k E* ⊗ F with dim E = n, dim F = f."""

    n: int
    j: int
    k: int
    f: int

    @property
    def dim(self) -> int:
        return self.f * ext_dim(self.n, self.j) * sym_dim(self.n, self.k)

    def index_of(self, a: int, s, alpha) -> int:
        """Flat index of basis element (fiber a, exterior s, symmetric alpha)."""
        if not (0 <= a < self.f):
            raise ValueError("fiber index out of range")
        if len(s) != self.j or len(alpha) != self.n or sum(alpha) != self.k:
            raise ValueError("basis element of another space")
        er, sr = ext_rank(self.n, s), sym_rank(alpha)
        return (a * ext_dim(self.n, self.j) + er) * sym_dim(self.n, self.k) + sr

    def basis(self):
        """Triples (a, s, alpha) in flat order."""
        for a in range(self.f):
            for s in ext_indices(self.n, self.j):
                for alpha in multi_indices(self.n, self.k):
                    yield a, s, alpha


def contract(alpha, i):
    """ι_i x^alpha = alpha_i x^(alpha - e_i), monomial (not divided-power)
    coefficients: (alpha_i, alpha - e_i), or None when alpha_i = 0."""
    if not alpha[i]:
        return None
    return alpha[i], tuple(x - (j == i) for j, x in enumerate(alpha))


def insert(s, i):
    """omega ∧ e_i for omega = e_s, times (-1)^|s|: (sign, sorted slot), or
    None when i occurs in s.  e_i moves left past every member of s above it,
    one transposition each."""
    if i in s:
        return None
    above = sum(1 for x in s if x > i)
    return (-1) ** (len(s) + above), tuple(sorted(s + (i,)))


def delta_apply_basis(n: int, j: int, k: int, a: int, s, alpha) -> dict:
    """delta on one basis element, as a sparse {(a, ext, sym): coeff} map:
    delta(omega ⊗ v) = (-1)^|omega| omega ∧ delta(v)."""
    out: dict = {}
    for i in range(n):
        ins = insert(s, i)
        hit = contract(alpha, i)
        if ins is None or hit is None:
            continue
        sign, merged = ins
        coeff, beta = hit
        key = (a, merged, beta)
        out[key] = out.get(key, _ZERO) + sign * coeff
    return {key: v for key, v in out.items() if v}


def delta_matrix(n: int, j: int, k: int, f: int) -> RatMatrix:
    """Ambient Spencer differential Λ^j ⊗ S^k ⊗ F -> Λ^(j+1) ⊗ S^(k-1) ⊗ F."""
    src = TensorSpaceDesc(n, j, k, f)
    tgt = TensorSpaceDesc(n, j + 1, k - 1, f)
    rows = [[_ZERO] * src.dim for _ in range(tgt.dim)]
    for c, (a, s, alpha) in enumerate(src.basis()):
        for key, coeff in delta_apply_basis(n, j, k, a, s, alpha).items():
            rows[tgt.index_of(*key)][c] = coeff
    return RatMatrix(rows, cols=src.dim)
