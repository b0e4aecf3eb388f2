"""Spencer differentials and tableau cohomology.

Sign convention (used uniformly): on a basis element e_S ⊗ x^alpha ⊗ f_a,

    delta(e_S ⊗ x^alpha ⊗ f_a)
        = sum over i not in S of
          (-1)^(#{s in S : s < i}) * alpha_i * (e_{S ∪ i} ⊗ x^(alpha - e_i) ⊗ f_a),

i.e. delta(omega ⊗ v) = (-1)^|omega| omega ∧ delta(v) with monomial (not
divided-power) contraction coefficients.  delta ∘ delta = 0 because symmetric
second contractions meet antisymmetric double insertions.  (The equivalent
Hom-form convention delta(eta)(X, Y) = eta(X)(Y) - eta(Y)(X) differs from this
one by a global sign in form degree 1; kernels, images and dimensions agree.)

The contraction alpha_i x^(alpha - e_i) comes from `tensorspace`: the ambient
differential is assembled from `delta_apply_basis`, the restricted ones apply
the rows of `iota_table` to basis vectors; both write the rows of the matrix.

Coordinates:
* ambient matrices (`delta_matrix`) use TensorSpaceDesc flat indices
  (fiber slowest, exterior middle, symmetric fastest);
* restricted matrices on Λ^m ⊗ W for a subspace W with w basis vectors use
  slot coordinates ext_rank * w + c (exterior slowest over the W basis).

A `TableauChain` packages a prolongation tower W_0, W_1, ... (W_l inside
S^(degree0+l) ⊗ Φ) together with the space one step below W_0 and the
degree-lowering map into it, so one cohomology routine serves both classical
towers (bottom = full S^(degree0-1) ⊗ Φ, map = polarization) and generalized
ones (bottom = an abstract coefficient space, map = the tableau's ∂).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, image, kernel
from .tensorspace import (
    TensorSpaceDesc,
    contract_sym,
    delta_insertion,
    ext_dim,
    ext_indices,
    ext_rank,
    iota_apply,
    iota_table,
    sym_dim,
)

_ZERO = Fraction(0)


# --------------------------- ambient differential ---------------------------


def delta_apply_basis(
    n: int, j: int, k: int, a: int, s: tuple[int, ...], alpha: tuple[int, ...]
) -> dict[tuple[int, tuple[int, ...], tuple[int, ...]], Fraction]:
    """delta on one basis element, as a sparse {(a, ext, sym): coeff} map."""
    out: dict = {}
    for i in range(n):
        ins = delta_insertion(s, i)
        hit = contract_sym(alpha, i)
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


# --------------------------- restricted differentials ---------------------------


def _slot_matrix(
    n: int,
    m: int,
    src_vecs: Sequence[tuple[Fraction, ...]],
    act: Callable[[int, tuple[Fraction, ...]], Sequence[Fraction]],
    tgt_coords: Callable[[Sequence[Fraction]], tuple[Fraction, ...]],
    tgt_basis_dim: int,
) -> RatMatrix:
    """Generic insertion-sign slot matrix Λ^m ⊗ V -> Λ^(m+1) ⊗ W.

    act(i, v) applies the direction-i degree-lowering action to a V basis
    vector, in W's ambient fiber coordinates; tgt_coords converts that to
    coordinates in W's basis (identity for full W).  Slot coordinates are
    ext-major on both sides.
    """
    src_ext = ext_indices(n, m)
    w = tgt_basis_dim
    nsrc = len(src_vecs)
    rows = [[_ZERO] * (len(src_ext) * nsrc) for _ in range(ext_dim(n, m + 1) * w)]
    acted: dict[tuple[int, int], tuple[Fraction, ...] | None] = {}

    def act_coords(c: int, i: int):
        key = (c, i)
        if key not in acted:
            img = act(i, src_vecs[c])
            if not any(img):
                acted[key] = None
            else:
                acted[key] = tgt_coords(img)
        return acted[key]

    for e, s in enumerate(src_ext):
        for c in range(nsrc):
            col = e * nsrc + c
            for i in range(n):
                ins = delta_insertion(s, i)
                if ins is None:
                    continue
                sign, merged = ins
                coords = act_coords(c, i)
                if coords is None:
                    continue
                base = ext_rank(n, merged) * w
                for r, x in enumerate(coords):
                    if x:
                        rows[base + r][col] += sign * x
    return RatMatrix(rows, cols=len(src_ext) * nsrc)


def _partial_action(partial: RatMatrix, n: int):
    """Direction-wise application of a Hom(E, F_b)-valued map, rows b*n + i."""
    fb = partial.rows // n

    def act(i: int, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        out = [_ZERO] * fb
        for c, x in enumerate(v):
            if not x:
                continue
            for b in range(fb):
                coeff = partial[b * n + i, c]
                if coeff:
                    out[b] += coeff * x
        return tuple(out)

    return act


def delta_restricted(
    n: int, f: int, k: int, m: int, src: Subspace, tgt: Subspace
) -> RatMatrix:
    """Spencer differential Λ^m ⊗ src -> Λ^(m+1) ⊗ tgt in slot coordinates.

    src must sit in S^k ⊗ F and tgt in S^(k-1) ⊗ F; raises ValueError when the
    image of some basis element escapes tgt (the chain is then inconsistent).
    """
    if src.ambient_dim != sym_dim(n, k) * f:
        raise ValueError("src does not sit in S^k ⊗ F")
    if tgt.ambient_dim != sym_dim(n, k - 1) * f:
        raise ValueError("tgt does not sit in S^(k-1) ⊗ F")

    def coords(vec):
        c = tgt.coords_of(vec)
        if c is None:
            raise ValueError(
                "image of the restricted differential escapes the target level"
            )
        return c

    table = iota_table(n, k, f)
    return _slot_matrix(
        n, m, src.basis, lambda i, v: iota_apply(table[i], v, tgt.ambient_dim),
        coords, tgt.dim,
    )


def delta_partial_matrix(partial: RatMatrix, n: int, j: int) -> RatMatrix:
    """delta_∂: Λ^j ⊗ R^G -> Λ^(j+1) ⊗ F_b built from a degree-lowering map ∂.

    ∂ is given as a matrix R^G -> Hom(E, R^(F_b)) with row convention b*n + i;
    the slot map is delta_∂(omega ⊗ v) = (-1)^|omega| omega ∧ ∂(v), assembled
    with the same insertion signs as the symmetric case.
    """
    if partial.rows % n != 0:
        raise ValueError("partial map rows must be a multiple of n")
    basis = Subspace.full(partial.cols).basis
    fb = partial.rows // n
    return _slot_matrix(n, j, basis, _partial_action(partial, n), lambda v: v, fb)


# --------------------------- chains and cohomology ---------------------------


@dataclass(frozen=True)
class TableauChain:
    """A prolongation tower with its one-step-below space and map.

    levels[l] is a subspace of S^(degree0 + l) ⊗ Φ (Φ of dimension fiber_dim);
    bottom_partial maps the full level-0 ambient into Hom(E, R^bottom_dim)
    with row convention b*n + i.  Level -1 means the full bottom space.
    """

    n: int
    fiber_dim: int
    degree0: int
    levels: tuple[Subspace, ...]
    bottom_dim: int
    bottom_partial: RatMatrix

    def __post_init__(self):
        for l, lev in enumerate(self.levels):
            want = sym_dim(self.n, self.degree0 + l) * self.fiber_dim
            if lev.ambient_dim != want:
                raise ValueError(f"level {l} has ambient {lev.ambient_dim}, want {want}")
        if self.n and self.bottom_partial.rows != self.n * self.bottom_dim:
            raise ValueError("bottom_partial rows must equal n * bottom_dim")
        if self.bottom_partial.cols != sym_dim(self.n, self.degree0) * self.fiber_dim:
            raise ValueError("bottom_partial must consume the level-0 ambient")

    def level_dim(self, l: int) -> int:
        if l == -1:
            return self.bottom_dim
        return self.levels[l].dim

    def slot_dim(self, l: int, m: int) -> int:
        return ext_dim(self.n, m) * self.level_dim(l)

    def map_out(self, l: int, m: int) -> RatMatrix:
        """The differential leaving slot (l, m), into slot (l-1, m+1)."""
        if l < 0:
            raise ValueError("no outgoing map below the bottom")
        if l >= len(self.levels):
            raise ValueError("chain too short: level not present")
        src = self.levels[l]
        if l >= 1:
            return delta_restricted(
                self.n, self.fiber_dim, self.degree0 + l, m, src, self.levels[l - 1]
            )
        act = _partial_action(self.bottom_partial, self.n)
        return _slot_matrix(self.n, m, src.basis, act, lambda v: v, self.bottom_dim)

    def vanishing_level(self) -> int | None:
        """Smallest l with levels[l] = 0, if any (zero levels must persist)."""
        found = None
        for l, lev in enumerate(self.levels):
            if lev.dim == 0:
                found = l
                break
        if found is not None:
            for l in range(found + 1, len(self.levels)):
                if self.levels[l].dim != 0:
                    raise InvariantViolation(
                        "a vanished tableau level was followed by a nonzero one"
                    )
        return found


@dataclass(frozen=True)
class HEntry:
    z_dim: int
    b_dim: int
    h_dim: int


@dataclass(frozen=True)
class AcyclicityVerdict:
    """Outcome of an r-acyclicity question on a bounded chain.

    ``unconditional`` is True when the answer holds for every level: either a
    finite-level failure was exhibited, or the tower vanished inside the chain
    so all higher slots are zero.  Otherwise the verdict is only certified for
    levels up to ``bound``.
    """

    r: int
    acyclic: bool
    unconditional: bool
    bound: int
    failure: tuple[int, int] | None


@dataclass(frozen=True)
class CohomologyReport:
    n: int
    l_max: int
    m_max: int
    entries: dict[tuple[int, int], HEntry]
    vanishing_level: int | None
    representatives: dict[tuple[int, int], tuple[tuple[Fraction, ...], ...]] | None = field(
        default=None, compare=False
    )


def cohomology(
    chain: TableauChain, l_max: int, m_max: int, representatives: bool = False
) -> CohomologyReport:
    """Spencer cohomology dimensions H^(l,m) for 0 <= l <= l_max, 1 <= m <= m_max.

    Needs the chain to carry levels through l_max + 1 (the incoming map of the
    slot (l_max, m) starts there); raises ValueError("chain too short ...")
    otherwise rather than prolonging silently.
    """
    if l_max < 0 or m_max < 1:
        raise ValueError("need l_max >= 0 and m_max >= 1")
    if len(chain.levels) < l_max + 2:
        raise ValueError(
            f"chain too short: need levels through {l_max + 1}, have {len(chain.levels) - 1}"
        )
    outs: dict[tuple[int, int], RatMatrix] = {}

    def out(l, m):
        if (l, m) not in outs:
            outs[(l, m)] = chain.map_out(l, m)
        return outs[(l, m)]

    entries: dict[tuple[int, int], HEntry] = {}
    reps: dict[tuple[int, int], tuple] = {}
    for l in range(l_max + 1):
        for m in range(1, m_max + 1):
            if chain.slot_dim(l, m) == 0:
                entries[(l, m)] = HEntry(0, 0, 0)
                if representatives:
                    reps[(l, m)] = ()
                continue
            z = kernel(out(l, m))
            b = image(out(l + 1, m - 1))
            if not z.contains(b):
                raise InvariantViolation(
                    f"image is not contained in the kernel at slot ({l}, {m})"
                )
            entries[(l, m)] = HEntry(z.dim, b.dim, z.dim - b.dim)
            if representatives:
                reduced = [b.reduce_mod(v) for v in z.basis]
                reps[(l, m)] = Subspace.from_spanning(z.ambient_dim, reduced).basis
    return CohomologyReport(
        n=chain.n,
        l_max=l_max,
        m_max=m_max,
        entries=entries,
        vanishing_level=chain.vanishing_level(),
        representatives=reps if representatives else None,
    )


def is_r_acyclic(report: CohomologyReport, r: int) -> AcyclicityVerdict:
    """Decide r-acyclicity (H^(l,m) = 0 for all l and 1 <= m <= r) from a report."""
    if r < 1 or r > report.m_max:
        raise ValueError("r must satisfy 1 <= r <= m_max of the report")
    for l in range(report.l_max + 1):
        for m in range(1, r + 1):
            if report.entries[(l, m)].h_dim != 0:
                return AcyclicityVerdict(
                    r=r,
                    acyclic=False,
                    unconditional=True,
                    bound=report.l_max,
                    failure=(l, m),
                )
    unconditional = (
        report.vanishing_level is not None and report.vanishing_level <= report.l_max + 1
    )
    return AcyclicityVerdict(
        r=r, acyclic=True, unconditional=unconditional, bound=report.l_max, failure=None
    )


def euler_check(chain: TableauChain, i: int) -> tuple[int, int]:
    """Both sides of the Euler identity on the weight-i anti-diagonal complex.

    The complex is W_i -> Λ^1 ⊗ W_(i-1) -> ... truncated at exterior degree n
    or at the bottom space; returns (alternating sum of slot dims, alternating
    sum of cohomology dims of the truncated complex).  The two agree for any
    finite complex; a mismatch means the slot maps are inconsistent.
    """
    if i < 0 or i >= len(chain.levels):
        raise ValueError("anti-diagonal weight outside the chain")
    jmax = min(chain.n, i + 1)
    slots = [(i - j, j) for j in range(jmax + 1)]
    dims = [chain.slot_dim(l, m) for l, m in slots]
    ranks = []
    for idx, (l, m) in enumerate(slots):
        if idx == len(slots) - 1 or dims[idx] == 0:
            ranks.append(0)
        else:
            ranks.append(chain.map_out(l, m).rank())
    lhs = sum((-1) ** j * d for j, d in enumerate(dims))
    rhs = 0
    for j, d in enumerate(dims):
        z = d - ranks[j]
        b = ranks[j - 1] if j > 0 else 0
        rhs += (-1) ** j * (z - b)
    return lhs, rhs
