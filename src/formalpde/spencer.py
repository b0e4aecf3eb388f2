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
differential is assembled from `delta_apply_basis`.  Every restricted
differential is assembled once, by `_slot_matrix`, from a degree-lowering map
∂ : V -> Hom(E, W) given in basis coordinates (rows b*n + i, one column per
V basis vector); delta(omega ⊗ v) = (-1)^|omega| omega ∧ ∂(v).

Coordinates:
* ambient matrices (`delta_matrix`) use TensorSpaceDesc flat indices
  (fiber slowest, exterior middle, symmetric fastest);
* restricted matrices on Λ^m ⊗ W for a space W with w basis vectors use
  slot coordinates ext_rank * w + c (exterior slowest over the W basis).

A `TableauChain` is its levels W_0, W_1, ... plus one ∂ per level:
partials[l] maps level l into level l-1, and partials[0] maps W_0 into the
space one step below it (the full S^(d-1) ⊗ F under ι for a classical
tableau, the tableau's own ∂ for a generalized one).  So one cohomology
routine serves both, and the map out of every slot is the one assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, image, kernel
from .tensorspace import (
    TensorSpaceDesc,
    contract_sym,
    delta_insertion,
    ext_dim,
    ext_indices,
    ext_rank,
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


def _slot_matrix(n: int, m: int, partial: RatMatrix) -> RatMatrix:
    """Slot map Λ^m ⊗ V -> Λ^(m+1) ⊗ W of ∂ : V -> Hom(E, W), rows b*n + i.

    Column e * dim V + c is e_S ⊗ v_c; each direction i not in S sends it to
    the insertion sign times e_(S ∪ i) ⊗ ∂(v_c)(e_i).
    """
    src_ext = ext_indices(n, m)
    nsrc = partial.cols
    w = partial.rows // n if n else 0
    # each ∂ row's nonzero (column, value) pairs, read once per assembly
    prows = [
        [(c, x) for c, x in enumerate(partial.row(r)) if x] for r in range(partial.rows)
    ]
    rows = [[_ZERO] * (len(src_ext) * nsrc) for _ in range(ext_dim(n, m + 1) * w)]
    for e, s in enumerate(src_ext):
        for i in range(n):
            ins = delta_insertion(s, i)
            if ins is None:
                continue
            sign, merged = ins
            base = ext_rank(n, merged) * w
            offset = e * nsrc
            for b in range(w):
                out = rows[base + b]
                for c, x in prows[b * n + i]:
                    out[offset + c] += sign * x
    return RatMatrix(rows, cols=len(src_ext) * nsrc)


def delta_partial_matrix(partial: RatMatrix, n: int, j: int) -> RatMatrix:
    """delta_∂: Λ^j ⊗ R^G -> Λ^(j+1) ⊗ F_b built from a degree-lowering map ∂.

    ∂ is given as a matrix R^G -> Hom(E, R^(F_b)) with row convention b*n + i.
    """
    if partial.rows % n != 0:
        raise ValueError("partial map rows must be a multiple of n")
    return _slot_matrix(n, j, partial)


# --------------------------- chains and cohomology ---------------------------


@dataclass(frozen=True)
class TableauChain:
    """Levels W_0, W_1, ... with one degree-lowering map per level.

    partials[l] is ∂ on level l in basis coordinates: rows b*n + i over the
    basis of level l-1 (for l = 0, of the space one step below W_0), one
    column per basis vector of level l.
    """

    n: int
    levels: tuple[Subspace, ...]
    partials: tuple[RatMatrix, ...]

    def __post_init__(self):
        if len(self.partials) != len(self.levels):
            raise ValueError("need one partial map per level")
        for l, (lev, partial) in enumerate(zip(self.levels, self.partials)):
            if partial.cols != lev.dim:
                raise ValueError(f"partial map {l} must consume the level-{l} basis")
            if l and partial.rows != self.n * self.levels[l - 1].dim:
                raise ValueError(f"partial map {l} must land in level {l - 1}")

    def slot_dim(self, l: int, m: int) -> int:
        return ext_dim(self.n, m) * self.levels[l].dim

    def map_out(self, l: int, m: int) -> RatMatrix:
        """The differential leaving slot (l, m), into slot (l-1, m+1)."""
        if l < 0:
            raise ValueError("no outgoing map below the bottom")
        if l >= len(self.levels):
            raise ValueError("chain too short: level not present")
        return _slot_matrix(self.n, m, self.partials[l])

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

