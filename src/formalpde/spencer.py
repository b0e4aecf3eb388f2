"""Spencer differentials and tableau cohomology.

Sign convention (used uniformly): on e_S ⊗ ε_alpha ⊗ f_a, ε_alpha = x^alpha/alpha!,

    delta(e_S ⊗ ε_alpha ⊗ f_a)
        = sum over i not in S with alpha_i > 0 of
          (-1)^(#{s in S : s < i}) * (e_{S ∪ i} ⊗ ε_(alpha - e_i) ⊗ f_a),

i.e. delta(omega ⊗ v) = (-1)^|omega| omega ∧ delta(v), in the jet components of
`tensorspace`: δ shifts with coefficient 1.  delta ∘ delta = 0 because symmetric
second contractions meet antisymmetric double insertions.  (The equivalent
Hom-form convention delta(eta)(X, Y) = eta(X)(Y) - eta(Y)(X) differs from this
one by a global sign in form degree 1; kernels, images and dimensions agree.)

Every differential is assembled once, by `_slot_matrix`, from a
degree-lowering map ∂ : V -> Hom(E, W) given in basis coordinates (rows
b*n + i, one column per V basis vector); delta(omega ⊗ v) =
(-1)^|omega| omega ∧ ∂(v).  Its matrix on Λ^m ⊗ V uses slot coordinates
ext_rank * dim V + c (exterior slowest over the V basis).

A `TableauChain`, as `tableau.tower` builds it, is its levels W_0, W_1, ...
plus one ∂ per level: partials[l] maps level l into level l-1, and
partials[0] maps W_0 into the space one step below it (the full
S^(d-1) ⊗ F under ι for a classical tableau, the tableau's own ∂ for a
generalized one), each kept as ∂·D over the scaled basis d_j·b_j of its
level: integers wherever `tower` computed it.  So one cohomology routine
serves both, and the map out of every slot is the one assembly.

Cohomology needs only dimensions, so it is read off ranks of the maps
assembled from ∂·D as it is, since a column scaling keeps ranks: im ⊂ ker is
checked exactly as δ∘δ = 0 on them, D⁻¹ put back between them as one
integer row scaling, and each map is ranked once by `ratlin.rank`, `kernel`'s
integer insertion with no back-substitution; on integers, no Fraction.
A window holds its size budget: no slot the maps it assembles meet may
pass MAX_SPENCER_SLOT, read off the chain's exact dimensions before assembly.
A window reads each level's and each slot's dimension once, when the budget
or a fill first needs it.
At and above a chain's involutive level every Spencer group is zero
(Serre), so those slots are filled with no slot map, rank or δ∘δ check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import cycle
from math import comb, lcm
from typing import NamedTuple

from .errors import InvariantViolation
from .ratlin import RatMatrix, Subspace, rank
from .tensorspace import delta_insertion, ext_dim, ext_indices, ext_rank


# --------------------------- differentials ---------------------------


def _slot_matrix(n: int, m: int, partial: RatMatrix) -> RatMatrix:
    """Slot map Λ^m ⊗ V -> Λ^(m+1) ⊗ W of ∂ : V -> Hom(E, W), rows b*n + i.

    Column e * dim V + c is e_S ⊗ v_c; each direction i not in S sends it to
    the insertion sign times e_(S ∪ i) ⊗ ∂(v_c)(e_i).  Each entry is written
    at most once (e fixes S, and the merged slot then fixes i), with a
    nonzero value, so each row is ∂'s signed pairs appended block by block,
    in ascending e and so in ascending column order.
    """
    src_ext = ext_indices(n, m)
    nsrc = partial.cols
    w = partial.rows // n if n else 0
    rows = [[] for _ in range(ext_dim(n, m + 1) * w)]
    for e, s in enumerate(src_ext):
        for i in range(n):
            ins = delta_insertion(s, i)
            if ins is None:
                continue
            sign, merged = ins
            base = ext_rank(n, merged) * w
            offset = e * nsrc
            for b in range(w):
                rows[base + b] += [(offset + c, sign * x) for c, x in partial.pairs[b * n + i]]
    return RatMatrix(pairs=rows, cols=len(src_ext) * nsrc)


# --------------------------- chains and cohomology ---------------------------


# Widest Spencer slot, in coordinates, a cohomology window may assemble.  Its
# maps are stored as pairs, so cost grows about as N: u_xixi = 0 for all i
# under `cohomology --l-max 1` meets N = 1225 in seven variables in 0.04 s,
# 4900 in eight in 0.12 s and 24 MB, and 15876 in nine in 0.42 s and 42 MB
# (window only, budget lifted, Python 3.11.7, shared 2-vCPU VM).  Corpus,
# pool and benchmark inputs stay at or below 336.
MAX_SPENCER_SLOT = 3000


class Involution(NamedTuple):
    """Cartan's test passed at chain ``level`` under ``flag`` v_1 .. v_n, with
    characters α_j = dim g_(j-1) - dim g_j: level + r has dimension
    Σ_j C(r + j - 1, r)·α_j (Seiler 2010), and H = 0 from level up (Serre)."""

    level: int
    flag: tuple[tuple[int, ...], ...]
    characters: tuple[int, ...]


class TableauChain(namedtuple("TableauChain", "n levels partials involution depth")):
    """Levels W_0, W_1, ... with one degree-lowering map per level.

    partials[l] is ∂_l·D_l: ∂ on level l in basis coordinates, rows b*n + i
    over the basis of level l-1 (for l = 0, of the space one step below
    W_0), with column j times d_j, D_l = diag(levels[l].leads()) (1 on a
    full level, so a generalized ∂ at level 0 is as given).
    It reaches level ``depth``: built through depth, or with an
    ``involution`` at level l through l + 1 only, and closed-form above.
    """

    __slots__ = ()

    def __new__(cls, n: int, levels: tuple[Subspace, ...], partials: tuple[RatMatrix, ...],
                involution: Involution | None = None, depth: int | None = None):
        if len(partials) != len(levels):
            raise ValueError("need one partial map per level")
        for l, (lev, partial) in enumerate(zip(levels, partials)):
            if partial.cols != lev.dim:
                raise ValueError(f"partial map {l} must consume the level-{l} basis")
            if l and partial.rows != n * levels[l - 1].dim:
                raise ValueError(f"partial map {l} must land in level {l - 1}")
            # rows b*n + i: the assembly would cut any other count short
            if not l and (partial.rows % n if n else partial.rows):
                raise ValueError("partial map 0 needs a multiple of n rows (b*n + i)")
        built, depth = len(levels) - 1, len(levels) - 1 if depth is None else depth
        if built != (depth if involution is None else involution.level + 1) or built > depth:
            raise ValueError("a chain holds its levels through depth, or its involution's + 1")
        return tuple.__new__(cls, (n, levels, partials, involution, depth))

    @classmethod
    def _make(cls, fields):  # so _replace checks its record too
        return cls(*fields)

    def level_dim(self, l: int) -> int:
        """dim W_l: for l = -1 the space partials[0] maps into, a built level's, or
        above the built levels the closed form Σ_j C(r + j - 1, r)·α_j of the
        involution at level l - r."""
        if l < 0:
            return self.partials[0].rows // max(self.n, 1)
        if l < len(self.levels):
            return self.levels[l].dim
        if self.involution is None:
            raise ValueError(f"chain too short: level {l} not present")
        r = l - self.involution.level
        return sum(comb(r + j - 1, r) * a for j, a in enumerate(self.involution.characters, 1))

    def prefix(self, depth: int) -> "TableauChain":
        """Levels 0 .. depth: the chain a tower built to depth is, keeping the
        involution when it lies below depth; with none, depth <= self.depth."""
        if self.involution is not None and self.involution.level < depth:
            return self._replace(depth=depth)
        self.level_dim(depth)  # with no involution, refuses a depth past the built levels
        return TableauChain(self.n, self.levels[: depth + 1], self.partials[: depth + 1])

    @property
    def ranks(self) -> tuple[int, ...]:
        """Dimensions of levels 1 .. depth."""
        return tuple(map(self.level_dim, range(1, self.depth + 1)))

    def vanishing_level(self) -> int | None:
        """Smallest l <= depth with W_l = 0, if any (zero levels must persist)."""
        dims = [self.level_dim(0), *self.ranks]
        if 0 not in dims:
            return None
        found = dims.index(0)
        if any(dims[found:]):
            raise InvariantViolation("a vanished tableau level was followed by a nonzero one")
        return found


class HEntry(NamedTuple):
    """dim Z, dim B and dim H of one slot; the field order is the JSON key order."""

    z_dim: int
    b_dim: int
    h_dim: int


class AcyclicityVerdict(NamedTuple):
    """Outcome of an r-acyclicity question on a bounded chain.

    ``unconditional`` is True when the answer holds for every level: either a
    finite-level failure was exhibited, or the tower vanished inside the chain
    so all higher slots are zero.  Otherwise the verdict is only certified for
    levels up to the report's ``l_max``.
    """

    acyclic: bool
    unconditional: bool
    failure: tuple[int, int] | None


class CohomologyReport(NamedTuple):
    l_max: int
    m_max: int
    entries: dict[tuple[int, int], HEntry]
    vanishing_level: int | None


def _composes_to_zero(a_rows: list, b_rows: list, leads: list[int]) -> bool:
    """Whether A @ B = 0, given the nonzero pairs of the rows of A·D and of B
    (times any diagonal on the right), D = diag(leads) on each exterior block
    of w = len(leads) rows: A @ B = (A·D)(D⁻¹·B) vanishes with (A·D)(L·D⁻¹·B),
    L = lcm(leads), B's row e*w + b scaled by the int L/d_b.  Walked one
    product row at a time, never building the product."""
    ups = [lcm(*leads) // d for d in leads]
    b_rows = [row if k == 1 else [(j, k * x) for j, x in row] for row, k in zip(b_rows, cycle(ups))]
    for a_row in a_rows:
        acc: dict[int, int] = {}
        for k, a in a_row:
            for j, b in b_rows[k]:
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            return False
    return True


def cohomology(chain: TableauChain, l_max: int, m_max: int) -> CohomologyReport:
    """Spencer cohomology dimensions H^(l,m) for 0 <= l <= l_max, 1 <= m <= m_max.

    Read off ranks: with A the map out of slot (l, m) and B the map into it,
    dim Z = dim slot - rank A and dim B = rank B.  im B ⊂ ker A is checked
    first, exactly, as A @ B = 0; a failure raises InvariantViolation.  Each
    distinct map is then ranked once (`ratlin.rank`).  At and above the
    involutive level the complex is exact and ∂ injective on 0-forms, so
    dim Z = dim B = Σ_(j=1..m) (-1)^(j+1) dim slot (l + j, m - j).

    Needs the chain to reach level l_max + 1 (the incoming map of the
    slot (l_max, m) starts there); raises ValueError("chain too short ...")
    otherwise rather than prolonging silently.  It refuses (ValueError),
    before any assembly, a window whose ranked slots' maps meet a slot past
    MAX_SPENCER_SLOT (those at and above the involutive level assemble none),
    and before building its grid an m_max past max(n, 2): every form degree
    past n is a zero slot, and no caller asks past 2 when n < 2.
    """
    if l_max < 0 or m_max < 1:
        raise ValueError("need l_max >= 0 and m_max >= 1")
    if m_max > max(chain.n, 2):
        raise ValueError(
            f"Spencer cohomology to m_max {m_max} is past form degree {max(chain.n, 2)}, "
            f"the larger of n = {chain.n} and 2"
        )
    if chain.depth < l_max + 1:
        raise ValueError(
            f"chain too short: need levels through {l_max + 1}, have {chain.depth}"
        )
    # each level's dimension, and each slot's dim Λ^m ⊗ W_l, read once when first met
    level_dim = cache(chain.level_dim)
    slot_dim = cache(lambda l, m: ext_dim(chain.n, m) * level_dim(l))
    grid = [(l, m) for l in range(l_max + 1) for m in range(1, m_max + 1)]
    slots = [(l, m) for l, m in grid if slot_dim(l, m)]
    # slots at and above an involutive level are Serre's zeros; the rest are ranked
    top = l_max + 1 if chain.involution is None else chain.involution.level
    ranked = [(l, m) for l, m in slots if l < top]
    for l, m in ranked:
        for met in ((l - 1, m + 1), (l, m), (l + 1, m - 1)):
            if slot_dim(*met) > MAX_SPENCER_SLOT:
                raise ValueError(
                    f"Spencer cohomology to l_max {l_max} and m_max {m_max} meets slot "
                    f"(l, m) = {met} of {slot_dim(*met)} coordinates, above the "
                    f"budget of {MAX_SPENCER_SLOT}"
                )
    # each map out of or into a slot, as nonzero (column, value) pairs, once, from ∂·D
    keys = dict.fromkeys(key for l, m in ranked for key in ((l, m), (l + 1, m - 1)))
    maps = {(l, m): _slot_matrix(chain.n, m, chain.partials[l]).pairs for l, m in keys}
    for l, m in ranked:
        if not _composes_to_zero(maps[(l, m)], maps[(l + 1, m - 1)], chain.levels[l].leads()):
            raise InvariantViolation(f"image is not contained in the kernel at slot ({l}, {m})")
    ranks = {key: rank(rows) for key, rows in maps.items()}
    entries = dict.fromkeys(grid, HEntry(0, 0, 0))
    for l, m in slots:
        if l < top:
            z_dim, b_dim = slot_dim(l, m) - ranks[(l, m)], ranks[(l + 1, m - 1)]
        else:  # exact here and above, and ∂ is injective on 0-forms: Z = B, read off dims
            z_dim = b_dim = sum((-1) ** (j + 1) * slot_dim(l + j, m - j) for j in range(1, m + 1))
        entries[(l, m)] = HEntry(z_dim, b_dim, z_dim - b_dim)
    return CohomologyReport(
        l_max=l_max,
        m_max=m_max,
        entries=entries,
        vanishing_level=chain.vanishing_level(),
    )


def is_r_acyclic(report: CohomologyReport, r: int) -> AcyclicityVerdict:
    """Decide r-acyclicity (H^(l,m) = 0 for all l and 1 <= m <= r) from a report."""
    if r < 1 or r > report.m_max:
        raise ValueError("r must satisfy 1 <= r <= m_max of the report")
    failure = next(
        ((l, m) for l in range(report.l_max + 1) for m in range(1, r + 1)
         if report.entries[(l, m)].h_dim),
        None,
    )
    vanished = report.vanishing_level is not None and report.vanishing_level <= report.l_max + 1
    return AcyclicityVerdict(
        acyclic=failure is None, unconditional=failure is not None or vanished, failure=failure
    )

