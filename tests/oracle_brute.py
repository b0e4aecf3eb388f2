"""Brute-force reference computations, independent of the package under test.

Everything here is rebuilt from scratch on sympy's exact rational matrices:
jet coordinates (in a deliberately different order: degree ascending, then
lexicographic exponent, component index fastest), prolongation by total
derivatives, symbols, tableau towers, a Spencer differential with a front-wedge
sign convention, and a section-level curvature computation using honest
symbolic differentiation.  Its tableau towers and Spencer differential work in
plain monomial coefficients, where the package works in jet components: the
symbol's jet coordinates are converted once, by 1/alpha!, where they enter.

Running the module as a script prints the reference table; those numbers are
frozen as literals in the test suite.  Radical independence from the package
is the point: none of formalpde is imported here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import prod

import sympy

Rational = sympy.Rational

# an equation is a list of terms (coeff, comp, alpha); a system is
# (n, m, k, [equation, ...]) with 0-based components and n-tuple alphas.


# --------------------------- jet coordinates ---------------------------


def alphas_of_degree(n, d):
    return sorted(t for t in product(range(d + 1), repeat=n) if sum(t) == d)


def jet_coords(n, m, k):
    out = []
    for d in range(k + 1):
        for alpha in alphas_of_degree(n, d):
            for a in range(m):
                out.append((a, alpha))
    return out


def eq_matrix(n, m, k, eqs):
    coords = jet_coords(n, m, k)
    pos = {c: i for i, c in enumerate(coords)}
    rows = []
    for eq in eqs:
        row = [Rational(0)] * len(coords)
        for coeff, comp, alpha in eq:
            row[pos[(comp, tuple(alpha))]] += Rational(Fraction(coeff))
        rows.append(row)
    if not rows:
        return sympy.zeros(0, len(coords))
    return sympy.Matrix(rows)


def fiber_dim(n, m, k, eqs):
    mat = eq_matrix(n, m, k, eqs)
    return mat.cols - mat.rank()


def shift_eq(eq, i):
    return [
        (coeff, comp, alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :])
        for coeff, comp, alpha in eq
    ]


def prolong_eqs(n, eqs):
    """eqs and every shift of them, each distinct equation once: a repeated
    row changes no rank and no nullspace, and d_i d_j = d_j d_i repeats many."""
    out, seen = [], set()
    for eq in [list(eq) for eq in eqs] + [shift_eq(eq, i) for eq in eqs for i in range(n)]:
        key = tuple(sorted((comp, tuple(alpha), Fraction(coeff)) for coeff, comp, alpha in eq))
        if key not in seen:
            seen.add(key)
            out.append(eq)
    return out


def prolonged(n, m, k, eqs, times):
    cur, kk = eqs, k
    for _ in range(times):
        cur, kk = prolong_eqs(n, cur), kk + 1
    return kk, cur


def symbol_dim(n, m, k, eqs):
    """Kernel dimension of the equations restricted to top-degree columns."""
    coords = jet_coords(n, m, k)
    top = [i for i, (a, al) in enumerate(coords) if sum(al) == k]
    mat = eq_matrix(n, m, k, eqs)
    sub = mat[:, top]
    return len(top) - sub.rank()


def fiber_basis(n, m, k, eqs):
    return eq_matrix(n, m, k, eqs).nullspace()


def truncation_image_dim(n, m, k_hi, eqs_hi, k_lo):
    """Rank of the projection of the order-k_hi fiber onto jets of order k_lo."""
    hi = jet_coords(n, m, k_hi)
    lo = jet_coords(n, m, k_lo)
    keep = [hi.index(c) for c in lo]
    basis = fiber_basis(n, m, k_hi, eqs_hi)
    if not basis:
        return 0
    cols = [v[keep, :] for v in basis]
    return sympy.Matrix.hstack(*cols).rank()


def tower_data(n, m, k, eqs, depth):
    """Per level i=0..depth: (fiber dim, symbol dim, image dim into level i-1)."""
    out = []
    cur, kk = eqs, k
    prev = None
    for i in range(depth + 1):
        fd = fiber_dim(n, m, kk, cur)
        sd = symbol_dim(n, m, kk, cur)
        img = None
        if prev is not None:
            img = truncation_image_dim(n, m, kk, cur, kk - 1)
        out.append((fd, sd, img))
        prev = (kk, cur)
        cur, kk = prolong_eqs(n, cur), kk + 1
    return out


# --------------------------- Spencer cohomology ---------------------------


def symbol_space_basis(n, m, k, eqs):
    """Basis of the symbol inside S^k ⊗ R^m, as vectors over (alpha lex, comp fast).

    The nullspace is in jet coordinates u_alpha, the alpha-th derivatives of
    the polynomial; each is divided by alpha! to give the monomial
    coefficients that `prolong_symbol` and `ambient_delta` contract."""
    coords = jet_coords(n, m, k)
    top = [i for i, (a, al) in enumerate(coords) if sum(al) == k]
    mat = eq_matrix(n, m, k, eqs)[:, top]
    sym = [coords[i] for i in top]
    scale = [prod(map(sympy.factorial, al)) for _, al in sym]
    return sym, [sympy.Matrix([x / s for x, s in zip(v, scale)]) for v in mat.nullspace()]


def sym_coords(n, m, d):
    return [(a, alpha) for alpha in alphas_of_degree(n, d) for a in range(m)]


def prolong_symbol(n, m, d, basis_vectors):
    """One tableau prolongation: xi in S^(d+1)⊗R^m with all derivatives in span."""
    src = sym_coords(n, m, d)
    tgt = sym_coords(n, m, d + 1)
    if basis_vectors:
        span = sympy.Matrix.hstack(*basis_vectors)
    else:
        span = sympy.zeros(len(src), 0)
    # constraints: rows q with q . v = 0 for all v in span
    q = span.T.nullspace()
    qmat = sympy.Matrix.hstack(*q).T if q else sympy.zeros(0, len(src))
    rows = []
    src_pos = {c: i for i, c in enumerate(src)}
    for i in range(n):
        # matrix of iota_i : S^(d+1)⊗R^m -> S^d⊗R^m, monomial coefficients
        deriv = sympy.zeros(len(src), len(tgt))
        for jcol, (a, alpha) in enumerate(tgt):
            if alpha[i]:
                beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                deriv[src_pos[(a, beta)], jcol] = alpha[i]
        if qmat.rows:
            rows.append(qmat * deriv)
    if not rows:
        return tgt, [sympy.eye(len(tgt))[:, j] for j in range(len(tgt))]
    stacked = sympy.Matrix.vstack(*rows)
    return tgt, stacked.nullspace()


def symbol_tower_bases(n, m, k, eqs, depth):
    """[(degree, coords, basis vectors)] for g = g^(0) .. g^(depth)."""
    coords, basis = symbol_space_basis(n, m, k, eqs)
    out = [(k, coords, basis)]
    d = k
    for _ in range(depth):
        coords, basis = prolong_symbol(n, m, d, basis)
        out.append((d + 1, coords, basis))
        d += 1
    return out


def ambient_delta(n, m, j, d):
    """Front-wedge Spencer differential Λ^j⊗S^d⊗R^m -> Λ^(j+1)⊗S^(d-1)⊗R^m."""
    src_ext = list(combinations(range(n), j))
    tgt_ext = list(combinations(range(n), j + 1))
    src_sym = sym_coords(n, m, d)
    tgt_sym = sym_coords(n, m, d - 1)
    src = [(s, c) for s in src_ext for c in src_sym]
    tgt = [(t, c) for t in tgt_ext for c in tgt_sym]
    tgt_pos = {c: i for i, c in enumerate(tgt)}
    mat = sympy.zeros(len(tgt), len(src))
    for col, (s, (a, alpha)) in enumerate(src):
        for i in range(n):
            if i in s or not alpha[i]:
                continue
            sign = (-1) ** sum(1 for x in s if x < i)
            beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            merged = tuple(sorted(s + (i,)))
            mat[tgt_pos[(merged, (a, beta))], col] += sign * alpha[i]
    return src, tgt, mat


def slot_embedding(n, j, sym_len, basis_vectors):
    """Columns embedding Λ^j ⊗ span(basis) into Λ^j ⊗ S^d ⊗ R^m coordinates."""
    ext = list(combinations(range(n), j))
    cols = []
    for e_i in range(len(ext)):
        for v in basis_vectors:
            col = sympy.zeros(len(ext) * sym_len, 1)
            col[e_i * sym_len : (e_i + 1) * sym_len, 0] = v
            cols.append(col)
    if not cols:
        return sympy.zeros(len(ext) * sym_len, 0)
    return sympy.Matrix.hstack(*cols)


def spencer_h_dim(n, m, tower, l, j):
    """dim H^(l,j) of the symbol tower (tower from symbol_tower_bases)."""
    d_l, coords_l, basis_l = tower[l]
    src_cols = len(list(combinations(range(n), j))) * len(basis_l)
    if src_cols == 0:
        return 0
    _, _, dmat = ambient_delta(n, m, j, d_l)
    emb = slot_embedding(n, j, len(coords_l), basis_l)
    rank_out = (dmat * emb).rank() if dmat.rows else 0
    z = src_cols - rank_out
    b = 0
    if l + 1 < len(tower) and j >= 1:
        d_up, coords_up, basis_up = tower[l + 1]
        if basis_up:
            _, _, dmat_in = ambient_delta(n, m, j - 1, d_up)
            emb_in = slot_embedding(n, j - 1, len(coords_up), basis_up)
            b = (dmat_in * emb_in).rank()
    elif j >= 1:
        raise ValueError("tower too short for the requested slot")
    return z - b


# --------------------------- section-level curvature ---------------------------


def section_curvature(n, sigma, a_mats, e, psis, c_choices):
    """K(D)(d_i, d_j) at 0 through the fiber point (e, psi), via honest sections.

    sigma, a_mats are sympy Matrices (the connection data); e is the base point
    of the fiber, psis[i] the Hom-part, c_choices[i] arbitrary section slopes
    (the result must not depend on them).  Builds alpha(x) = e + sum c_i x_i and
    omega_i(x) = omega_i(0) + sum_j w_ij x_j with D(alpha) = sigma . omega as
    polynomial identities, then evaluates
    K(i,j) = [D_i omega_j - D_j omega_i](0).  Returns dict {(i,j): vector}.
    """
    omega0 = [c_choices[i] - psis[i] for i in range(n)]
    for i in range(n):
        # constant part: sigma omega_i(0) = A_i e + sigma c_i must already hold
        lhs = sigma * omega0[i]
        rhs = a_mats[i] * e + sigma * c_choices[i]
        assert sympy.simplify(lhs - rhs) == sympy.zeros(*lhs.shape), (
            "fiber point not in the partial prolongation fiber"
        )
    w = {}
    for i in range(n):
        for j in range(n):
            # linear part in x_j of the i-th identity: sigma w_ij = A_i c_j
            target = a_mats[i] * c_choices[j]
            syms = sympy.symbols(f"y_{i}_{j}_0:{sigma.cols}")
            sol = sympy.linsolve((sigma, target), list(syms))
            assert sol.args, "sigma not solvable; use a surjective sigma here"
            y = sympy.Matrix(sol.args[0])
            y = y.subs({s: 0 for s in y.free_symbols})
            w[(i, j)] = y
    out = {}
    for i in range(n):
        for j in range(n):
            if i < j:
                # K = A_i omega_j(0) + sigma d_i omega_j - A_j omega_i(0) - sigma d_j omega_i
                val = (
                    a_mats[i] * omega0[j]
                    + sigma * w[(j, i)]
                    - a_mats[j] * omega0[i]
                    - sigma * w[(i, j)]
                )
                out[(i, j)] = val
    return out


# --------------------------- corpus systems ---------------------------

CAUCHY_RIEMANN = (2, 2, 1, [
    [(1, 0, (1, 0)), (-1, 1, (0, 1))],
    [(1, 0, (0, 1)), (1, 1, (1, 0))],
])

LAPLACE_2D = (2, 1, 2, [
    [(1, 0, (2, 0)), (1, 0, (0, 2))],
])

WAVE_1D = (2, 1, 2, [
    [(1, 0, (0, 2)), (-1, 0, (2, 0))],
])

GRADIENT_ZERO = (2, 1, 1, [
    [(1, 0, (1, 0))],
    [(1, 0, (0, 1))],
])


def flat_connection_system(a1_rows, a2_rows):
    """d_i u = A_i u as a first-order system (n = 2, m = len(A))."""
    m = len(a1_rows)
    eqs = []
    for i, rows in enumerate((a1_rows, a2_rows)):
        ei = (1, 0) if i == 0 else (0, 1)
        for r in range(m):
            eq = [(1, r, ei)]
            for c in range(m):
                if rows[r][c]:
                    eq.append((-rows[r][c], c, (0, 0)))
            eqs.append(eq)
    return (2, m, 1, eqs)


FLAT_COMMUTING = flat_connection_system([[1, 1], [0, 1]], [[1, 2], [0, 1]])
FLAT_OBSTRUCTED = flat_connection_system([[0, 1], [0, 0]], [[0, 0], [1, 0]])

CORPUS = {
    "cauchy_riemann": CAUCHY_RIEMANN,
    "laplace2d": LAPLACE_2D,
    "wave1d": WAVE_1D,
    "gradient_zero": GRADIENT_ZERO,
    "flat_connection_commuting": FLAT_COMMUTING,
    "flat_connection_obstructed": FLAT_OBSTRUCTED,
}


def main():
    for name, (n, m, k, eqs) in CORPUS.items():
        depth = 4
        data = tower_data(n, m, k, eqs, depth)
        print(f"== {name} (n={n}, m={m}, k={k}) ==")
        print("  level:            " + "  ".join(f"{i:>4}" for i in range(depth + 1)))
        print("  fiber dim:        " + "  ".join(f"{d[0]:>4}" for d in data))
        print("  symbol dim:       " + "  ".join(f"{d[1]:>4}" for d in data))
        print(
            "  image into below: "
            + "  ".join("   -" if d[2] is None else f"{d[2]:>4}" for d in data)
        )
        surj = [
            "-" if d[2] is None else ("yes" if d[2] == data[i - 1][0] else "NO")
            for i, d in enumerate(data)
        ]
        print("  surjective:       " + "  ".join(f"{s:>4}" for s in surj))
        tower = symbol_tower_bases(n, m, k, eqs, 6)
        hs = {}
        for l in range(5):
            for j in (1, 2):
                hs[(l, j)] = spencer_h_dim(n, m, tower, l, j)
        print("  H^(l,1) l=0..4:   " + "  ".join(str(hs[(l, 1)]) for l in range(5)))
        print("  H^(l,2) l=0..4:   " + "  ".join(str(hs[(l, 2)]) for l in range(5)))
        print()
    # full tableau ranks: no equations at all
    for n in range(1, 4):
        for f in range(1, 4):
            sysk = (n, f, 1, [])
            data = tower_data(*sysk, 4)
            print(f"full tableau n={n} f={f}: symbol dims {[d[1] for d in data]}")


if __name__ == "__main__":
    main()
