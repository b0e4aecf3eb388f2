"""Verdicts are intrinsic: every number the six commands report is invariant
under a linear change of variables.

Each equation of a constant-coefficient system is a vector of polynomials
P_a(xi), xi_i standing for d/dx_i and the monomial xi^alpha for the jet
coordinate u_alpha.  The change xi -> C eta of the independent variables,
u -> B v of the dependent ones and row operations R on the equations send it
to R · P(C eta) · B, read back coefficient by coefficient.  That picture
needs no convention for S^k ⊗ F, so it checks the package's one.

For C, B and R invertible, the symbol ranks and type, the tower's fiber,
symbol and image dimensions and surjectivity, every H, the goldschmidt and
finite-type verdicts with their levels and bases, and the crosscheck's
dimensions must read the same on both systems.  Witness jets are not
invariant and are left out.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from formalpde.jetpde import (
    PdeSystem,
    crosscheck_routes,
    finite_type_integrability,
    goldschmidt_check,
    prolongation_tower,
    symbol_tower,
)
from formalpde.spencer import cohomology
from formalpde.tableau import classify_type

from systems import MIXED_PARTIALS, PLAIN_MIXED, small_terms


def det(rows):
    """The determinant, by expansion along the first row (size <= 4 here)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


def invertible(size):
    """size x size integer matrices with entries in [-2, 2] and det != 0."""
    row = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size).filter(det)


def substitute(alpha, c):
    """xi^alpha with xi_i -> sum_j c[i][j] eta_j, as a {beta: coefficient} polynomial."""
    poly = Counter({(0,) * len(alpha): 1})
    for i, power in enumerate(alpha):
        for _ in range(power):
            step = Counter()
            for beta, x in poly.items():
                for j, cij in enumerate(c[i]):
                    step[beta[:j] + (beta[j] + 1,) + beta[j + 1 :]] += x * cij
            poly = step
    return poly


def transformed(terms, c, b, r):
    """The system R · P(C eta) · B, in terms."""
    n, m, k, eqs = terms
    rows = []
    for eq in eqs:
        row = Counter()
        for coeff, a, alpha in eq:
            for beta, x in substitute(alpha, c).items():
                for v in range(m):
                    row[v, beta] += coeff * x * b[a][v]
        rows.append(row)
    out = []
    for weights in r:
        eq = Counter()
        for w, row in zip(weights, rows):
            for key, x in row.items():
                eq[key] += w * x
        out.append([(x, v, beta) for (v, beta), x in sorted(eq.items()) if x])
    return n, m, k, out


@st.composite
def changes_of_variables(draw):
    """(terms, C, B, R): a small system and an invertible change of each kind."""
    terms = draw(small_terms())
    n, m, _, eqs = terms
    return terms, draw(invertible(n)), draw(invertible(m)), draw(invertible(len(eqs)))


def unwitnessed(report):
    return report._replace(
        witness=None, levels=tuple(rec._replace(witness=None) for rec in report.levels)
    )


def intrinsic_numbers(system):
    """What the six commands report, witnesses left out: the symbol tower and
    the walk to depth 2, the Spencer window l_max = 1 in every form degree,
    goldschmidt and finite-type at l_max = 1, the crosscheck to depth 2."""
    chain = symbol_tower(system, 2)
    return (
        classify_type(chain, 2),
        cohomology(chain, l_max=1, m_max=system.n),
        unwitnessed(prolongation_tower(system, 2)),
        unwitnessed(goldschmidt_check(system, 1)),
        unwitnessed(finite_type_integrability(system, 1)),
        crosscheck_routes(system, 2),
    )


def test_the_transform_gives_the_pinned_mixed_system():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    n, m, k, eqs = transformed(PLAIN_MIXED, [[-2, 2], [2, 2]], [[2, 0], [1, 2]], identity)
    contents = (4, 4, 2)  # each equation's content, divided out in MIXED_PARTIALS
    got = [sorted((x // g, v, beta) for x, v, beta in eq) for eq, g in zip(eqs, contents)]
    assert (n, m, k, got) == (*MIXED_PARTIALS[:3], [sorted(eq) for eq in MIXED_PARTIALS[3]])


@settings(deadline=None, max_examples=20)
@given(changes_of_variables())
@example((PLAIN_MIXED, [[-2, 2], [2, 2]], [[2, 0], [1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
def test_every_reported_number_is_invariant_under_a_change_of_variables(change):
    terms, c, b, r = change
    before = intrinsic_numbers(PdeSystem.from_terms(*terms))
    after = intrinsic_numbers(PdeSystem.from_terms(*transformed(terms, c, b, r)))
    assert after == before
