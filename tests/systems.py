"""Small linear constant-coefficient systems that several test modules draw.

A system is given in terms, (n, m, k, equations), each equation a list of
(coeff, component, alpha) triples with 0-based components, as
`PdeSystem.from_terms` and `tests/oracle_brute.py` read them.
"""

from hypothesis import strategies as st


@st.composite
def small_terms(draw):
    """(n, m, k, equations) with n <= 3, m <= 2, k <= 2; with n >= 2 and k = 2
    the equations may carry mixed top-order partials."""
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    terms = st.tuples(
        st.integers(-2, 2),
        st.integers(0, m - 1),
        st.lists(st.integers(0, k), min_size=n, max_size=n)
        .filter(lambda alpha: sum(alpha) <= k)
        .map(tuple),
    )
    eqs = draw(st.lists(st.lists(terms, min_size=1, max_size=4), min_size=1, max_size=4))
    return n, m, k, eqs


# u2_x2x2 = 0, -2 u1_x2x2 + u2_x2x2 = 0, 5 u1_x1x2 + u1 = 0: obstructed at
# level 1, fibers 9 and 11/13/15/17, a symbol of dim 3 at every level, H = 0.
PLAIN_MIXED = (2, 2, 2, [
    [(1, 1, (0, 2))],
    [(-2, 0, (0, 2)), (1, 1, (0, 2))],
    [(5, 0, (1, 1)), (1, 0, (0, 0))],
])

# PLAIN_MIXED under xi -> C eta and u -> B v, C = [[-2, 2], [2, 2]] and
# B = [[2, 0], [1, 2]], each equation divided by its content.  Its principal
# parts share the factor eta1 + eta2 and carry mixed top-order partials, so a
# tower that read jet components as monomial coefficients prolonged a
# rescaled symbol here: g(1) = 2 where the jet walk finds 3.
MIXED_PARTIALS = (2, 2, 2, [
    [(1, 0, (2, 0)), (2, 0, (1, 1)), (1, 0, (0, 2)),
     (2, 1, (2, 0)), (4, 1, (1, 1)), (2, 1, (0, 2))],
    [(-3, 0, (2, 0)), (-6, 0, (1, 1)), (-3, 0, (0, 2)),
     (2, 1, (2, 0)), (4, 1, (1, 1)), (2, 1, (0, 2))],
    [(-20, 0, (2, 0)), (20, 0, (0, 2)), (1, 0, (0, 0))],
])
