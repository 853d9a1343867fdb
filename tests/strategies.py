"""Hypothesis strategies shared by the test modules."""
from fractions import Fraction

from hypothesis import strategies as st
from path_reference import path_of

from quiverstrata.quiver import Arrow, BoundQuiverPresentation, Quiver, Relation


@st.composite
def presentations(draw):
    """Random loops and orders, arrows between distinct vertices, and
    degree-1 relations with rational coefficients."""
    n = draw(st.integers(min_value=1, max_value=3))
    vertices = tuple(f"v{i}" for i in range(n))
    orders = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in vertices)
    arrows = [Arrow(f"e{i}", v, v) for i, v in enumerate(vertices) if orders[i] >= 2]
    moves = []
    for k in range(draw(st.integers(min_value=0, max_value=4)) if n > 1 else 0):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        t = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != s))
        moves.append(Arrow(f"a{k}", vertices[s], vertices[t]))
    quiver = Quiver(vertices, tuple(arrows + moves))
    order_of = dict(zip(vertices, orders))
    relations = []
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if moves else 0):
        first = draw(st.sampled_from(moves))
        parallel = [a for a in moves
                    if (a.source, a.target) == (first.source, first.target)]
        # loop powers below the orders, at least one loop factor per term
        shapes = [(i, j) for i in range(order_of[first.target])
                  for j in range(order_of[first.source]) if i + j]
        if not shapes:
            continue
        loop_t = [a.name for a in arrows if a.source == first.target]
        loop_s = [a.name for a in arrows if a.source == first.source]
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pre, post = draw(st.sampled_from(shapes))
            mid = draw(st.sampled_from(parallel)).name
            coeff = Fraction(draw(st.integers(min_value=-5, max_value=5).filter(bool)),
                             draw(st.integers(min_value=1, max_value=6)))
            terms.append((coeff, path_of(loop_t * pre + [mid] + loop_s * post)))
        rel = Relation.make(quiver, terms, source=first.source, target=first.target)
        if not rel.is_zero:
            relations.append(rel)
    return BoundQuiverPresentation(quiver, orders, tuple(relations))
