"""Flow-decided verdicts against the simplex.

flow.circulation_exists is held to simplex.find_feasible on the linear
system of random circulations: one variable per arc, boxed by its bounds,
and one balance row per node.  eigen._circulates, which decides one_lap's
eigenpair systems as circulations on G and a hub node, is held to the
simplex on the system eigen._system builds, with the median selection and
with --raw, on random graphs, integer vectors and eigenvalues.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutspec import eigen as eg
from cutspec import flow
from cutspec import graph as gr
from cutspec.errors import ZeroMeasure
from cutspec.functionals import EIGENPROBLEMS
from cutspec.simplex import _feasible_point, find_feasible

SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def networks(draw):
    """Up to 5 nodes and 8 arcs, self-loops, parallel arcs, empty and
    reversed (lo > hi) bounds included."""
    n = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    bound = st.integers(-4, 4)
    return n, draw(st.lists(st.tuples(node, node, bound, bound), max_size=8))


def simplex_circulates(n, arcs):
    """Whether the system y_a in [lo_a, hi_a], outflow = inflow at every
    node, has a point, by the simplex."""
    rows = [{} for _ in range(n)]
    for k, (u, v, _, _) in enumerate(arcs):
        rows[u][k] = rows[u].get(k, 0) + 1
        rows[v][k] = rows[v].get(k, 0) - 1
    bounds = [(lo, hi) for _, _, lo, hi in arcs]
    return find_feasible(1, bounds, [(row, 0, 1) for row in rows]) is not None


@SETTINGS
@given(networks())
@example((1, []))
@example((2, [(0, 1, 1, 2)]))  # a lone arc that must carry flow
@example((2, [(0, 1, 1, 2), (1, 0, -3, -1)]))  # its flow comes back reversed
@example((3, [(0, 1, -2, 2), (1, 2, 1, 1), (2, 0, 1, 3)]))
@example((2, [(0, 0, 2, 1)]))  # lo > hi
def test_circulation_matches_simplex(net):
    n, arcs = net
    assert flow.circulation_exists(n, arcs) == simplex_circulates(n, arcs), net


ONE_LAP = EIGENPROBLEMS["one_lap"]
WEIGHTS = st.sampled_from((F(1), F(2), F(1, 2), F(5, 3)))


@st.composite
def graphs(draw):
    """n from 1 to 7, any edge set (edgeless and isolated vertices
    included), weights 1, 2, 1/2 and 5/3, and the degree measure, a custom
    one with zeros, or the zero measure."""
    n = draw(st.integers(1, 7))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = draw(st.one_of(st.none(), WEIGHTS))
            if w is not None:
                edges.append((u, v, w))
    custom = st.lists(
        st.sampled_from((F(0), F(1), F(2), F(1, 2), F(5, 3))), min_size=n, max_size=n
    )
    mu = draw(st.one_of(st.none(), custom, st.just([F(0)] * n)))
    return gr.Graph.build(n, edges, mu)


def outcome(decide):
    try:
        return decide()
    except ZeroMeasure:
        return ZeroMeasure


PATH4 = gr.path(4)
README_X = [1, 1, -1, -1, 0, 0, 0]  # the README's x.txt on path(4)


@SETTINGS
@given(
    graphs(),
    st.lists(st.integers(-3, 3), min_size=7, max_size=7),
    st.integers(-4, 6),
    st.integers(1, 6),
)
@example(PATH4, [1] * 7, 0, 1)  # the constant vector at lam = 0
@example(PATH4, README_X, 1, 3)
@example(PATH4, README_X, 1, 2)
@example(gr.Graph.build(3, [(0, 1)], mu=[0, 0, 0]), [1, 0, -1, 0, 0, 0, 0], 1, 2)
@example(gr.Graph.build(1, []), [2, 0, 0, 0, 0, 0, 0], -4, 1)
@example(gr.Graph.build(4, [(0, 1, 2), (2, 3, F(5, 3))], mu=[1, 0, 2, F(1, 2)]), [3, -2, -2, 0, 0, 0, 0], 2, 5)
def test_one_lap_flow_verdict_matches_simplex(g, vals, p, q):
    """For one_lap, with the median selection and with --raw, the flow's
    verdict is the simplex's, or both raise ZeroMeasure: the median path
    does so exactly when the total measure is zero."""
    xs = vals[: g.n]
    lam = F(p, q)
    p, q = lam.numerator, lam.denominator
    for raw in (False, True):
        system = lambda: eg._system("one_lap", g, p, q, xs, raw)[0]
        want = outcome(lambda: _feasible_point(*system()) is not None)
        median = eg._median_term("one_lap", raw)
        got = outcome(lambda: eg._circulates(ONE_LAP, g, p, q, xs, median))
        assert got == want, (raw, xs, lam)
        if not raw:
            assert (want is ZeroMeasure) == (sum(g.mu) == 0)
