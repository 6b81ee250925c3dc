import random
from fractions import Fraction as F

import pytest

from cutspec import graph as gr
from cutspec.errors import (
    BadK,
    IsolatedVertex,
    NegativeWeight,
    OverlappingSets,
    ParseError,
    SelfLoop,
)


def test_vol_examples():
    p3 = gr.path(3)
    assert gr.vol(p3, {1}) == 2
    assert gr.vol(p3, set()) == 0
    assert gr.vol(gr.cycle(4), range(4)) == 8


def test_cut_weight_examples():
    p3 = gr.path(3)
    assert gr.cut_weight(p3, {0}, {2}) == 0
    assert gr.cut_weight(p3, {1}, {0, 2}) == 2
    pet = gr.petersen()
    assert gr.cut_weight(pet, frozenset(range(5)), frozenset(range(5, 10))) == 5


def test_cut_weight_overlap_rejected():
    with pytest.raises(OverlappingSets):
        gr.cut_weight(gr.path(3), {0, 1}, {1, 2})


def test_connected_components():
    p3 = gr.path(3)
    assert gr.connected_components(p3, {0, 2}) == [{0}, {2}]
    assert gr.connected_components(p3) == [{0, 1, 2}]
    c4 = gr.cycle(4)
    assert gr.connected_components(c4, {0, 1, 3}) == [{0, 1, 3}]


def test_components_partition_property():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = gr.Graph.build(n, edges)
        s = frozenset(i for i in range(n) if rng.random() < 0.6)
        comps = gr.connected_components(g, s)
        assert frozenset().union(*comps) == s if comps else s == frozenset()
        assert sum(len(c) for c in comps) == len(s)


def test_graph_params():
    assert gr.graph_params(gr.cycle(5)) == {
        "alpha": 2,
        "matching": 2,
        "edge_cover": 3,
        "is_bipartite": False,
        "is_forest": False,
    }
    assert gr.graph_params(gr.path(2)) == {
        "alpha": 1,
        "matching": 1,
        "edge_cover": 1,
        "is_bipartite": True,
        "is_forest": True,
    }
    assert gr.graph_params(gr.petersen())["alpha"] == 4


def test_isolated_vertex_edge_cover():
    g = gr.Graph.build(3, [(0, 1)])
    assert gr.graph_params(g)["edge_cover"] is None
    with pytest.raises(IsolatedVertex):
        gr.edge_cover_number(g)


def test_generators():
    assert gr.path(2).edges == ((0, 1, F(1)),)
    st2 = gr.star_triangle(2)
    assert st2.n == 5 and len(st2.edges) == 6
    pet = gr.petersen()
    assert pet.n == 10 and len(pet.edges) == 15
    for k in range(2, 7):
        assert gr.is_forest(gr.path(k))
        assert not gr.is_forest(gr.cycle(k) if k >= 3 else gr.cycle(3))


def test_parse_emit_roundtrip():
    g = gr.parse_graph("0 1 1\n1 2 1\n")
    assert g.n == 3 and g.edges == gr.path(3).edges
    g2 = gr.parse_graph(gr.emit_graph(g))
    assert g2 == g
    g3 = gr.parse_graph("0 1 1/3\n")
    assert g3.edges[0][2] == F(1, 3)


def test_parse_errors():
    with pytest.raises(SelfLoop):
        gr.parse_graph("0 0 1\n")
    with pytest.raises(NegativeWeight):
        gr.parse_graph("0 1 -2\n")
    with pytest.raises(ParseError):
        gr.parse_graph("0 x 1\n")
    with pytest.raises(ParseError):
        gr.parse_graph("n 2\n0 5 1\n")


def test_parallel_edges_merge():
    a = gr.parse_graph("0 1 1\n0 1 2\n")
    b = gr.parse_graph("0 1 3\n")
    assert a == b


def test_comments_and_header():
    g = gr.parse_graph("# a comment\nn 4\n0 1 1\n\n2 3 1  # trailing\n")
    assert g.n == 4 and len(g.edges) == 2


def test_measure_file_override():
    g = gr.parse_graph("0 1 1\n1 2 1\n", measure_text="1 5\n")
    assert g.mu == (F(1), F(5), F(1))


def test_handshake_on_random_graphs():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randrange(2, 9)
        edges = [
            (i, j, F(rng.randrange(1, 5)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = gr.Graph.build(n, edges)
        s = frozenset(i for i in range(n) if rng.random() < 0.5)
        sc = g.vertices() - s
        assert gr.cut_weight(g, s, sc) == gr.cut_weight(g, sc, s)
        # mu = degree: cut plus twice the internal weight is the volume
        assert gr.cut_weight(g, s, sc) + 2 * gr.intra_weight(g, s) == gr.vol(g, s)
        assert gr.vol(g, s) + gr.vol(g, sc) == gr.vol(g, g.vertices())


def test_generators_reject_small_k():
    for make, least in ((gr.path, 1), (gr.cycle, 3), (gr.complete, 1), (gr.star, 1)):
        with pytest.raises(BadK):
            make(least - 1)
        assert make(least).n == least
