from fractions import Fraction as F

import pytest

from cutspec import graph as gr
from cutspec import oracles as orc
from cutspec.errors import BadK, Disconnected, TooLarge
from theorem_checks import boundary, cut_weight


def test_cheeger_examples():
    cert = orc.cheeger(gr.path(4))
    assert cert.value == F(1, 3) and cert.sets == (frozenset({0, 1}),)
    assert orc.cheeger(gr.cycle(4)).value == F(1, 2)
    k2 = orc.cheeger(gr.path(2))
    assert k2.value == 1 and k2.sets == (frozenset({0}),)


def test_cheeger_preconditions():
    with pytest.raises(Disconnected):
        orc.cheeger(gr.Graph.build(4, [(0, 1), (2, 3)]))
    with pytest.raises(TooLarge):
        orc.cheeger(gr.cycle(6), cap=5)


def test_maxcut_examples():
    assert orc.maxcut(gr.complete(3)).value == F(2, 3)
    st2 = gr.star_triangle(2)
    cert = orc.maxcut(st2)
    assert cert.value == F(2, 3)
    assert boundary(st2, cert.sets[0]) == 4
    pet = orc.maxcut(gr.petersen())
    assert pet.value == F(4, 5)
    assert boundary(gr.petersen(), pet.sets[0]) == 12


def test_mincut_vs_m2():
    for g in (gr.complete(3), gr.path(4), gr.cycle(5)):
        volV = gr.vol(g, range(g.n))
        assert orc.mincut(g).value * volV == orc.minmax_k_cut(g, 2).value


def test_dual_cheeger_examples():
    for g in (gr.path(4), gr.cycle(4), gr.path(2), gr.star(5)):
        assert orc.dual_cheeger(g).value == 1  # bipartite
    cert = orc.dual_cheeger(gr.complete(3))
    assert cert.value == F(2, 3) and cert.sets == (frozenset({0}), frozenset({1, 2}))
    assert orc.dual_cheeger(gr.cycle(5)).value == F(4, 5)


def test_dual_one_iff_bipartite():
    for g, bip in (
        (gr.cycle(4), True),
        (gr.cycle(6), True),
        (gr.path(5), True),
        (gr.cycle(5), False),
        (gr.complete(4), False),
        (gr.star_triangle(2), False),
    ):
        assert (orc.dual_cheeger(g).value == 1) == bip
        assert gr.is_bipartite(g)[0] == bip


def test_modified_dual_dominates():
    for g in (gr.complete(3), gr.cycle(5), gr.star_triangle(2), gr.complete(4)):
        assert orc.modified_dual_cheeger(g).value >= orc.dual_cheeger(g).value
    assert orc.modified_dual_cheeger(gr.cycle(4)).value == 1


def test_anti_cheeger_examples():
    cert = orc.anti_cheeger(gr.complete(3))
    assert cert.value == F(1, 2) and cert.sets == (frozenset({0}),)
    assert orc.anti_cheeger(gr.path(2)).value == 1
    # balanced bipartition of an even cycle cuts everything
    c4 = orc.anti_cheeger(gr.cycle(4))
    assert c4.value == 1
    assert c4.value <= orc.maxcut(gr.cycle(4)).value
    c5 = orc.anti_cheeger(gr.cycle(5))
    assert c5.value <= orc.maxcut(gr.cycle(5)).value


def test_k_way_dual_cheeger():
    k3 = gr.complete(3)
    assert orc.k_way_dual_cheeger(k3, 1).value == orc.dual_cheeger(k3).value
    p3 = gr.path(3)
    assert orc.k_way_dual_cheeger(p3, 2).value == 0
    prev = None
    for k in range(1, 4):
        val = orc.k_way_dual_cheeger(gr.path(6), k).value
        if prev is not None:
            assert val <= prev
        prev = val
    with pytest.raises(BadK):
        orc.k_way_dual_cheeger(k3, 0)
    with pytest.raises(BadK):
        orc.k_way_dual_cheeger(k3, 4)


def test_minmax_k_cut_basics():
    for g in (gr.complete(3), gr.path(4), gr.cycle(5)):
        assert orc.minmax_k_cut(g, 1).value == 0
    k3 = gr.complete(3)
    assert orc.minmax_k_cut(k3, 2).value == 4
    # all vertices in singleton blocks realizes twice the maxcut weight
    volV = gr.vol(k3, range(3))
    assert orc.minmax_k_cut(k3, 3).value == orc.maxcut(k3).value * volV


def test_minmax_one_block_partition_has_no_vertex_cap():
    # its work is 2 at any n: it reads cut(V) and builds no 2^n table
    cert = orc.minmax_k_cut(gr.path(60), 1, require_partition=True)
    assert cert.value == 0 and cert.sets == (frozenset(range(60)),)
    assert cert.kind == "partition"


def test_minmax_monotone_and_partition():
    for g in (gr.complete(3), gr.path(4), gr.cycle(4), gr.star(4)):
        n = g.n
        vals = [orc.minmax_k_cut(g, k).value for k in range(1, n + 1)]
        assert vals == sorted(vals)
        for k in range(1, n + 1):
            assert vals[k - 1] <= orc.minmax_k_cut(g, k, require_partition=True).value
        assert vals[-1] == orc.minmax_k_cut(g, n, require_partition=True).value
        volV = gr.vol(g, range(n))
        assert vals[-1] == orc.maxcut(g).value * volV
        assert vals[1] == orc.mincut(g).value * volV


def test_ratio_oracle_registry():
    p4 = gr.path(4)
    assert orc.ratio_oracle("cheeger_tv", p4).value == orc.cheeger(p4).value
    assert orc.ratio_oracle("cheeger_new", p4).value == orc.cheeger(p4).value
    k3 = gr.complete(3)
    assert orc.ratio_oracle("dual", k3).value == 1 - orc.dual_cheeger(k3).value
    assert orc.ratio_oracle("mdual", k3).value == 1 - orc.modified_dual_cheeger(k3).value
    assert orc.ratio_oracle("anti", k3).value == orc.anti_cheeger(k3).value
    assert orc.ratio_oracle("maxcut_ratio", k3).value == orc.maxcut(k3).value


def test_determinism():
    g = gr.cycle(6)
    for fn in (orc.cheeger, orc.maxcut, orc.mincut, orc.anti_cheeger, orc.dual_cheeger):
        a, b = fn(g), fn(g)
        assert a == b
    assert orc.cheeger(g).sets[0] == min(
        (s for s in _optimal_cheeger_sets(g)), key=lambda s: tuple(sorted(s))
    )


def _optimal_cheeger_sets(g):
    best = orc.cheeger(g).value
    out = []
    for mask in range(1, 1 << (g.n - 1)):
        smask = (mask << 1) | 1
        if smask == (1 << g.n) - 1:
            continue
        s = frozenset(i for i in range(g.n) if smask >> i & 1)
        sc = g.vertices() - s
        if boundary(g, s) / min(gr.vol(g, s), gr.vol(g, sc)) == best:
            out.append(s)
    return out


def test_certificates_reevaluate():
    g = gr.star_triangle(2)
    volV = gr.vol(g, range(g.n))
    c = orc.maxcut(g)
    assert 2 * boundary(g, c.sets[0]) / volV == c.value
    d = orc.dual_cheeger(g)
    assert 2 * cut_weight(g, *d.sets) / gr.vol(g, d.sets[0] | d.sets[1]) == d.value
    a = orc.anti_cheeger(g)
    s = a.sets[0]
    assert boundary(g, s) / max(gr.vol(g, s), gr.vol(g, g.vertices() - s)) == a.value
