import random
from fractions import Fraction as F

import pytest

from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec.errors import DegenerateDenominator, UnknownProblem


def vec(g, vals):
    return fn.as_rvector(g, vals)


def test_tv_examples():
    k2 = gr.path(2)
    assert fn.tv(k2, vec(k2, [1, -1])) == 2
    assert fn.tv(k2, vec(k2, [3, 3])) == 0
    st2 = gr.star_triangle(2)
    assert fn.tv(st2, fn.indicator(st2, {0, 1}, {2, 3})) == 8


def test_tv_plus_examples():
    k2 = gr.path(2)
    assert fn.tv_plus(k2, vec(k2, [1, -1])) == 0
    k3 = gr.complete(3)
    assert fn.tv_plus(k3, vec(k3, [1, -1, 0])) == 2


def test_sup_l1_norms():
    p3 = gr.path(3)
    assert fn.sup_norm(vec(p3, [1, -2, 0])) == 2
    assert fn.l1_mu_norm(p3, vec(p3, [1, 1, 1])) == 4
    assert fn.sup_norm(vec(p3, [0, 0, 0])) == 0
    assert fn.l1_mu_norm(p3, vec(p3, [0, 0, 0])) == 0


def test_median_interval_examples():
    k2 = gr.path(2)
    assert fn.median_interval(k2, vec(k2, [1, -1])) == (-1, 1)
    p3 = gr.path(3)
    assert fn.median_interval(p3, vec(p3, [0, 1, 1])) == (1, 1)
    assert fn.median_interval(p3, vec(p3, [5, 5, 5])) == (5, 5)


def test_median_distance():
    k2 = gr.path(2)
    assert fn.median_distance(k2, vec(k2, [1, -1])) == 2
    p3 = gr.path(3)
    assert fn.median_distance(p3, vec(p3, [1, 0, 0])) == 1
    x = vec(p3, [1, 0, -2])
    c = F(7, 3)
    shifted = tuple(t - c for t in x)
    assert fn.median_distance(p3, shifted) == fn.median_distance(p3, x)


def test_median_interval_is_argmin():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 7)
        g = gr.path(n)
        x = vec(g, [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)])
        lo, hi = fn.median_interval(g, x)
        best = fn.median_distance(g, x)

        def cost(t):
            return sum(g.mu[i] * abs(x[i] - t) for i in range(n))

        assert cost(lo) == best and cost(hi) == best
        assert cost((lo + hi) / 2) == best
        eps = F(1, 100)
        assert cost(lo - eps) > best
        assert cost(hi + eps) > best


def test_lovasz_extension_examples():
    k3 = gr.complete(3)
    cut = lambda a, b: gr.cut_weight(k3, a, b)
    x = fn.indicator(k3, {0, 1})
    assert fn.lovasz_extension(k3, cut, x) == cut({0, 1}, frozenset())
    y = fn.indicator(k3, {0}, {2})
    assert fn.lovasz_extension(k3, cut, y) == cut({0}, {2})
    assert fn.lovasz_extension(k3, cut, vec(k3, [2, 1, -1])) == 2
    assert fn.lovasz_extension(k3, cut, vec(k3, [0, 0, 0])) == 0


def test_lovasz_indicator_identity_exhaustive():
    for g in (gr.path(4), gr.cycle(5), gr.complete(4)):
        cut = lambda a, b: gr.cut_weight(g, a, b)
        for mask_a in range(1 << g.n):
            rest = ~mask_a & ((1 << g.n) - 1)
            mask_b = rest
            while True:
                a = frozenset(i for i in range(g.n) if mask_a >> i & 1)
                b = frozenset(i for i in range(g.n) if mask_b >> i & 1)
                assert fn.lovasz_extension(g, cut, fn.indicator(g, a, b)) == cut(a, b)
                if mask_b == 0:
                    break
                mask_b = (mask_b - 1) & rest


def test_homogeneity():
    rng = random.Random(11)
    g = gr.cycle(5)
    cut = lambda a, b: gr.cut_weight(g, a, b)
    for _ in range(20):
        x = vec(g, [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(5)])
        t = F(rng.randrange(-6, 7), rng.randrange(1, 5))
        tx = tuple(t * v for v in x)
        for func in (
            lambda y: fn.tv(g, y),
            lambda y: fn.tv_plus(g, y),
            lambda y: fn.median_distance(g, y),
            lambda y: fn.sup_norm(y),
            lambda y: fn.l1_mu_norm(g, y),
            lambda y: fn.lovasz_extension(g, cut, y),
        ):
            assert func(tx) == abs(t) * func(x)


def test_sup_bound_and_vertex_cover_equality():
    rng = random.Random(17)
    p3 = gr.path(3)
    x = vec(p3, [1, 0, -1])
    assert fn.tv(p3, x) == 2 and fn.tv_plus(p3, x) == 2
    assert p3.two_e() * fn.sup_norm(x) == fn.tv(p3, x) + fn.tv_plus(p3, x)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = gr.cycle(n) if n >= 3 else gr.path(2)
        x = vec(g, [rng.randrange(-3, 4) for _ in range(g.n)])
        lhs = g.two_e() * fn.sup_norm(x)
        rhs = fn.tv(g, x) + fn.tv_plus(g, x)
        assert lhs >= rhs
        m = fn.sup_norm(x)
        extremes = {i for i in range(g.n) if abs(x[i]) == m}
        covers = all(u in extremes or v in extremes for u, v, _ in g.edges)
        if covers:
            assert lhs == rhs


def test_n_equals_l1_when_zero_is_median():
    g = gr.path(4)
    x = vec(g, [1, 0, 0, -1])
    lo, hi = fn.median_interval(g, x)
    assert lo <= 0 <= hi
    assert fn.median_distance(g, x) == fn.l1_mu_norm(g, x)


def test_ratio_objective_examples():
    p4 = gr.path(4)
    assert fn.ratio_objective("cheeger_tv", p4, vec(p4, [1, 1, 0, 0])) == F(1, 3)
    k2 = gr.path(2)
    assert fn.ratio_objective("dual", k2, vec(k2, [1, -1])) == 0
    st2 = gr.star_triangle(2)
    x = fn.indicator(st2, {0, 1}, {2, 3})
    assert fn.ratio_objective("maxcut_ratio", st2, x) == F(2, 3)


def test_ratio_objective_degenerate():
    p4 = gr.path(4)
    with pytest.raises(DegenerateDenominator):
        fn.ratio_objective("cheeger_tv", p4, vec(p4, [2, 2, 2, 2]))
    with pytest.raises(DegenerateDenominator):
        fn.ratio_objective("dual", p4, vec(p4, [0, 0, 0, 0]))


def test_ratio_objective_unknown_id():
    p4 = gr.path(4)
    with pytest.raises(UnknownProblem):
        fn.ratio_objective("no_such_ratio", p4, vec(p4, [1, 0, 0, 0]))


def test_rvector_file_roundtrip():
    g = gr.path(4)
    x = vec(g, [1, 0, F(-1, 3), 0])
    assert fn.parse_rvector(g, fn.emit_rvector(x)) == x
    assert fn.parse_rvector(g, "0 2\n") == (2, 0, 0, 0)
