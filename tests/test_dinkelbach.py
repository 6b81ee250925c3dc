import random
from itertools import product
from fractions import Fraction as F

import pytest

from cutspec import dinkelbach as dk
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import oracles as orc
from cutspec.errors import NotInOmega, TooLarge, UnknownProblem


def monotone(trace, opt):
    rs = [it["r"] for it in trace.iterations]
    pairs = list(zip(rs, rs[1:]))
    return all(b <= a for a, b in pairs) if opt == "min" else all(b >= a for a, b in pairs)


def test_exact_matches_oracles_small():
    for g in (gr.path(4), gr.complete(3), gr.star_triangle(2), gr.cycle(5)):
        for pid, problem in dk.PROBLEMS.items():
            trace = dk.solve(pid, g)
            assert trace.converged
            assert trace.final.value == orc.ratio_oracle(pid, g).value
            assert monotone(trace, problem.opt)


def test_finite_termination_bound():
    # strictly monotone r values, hence at most one step per candidate pair
    g = gr.cycle(4)
    for pid in dk.PROBLEMS:
        trace = dk.solve(pid, g)
        rs = [it["r"] for it in trace.iterations]
        assert len(rs) == len(set(rs)) + 1  # only the last value repeats
        assert len(rs) <= len(gr.ternary_pairs(g.n, dk.PROBLEMS[pid].domain_kind)) + 2


def test_iterates_stay_in_omega():
    g = gr.path(4)
    for pid, problem in dk.PROBLEMS.items():
        trace = dk.solve(pid, g)
        for it in trace.iterations:
            assert dk.in_omega(problem, it["x"])


def test_in_omega_examples():
    p = dk.PROBLEMS["cheeger_tv"]
    g = gr.path(2)
    assert dk.in_omega(p, (F(1, 2), F(-1, 2)))
    assert not dk.in_omega(p, (F(1), F(0)))  # not balanced
    assert not dk.in_omega(p, (F(1), F(-1)))  # wrong norm
    q = dk.PROBLEMS["dual"]
    assert dk.in_omega(q, (F(1), F(0)))


def test_project():
    p = dk.PROBLEMS["cheeger_tv"]
    g = gr.path(3)
    x = dk.project(p, (F(3), F(1), F(1)))
    assert dk.in_omega(p, x)
    with pytest.raises(NotInOmega):
        dk.project(p, (F(2), F(2), F(2)))  # balancing collapses constants
    q = dk.PROBLEMS["maxcut_ratio"]
    y = dk.project(q, (F(2), F(2), F(2)))
    assert dk.in_omega(q, y)


def test_custom_start_and_errors():
    g = gr.path(4)
    trace = dk.solve("cheeger_tv", g, x0=(F(1), F(1), F(-1), F(-1)))
    assert trace.final.value == orc.cheeger(g).value
    with pytest.raises(UnknownProblem):
        dk.solve("nope", g)
    with pytest.raises(UnknownProblem):
        dk.solve("cheeger_tv", g, inner="nope")
    with pytest.raises(TooLarge):
        dk.solve("cheeger_tv", gr.cycle(6), cap=5)


def test_local_flip_sound_and_often_exact():
    # heuristic never reports a value on the wrong side of the optimum
    for g in (gr.path(4), gr.complete(3), gr.cycle(5)):
        for pid, problem in dk.PROBLEMS.items():
            trace = dk.solve(pid, g, inner="local_flip", seed=3, restarts=24)
            assert trace.converged
            exact = orc.ratio_oracle(pid, g).value
            if problem.opt == "min":
                assert trace.final.value >= exact
            else:
                assert trace.final.value <= exact


def _overlap_starts(n, seed, restarts):
    """Random starts of the first flip step with A empty and vertex 0 in B,
    the case whose repair must take 0 out of B; the step draws one state in
    {neither, A, B} per vertex and restart."""
    rng = random.Random(seed)
    states = [[rng.randrange(3) for _ in range(n)] for _ in range(restarts)]
    return sum(1 not in s and s[0] == 2 for s in states)


def test_local_flip_iterates_in_omega_with_disjoint_sets():
    graphs = (
        gr.path(3),
        gr.path(4),
        gr.cycle(4),
        gr.complete(4),
        gr.star(5),
        gr.Graph.build(4, [(0, 1), (2, 3, F(1, 2))]),
    )
    overlap_starts = 0
    for g in graphs:
        for pid, problem in dk.PROBLEMS.items():
            for seed, restarts in product(range(12), (1, 16)):
                trace = dk.solve(pid, g, inner="local_flip", seed=seed, restarts=restarts)
                for it in trace.iterations:
                    assert dk.in_omega(problem, it["x"]), (pid, seed, it)
                a, b = trace.final.sets
                assert not a & b and a | b, (pid, seed)
                if problem.domain_kind == "nonconstant_2cut":
                    overlap_starts += _overlap_starts(g.n, seed, restarts)
    assert overlap_starts >= 50


def test_stationary_check_at_convergence():
    for g in (gr.path(4), gr.complete(3), gr.star_triangle(2)):
        for pid in dk.PROBLEMS:
            trace = dk.solve(pid, g)
            x = trace.iterations[-1]["x"]
            assert dk.stationary_check(pid, g, trace.final.value, x)


def test_certificate_reevaluates():
    g = gr.star_triangle(2)
    trace = dk.solve("maxcut_ratio", g)
    a, b = trace.final.sets
    x = fn.indicator(g, a, b)
    assert fn.ratio_objective("maxcut_ratio", g, x) == trace.final.value
