from fractions import Fraction as F

import pytest

from cutspec import eigen as eg
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import nodal as nd
from cutspec.errors import ZeroVector
from theorem_checks import (
    NotVerified,
    as_rvector,
    check_max_eigvec_structure,
    check_null_symmetry,
    split,
)


def vec(g, vals):
    return as_rvector(g, vals)


def test_conventions_on_path3():
    p3 = gr.path(3)
    x = vec(p3, [1, 0, -1])
    sign = nd.analyze(p3, x, "sign_based")
    assert sign.S == 2 and sign.S0 == 1
    support = nd.analyze(p3, x, "support_based")
    assert support.S == 2 and support.S0 == 1
    sup = nd.analyze(p3, x, "sup_norm_based")
    assert sup.S == 2 and sup.S0 == 1
    assert sup.d_plus == {0} and sup.d_minus == {2} and sup.d_zero == {1}


def test_support_vs_sign_counts():
    # adjacent opposite signs merge under the support convention
    p2 = gr.path(2)
    x = vec(p2, [1, -1])
    assert nd.analyze(p2, x, "sign_based").S == 2
    assert nd.analyze(p2, x, "support_based").S == 1


def test_sup_norm_classes_differ_from_sign():
    p3 = gr.path(3)
    x = vec(p3, [2, 1, -2])
    sup = nd.analyze(p3, x, "sup_norm_based")
    assert sup.d_plus == {0} and sup.d_minus == {2} and sup.d_zero == {1}
    assert nd.analyze(p3, x, "sign_based").S == 2


def test_zero_vector_rejected():
    p3 = gr.path(3)
    with pytest.raises(ZeroVector):
        nd.analyze(p3, vec(p3, [0, 0, 0]))


def test_star_triangle_extreme_vector():
    g = gr.star_triangle(2)
    # both triangle pairs at the extremes, hub at zero
    x = vec(g, [1, 1, 1, 1, 0])
    rep = nd.analyze(g, x, "sup_norm_based")
    assert rep.Sprime == 2
    assert rep.d_zero == {4} and rep.null_domains == [{4}]
    assert rep.N_nonsingleton == 0
    a, b = split(rep, rep.pm_domains[0])
    assert a | b == rep.pm_domains[0]


def test_split_by_membership():
    c4 = gr.cycle(4)
    x = vec(c4, [1, -1, 1, -1])
    rep = nd.analyze(c4, x, "sup_norm_based")
    assert rep.Sprime == 1
    a, b = split(rep, rep.pm_domains[0])
    assert a == {0, 2} and b == {1, 3}


def test_checks_require_verification():
    p4 = gr.path(4)
    x = fn.indicator(p4, {0, 1}, {2, 3})
    bad = eg.verify("one_lap", p4, F(1, 2), x)  # wrong eigenvalue
    with pytest.raises(NotVerified):
        check_null_symmetry(p4, x, bad)
    good = eg.verify("maxcut_inf", p4, F(1, 3), x)
    other = fn.indicator(p4, {0}, {1, 2, 3})
    with pytest.raises(NotVerified):
        check_max_eigvec_structure(p4, other, good, "maxcut_inf")


def test_null_symmetry_on_verified_pair():
    g = gr.star_triangle(2)
    x = vec(g, [1, -1, 1, -1, 0])
    lam = fn.ratio_objective("maxcut_ratio", g, x)
    rep = eg.verify("maxcut_inf", g, lam, x)
    assert rep.verdict
    assert check_null_symmetry(g, x, rep)


def test_structure_checks_star_triangle():
    for k in (1, 2, 3):
        g = gr.star_triangle(k)
        x = [F(0)] * g.n
        for i in range(k):
            x[i] = F(1)
            x[k + i] = F(-1)
        x = tuple(x)
        lam = fn.ratio_objective("maxcut_ratio", g, x)
        assert lam == F(2, 3)
        rep = eg.verify("maxcut_inf", g, lam, x)
        assert rep.verdict
        out = check_max_eigvec_structure(g, x, rep, "maxcut_inf")
        assert out["boundary_balance"]
        assert out["null_vertex_balance"]
        assert out["d_zero_edgeless"]
        assert out["null_singletons"]
        assert out["sprime_bound"]
        assert out["flip_closure"]
        assert nd.analyze(g, x, "sup_norm_based").Sprime == k


def test_courant_bounds():
    p4 = gr.path(4)
    x = fn.indicator(p4, {0, 1}, {2, 3})
    rep = eg.verify("one_lap", p4, F(1, 3), x)
    assert rep.verdict
    out = check_max_eigvec_structure(
        p4, x, rep, "one_lap", k=2, r=1, flip_closure=False
    )
    assert out["courant_S"] and out["courant_S0"]
    assert "flip_closure" not in out
