import random
from fractions import Fraction as F

import pytest

from cutspec import eigen as eg
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import oracles as orc
from cutspec.errors import UnknownProblem, ZeroVector
from theorem_checks import as_rvector, binarize


def vec(g, vals):
    return as_rvector(g, vals)


def test_kernel_and_rejection():
    p3 = gr.path(3)
    ones = fn.indicator(p3, p3.vertices())
    assert eg.verify("one_lap", p3, 0, ones).verdict
    # nonconstant vectors are not in the kernel
    bad = eg.verify("one_lap", p3, 0, vec(p3, [1, 0, 0]))
    assert not bad.verdict and bad.violated


def test_verify_indicator_examples():
    p4 = gr.path(4)
    x = fn.indicator(p4, {0, 1}, {2, 3})
    rep = eg.verify("one_lap", p4, F(1, 3), x)
    assert rep.verdict
    assert not eg.verify("one_lap", p4, F(1, 2), x).verdict
    k3 = gr.complete(3)
    y = fn.indicator(k3, {0}, {1, 2})
    assert eg.verify("signless", k3, F(1, 3), y).verdict
    assert eg.verify("hat_signless", k3, F(1, 3), y).verdict
    st2 = gr.star_triangle(2)
    z = fn.indicator(st2, {0, 1}, st2.vertices() - {0, 1})
    assert eg.verify("maxcut_inf", st2, F(2, 3), z).verdict


def test_verify_zero_vector_rejected():
    p3 = gr.path(3)
    with pytest.raises(ZeroVector):
        eg.verify("one_lap", p3, 0, vec(p3, [0, 0, 0]))
    with pytest.raises(UnknownProblem):
        eg.verify("nope", p3, 0, vec(p3, [1, 0, 0]))


def test_witness_structure():
    p4 = gr.path(4)
    x = fn.indicator(p4, {0, 1}, {2, 3})
    rep = eg.verify("maxcut_inf", p4, F(1, 3), x)
    assert rep.verdict
    w = rep.witness
    assert set(w["z"]["z"]) == {f"{u},{v}" for u, v, _ in p4.edges}
    assert all(-1 <= val <= 1 for val in w["z"]["z"].values())
    assert all(0 <= p <= 1 for p in w["p"].values())
    volV = gr.vol(p4, range(4))
    assert sum(w["s"].values()) == F(1, 3) * volV


def rayleigh(sid, g, x):
    """The value of the ratio objective that eigenproblem sid belongs to."""
    return fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x)


def test_rayleigh_consistency():
    p4 = gr.path(4)
    x = fn.indicator(p4, {0, 1})
    assert rayleigh("one_lap", p4, x) == F(1, 3)
    assert rayleigh("one_lap", p4, x) != F(1, 2)
    k3 = gr.complete(3)
    y = fn.indicator(k3, {0}, {1, 2})
    assert rayleigh("signless", k3, y) == F(1, 3)


def test_binarize():
    p4 = gr.path(4)
    x = vec(p4, [2, 1, 0, -2])
    assert binarize("one_lap", p4, x) == (1, 1, 0, -1)
    assert binarize("one_lap", p4, x, variant="pm") == (1, 0, 0, -1)
    # sup-norm problems send non-extreme vertices to the complement side
    assert binarize("maxcut_inf", p4, x) == (1, -1, -1, -1)
    with pytest.raises(ZeroVector):
        binarize("one_lap", p4, vec(p4, [0, 0, 0, 0]))


def test_scan_examples():
    k2 = gr.path(2)
    vals = [lam for lam, _ in eg.spectrum_scan("maxcut_inf", k2)]
    assert vals == [0, 1]
    k3 = gr.complete(3)
    vals = [lam for lam, _ in eg.spectrum_scan("maxcut_inf", k3)]
    assert vals == [0, F(2, 3)]
    vals = [lam for lam, _ in eg.spectrum_scan("cheeger_new", k3)]
    assert vals[0] == 0 and vals[1] == orc.cheeger(k3).value


def test_scan_sorted_and_verified(small_corpus):
    for name, g in sorted(small_corpus.items()):
        if g.n > 6:
            continue
        for pid in ("maxcut_inf", "cheeger_new", "anti_cheeger"):
            entries = eg.spectrum_scan(pid, g)
            vals = [lam for lam, _ in entries]
            assert vals == sorted(vals) and len(set(vals)) == len(vals)
            for lam, cert in entries[:3]:
                a = cert.sets[0]
                x = fn.indicator(g, a, g.vertices() - a)
                if all(t == 0 for t in x):
                    x = fn.indicator(g, a)
                assert eg.verify(pid, g, lam, x).verdict


def test_ternary_scans_read_verdicts_only(small_corpus, monkeypatch):
    """The ternary scans build no Fraction point and no witness: with
    find_feasible and _witness made to raise, they return what they return
    otherwise."""
    graphs = [g for _, g in sorted(small_corpus.items()) if g.n <= 5]
    ids = ("signless", "one_lap", "hat_signless")
    want = [eg.spectrum_scan(sid, g) for g in graphs for sid in ids]

    def refuse(*args):
        raise AssertionError("a scan built a point or a witness")

    monkeypatch.setattr(eg, "find_feasible", refuse)
    monkeypatch.setattr(eg, "_witness", refuse)
    assert [eg.spectrum_scan(sid, g) for g in graphs for sid in ids] == want
    with pytest.raises(AssertionError):
        eg.verify("signless", gr.path(2), F(0), vec(gr.path(2), [1, -1]))


def test_ternary_scans_test_one_pair_per_mirror_class(small_corpus, monkeypatch):
    """No ternary scan tests the rows of (B, A) at a value where it tested
    those of (A, B): the two have one verdict."""
    graphs = [g for _, g in sorted(small_corpus.items()) if g.n <= 6]
    calls = []
    real = eg._rows_in_range

    def recorded(id, scaled, a, b, p, q):
        calls.append((a, b, p, q))
        return real(id, scaled, a, b, p, q)

    monkeypatch.setattr(eg, "_rows_in_range", recorded)
    for g in graphs:
        for sid in ("signless", "one_lap", "hat_signless"):
            calls.clear()
            eg.spectrum_scan(sid, g)
            tested = set(calls)
            assert calls and len(tested) == len(calls), sid
            assert not any((b, a, p, q) in tested for a, b, p, q in tested), sid


def test_maxcut_scan_gap():
    # consecutive scan values differ by at least 2 / vol(V)
    for g in (gr.path(4), gr.cycle(5), gr.star_triangle(2)):
        volV = gr.vol(g, range(g.n))
        vals = [lam for lam, _ in eg.spectrum_scan("maxcut_inf", g)]
        for a, b in zip(vals, vals[1:]):
            assert b - a >= F(2, volV)
        assert vals[0] == 0 and vals[-1] == orc.maxcut(g).value


def test_one_lap_median_vs_raw_agreement():
    # on ternary vectors the median form and the raw form agree
    g = gr.path(4)
    for a, b in ((frozenset({0, 1}), frozenset({2, 3})), (frozenset({0}), frozenset())):
        x = fn.indicator(g, a, b)
        lam = fn.ratio_objective("cheeger_tv", g, x)
        med = eg.verify("one_lap", g, lam, x).verdict
        raw = eg.verify("one_lap", g, lam, x, raw_one_lap=True).verdict
        assert med or raw  # median form is at least as permissive
        if raw:
            assert med


def test_one_lap_scan_inside_cheeger_new_scan(small_corpus):
    for name, g in sorted(small_corpus.items()):
        if g.n > 5:
            continue
        one = {lam for lam, _ in eg.spectrum_scan("one_lap", g)}
        new = {lam for lam, _ in eg.spectrum_scan("cheeger_new", g)}
        assert one <= new


def test_cheeger_new_min_nonzero_is_cheeger(small_corpus):
    for name, g in sorted(small_corpus.items()):
        vals = [lam for lam, _ in eg.spectrum_scan("cheeger_new", g)]
        nonzero = [v for v in vals if v != 0]
        assert nonzero[0] == orc.cheeger(g).value


def test_anti_scan_max_is_anti_cheeger(small_corpus):
    for name, g in sorted(small_corpus.items()):
        vals = [lam for lam, _ in eg.spectrum_scan("anti_cheeger", g)]
        assert vals[-1] == orc.anti_cheeger(g).value


def test_signless_scan_endpoints():
    for g in (gr.path(4), gr.complete(3), gr.cycle(5)):
        vals = [lam for lam, _ in eg.spectrum_scan("signless", g)]
        assert vals == sorted(vals)
        assert vals[0] == 1 - orc.dual_cheeger(g).value


def test_maxcut_subgradient_witness():
    # at a verified maxcut_inf pair the slacks certify a unit subgradient
    g = gr.star_triangle(2)
    a = {0, 1}
    x = fn.indicator(g, a, g.vertices() - a)
    lam = F(2, 3)
    rep = eg.verify("maxcut_inf", g, lam, x)
    assert rep.verdict
    volV = gr.vol(g, range(g.n))
    total = lam * volV
    assert sum(rep.witness["s"].values()) == total
    assert all(0 <= s <= total for s in rep.witness["s"].values())


def test_monotone_scaling_invariance():
    # verification is invariant under positive scaling of x
    g = gr.cycle(4)
    x = fn.indicator(g, {0, 1}, {2, 3})
    lam = fn.ratio_objective("maxcut_ratio", g, x)
    for t in (F(1, 2), 2, 7):
        y = tuple(t * v for v in x)
        assert eg.verify("maxcut_inf", g, lam, y).verdict


def test_random_vectors_rarely_verify():
    rng = random.Random(2)
    g = gr.cycle(5)
    hits = 0
    for _ in range(10):
        x = vec(g, [rng.randrange(-3, 4) for _ in range(5)])
        if all(t == 0 for t in x):
            continue
        lam = F(rng.randrange(1, 5), 7)
        if eg.verify("maxcut_inf", g, lam, x).verdict:
            hits += 1
    assert hits <= 2
