import functools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from cutspec import graph as gr
from cutspec import spectrum as sp
from cutspec.errors import BadK, IsolatedVertex, TooLarge

TOL = 1e-9


def close(a, b):
    return abs(a - b) <= 1e-8


def test_closed_form_spectra():
    k2 = sp.normalized_laplacian_spectrum(gr.path(2))
    assert close(k2.eigenvalues[0], 0) and close(k2.eigenvalues[1], 2)
    k3 = sp.normalized_laplacian_spectrum(gr.complete(3))
    assert close(k3.eigenvalues[0], 0)
    assert close(k3.eigenvalues[1], 1.5) and close(k3.eigenvalues[2], 1.5)
    c4 = sp.normalized_laplacian_spectrum(gr.cycle(4))
    expect = [0, 1, 1, 2]
    assert all(close(a, b) for a, b in zip(c4.eigenvalues, expect))


def test_residual_bound_small():
    for g in (gr.path(5), gr.petersen(), gr.star_triangle(3)):
        spec = sp.normalized_laplacian_spectrum(g)
        assert spec.residual_bound < 1e-10
        assert spec.eigenvectors.shape == (g.n, g.n)


def test_spectrum_range_and_kernel():
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randrange(2, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = gr.Graph.build(n, edges)
        if 0 in g.mu:  # the degree measure
            continue
        spec = sp.normalized_laplacian_spectrum(g, want_vectors=False)
        vals = spec.eigenvalues
        assert vals == sorted(vals)
        assert -TOL <= vals[0] and vals[-1] <= 2 + 1e-8
        ncomp = len(gr.connected_components(g))
        near_zero = sum(1 for v in vals if abs(v) < 1e-8)
        assert near_zero == ncomp


def test_two_is_eigenvalue_iff_bipartite():
    for g, bip in (
        (gr.cycle(4), True),
        (gr.path(5), True),
        (gr.cycle(5), False),
        (gr.complete(4), False),
        (gr.petersen(), False),
    ):
        vals = sp.normalized_laplacian_spectrum(g, want_vectors=False).eigenvalues
        assert (abs(vals[-1] - 2) < 1e-8) == bip


def test_guards():
    with pytest.raises(IsolatedVertex):
        sp.normalized_laplacian_spectrum(gr.Graph.build(3, [(0, 1)]))
    big = gr.path(65)
    with pytest.raises(TooLarge):
        sp.normalized_laplacian_spectrum(big)


def test_inequality_suite_holds_everywhere():
    graphs = [
        gr.path(4),
        gr.path(6),
        gr.cycle(5),
        gr.cycle(6),
        gr.complete(4),
        gr.star(5),
        gr.star_triangle(2),
        gr.petersen(),
    ]
    rng = random.Random(13)
    for _ in range(4):
        n = rng.randrange(4, 9)
        while True:
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = gr.Graph.build(n, edges)
            if gr.is_connected(g) and g.edges:
                break
        graphs.append(g)
    for g in graphs:
        for rep in sp.inequality_suite(g):
            assert rep.holds, (rep.name, rep.lhs, rep.mid, rep.rhs)


def test_forest_reports_present():
    names = {rep.name for rep in sp.inequality_suite(gr.path(6))}
    assert {"forest_sandwich_k1", "forest_sandwich_k2", "forest_sandwich_k3"} <= names
    names = {rep.name for rep in sp.inequality_suite(gr.cycle(5))}
    assert "sandwich_k1" in names and "forest_sandwich_k2" not in names


def test_kway_nodal_reports():
    for g in (gr.path(4), gr.complete(3), gr.cycle(5)):
        reps = sp.kway_nodal_reports(g)
        assert reps
        for rep in reps:
            assert rep.holds, (rep.name, rep.lhs, rep.mid)


@pytest.mark.parametrize(
    "name, eigenvalue",
    [
        ("cycle5.txt", F(1, 5)),
        ("random8a.txt", F(1, 11)),
        ("random8b.txt", F(2, 7)),
        ("complete4.txt", F(1, 3)),
        ("cycle4.txt", F(0)),
    ],
)
def test_kway_nodal_equality_decided_exactly(corpus, monkeypatch, name, eigenvalue):
    """At an eigenvalue c = 1 - h_1+ the report holds on the rationals, not
    through TOL: with TOL below zero, where the float test fails it, it
    still holds."""
    g = corpus[name]
    assert 1 - sp.oracles.k_way_dual_cheeger(g, 1).value == eigenvalue
    monkeypatch.setattr(sp, "TOL", -1e-12)
    (rep,) = [
        r for r in sp.kway_nodal_reports(g) if r.detail == {"m": 1, "eigenvalue": str(eigenvalue)}
    ]
    assert rep.lhs == rep.mid and rep.holds


def _kway_nodal_reports_per_eigenvalue(g):
    """kway_nodal_reports with one k-way oracle call per scanned eigenvalue:
    the reference for the one call per m."""
    out = []
    for value, cert in sp.spectrum_scan("signless", g):
        x = sp.indicator(g, *cert.sets)
        m = len(sp.analyze(g, x, "support_based").support_domains)
        try:
            hm = sp.oracles.k_way_dual_cheeger(g, m).value
        except (BadK, TooLarge):
            continue
        out.append(
            sp._report(
                f"kway_lower_m{m}",
                float(1 - hm),
                float(value),
                float("inf"),
                {"m": m, "eigenvalue": str(value)},
            )
        )
    return out


# scanned eigenvectors with 3, 1 and 1 support domains: the k-way oracle
# refuses m = 3 at n = 8 ((2m+1)^n is over its work cap) and answers m = 1
KWAY_REFUSES_M3 = gr.Graph.build(8, [(0, 1), (0, 6), (2, 5), (3, 4), (6, 7)])


def test_kway_nodal_reports_call_the_oracle_once_per_m(small_corpus, monkeypatch):
    """The k-way oracle runs once per distinct number m of support domains,
    a refused m included, and the reports are those of one call per
    eigenvalue."""
    real = sp.oracles.k_way_dual_cheeger
    graphs = [*small_corpus.values(), KWAY_REFUSES_M3]
    for g in graphs:
        want = _kway_nodal_reports_per_eigenvalue(g)
        calls = []
        monkeypatch.setattr(
            sp.oracles, "k_way_dual_cheeger", lambda g, k: calls.append(k) or real(g, k)
        )
        got = sp.kway_nodal_reports(g)
        monkeypatch.undo()
        assert got == want
        assert sorted(calls) == sorted(set(calls))
        ms = [
            len(sp.analyze(g, sp.indicator(g, *cert.sets), "support_based").support_domains)
            for _, cert in sp.spectrum_scan("signless", g)
        ]
        assert set(calls) == set(ms)
    assert calls == [3, 1] and len(got) == 2


def test_multiplicity_bounds():
    for g, alpha, eta in (
        (gr.path(2), 1, 1),
        (gr.path(5), 3, 3),
        (gr.cycle(6), 3, 3),
        (gr.cycle(5), 2, 3),
        (gr.petersen(), 4, 5),
    ):
        rep = sp.multiplicity_bounds_check(g)
        assert rep.holds
        assert rep.detail["alpha"] == alpha and rep.detail["eta"] == eta
    with pytest.raises(IsolatedVertex):
        sp.multiplicity_bounds_check(gr.Graph.build(3, [(0, 1)]))


def _dense_jacobi(a):
    """Reference Jacobi solver: a dense rotation matrix and three n x n
    products per rotation.  Also returns how often theta == 0."""
    n = a.shape[0]
    a = a.copy()
    v = np.eye(n)
    theta_zero = 0
    for _ in range(100):
        off = np.sqrt(np.sum((a - np.diag(np.diag(a))) ** 2))
        if off < sp.JACOBI_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < sp.JACOBI_TARGET / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1))
                if theta == 0:
                    t = 1.0
                    theta_zero += 1
                c = 1 / np.sqrt(t**2 + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return a, v, theta_zero


def _random_edges(rng, n, offset=0, weighted=False):
    """A random tree on n vertices plus random chords: no isolated vertex."""
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 2.5 / n:
                edges.add((i, j))
    out = []
    for i, j in sorted(edges):
        w = F(rng.randint(1, 9), rng.randint(1, 5)) if weighted else F(1)
        out.append((i + offset, j + offset, w))
    return out


def _jacobi_inputs(g, monkeypatch):
    seen = []
    solve = sp._jacobi

    def record(a):
        seen.append(a.copy())
        return solve(a)

    monkeypatch.setattr(sp, "_jacobi", record)
    sp.normalized_laplacian_spectrum(g)
    monkeypatch.undo()
    return seen


@functools.cache
def _dense_rotation_is_2x2(n):
    """Whether this BLAS computes the rows and columns p, q of the dense
    products rot.T @ b and b @ rot as the 2x2 products do, for every p < q.
    Some kernels sum the two products of an edge column without a fused
    multiply-add, and at such n the two solvers differ in the last bits."""
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    for p in range(n - 1):
        for q in range(p + 1, n):
            c, s = math.cos(p + q), math.sin(p + q)
            rot = np.eye(n)
            rot[p, p] = rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            r2 = np.array([[c, s], [-s, c]])
            if (rot.T @ b)[[p, q]].tobytes() != (r2.T @ b[[p, q]]).tobytes():
                return False
            if (b @ rot)[:, [p, q]].tobytes() != (b[:, [p, q]] @ r2).tobytes():
                return False
    return True


def test_jacobi_matches_dense_rotations(monkeypatch):
    """Bit for bit wherever this BLAS rotates like the 2x2 products."""
    rng = random.Random(2024)
    cases = []
    for n in list(range(2, 13)) + [16, 17, 20, 24, 32, 35, 48, 64]:
        cases.append((f"weighted{n}", gr.Graph.build(n, _random_edges(rng, n, weighted=True)), False))
    for n in (3, 5, 8, 11, 20, 40):
        cases.append((f"unweighted{n}", gr.Graph.build(n, _random_edges(rng, n)), False))
    for n1, n2, weighted in ((2, 2, False), (3, 4, True), (5, 6, False), (7, 10, True), (12, 17, False)):
        edges = _random_edges(rng, n1, weighted=weighted) + _random_edges(rng, n2, n1, weighted)
        g = gr.Graph.build(n1 + n2, edges)
        assert not gr.is_connected(g)
        cases.append((f"disconnected{n1}+{n2}", g, False))
    for n in (3, 4, 5, 6, 9, 16):
        cases.append((f"cycle{n}", gr.cycle(n), True))
    for n in (2, 3, 4, 7, 12):
        cases.append((f"complete{n}", gr.complete(n), True))
    cases.append(("petersen", gr.petersen(), True))
    bitwise = 0
    for name, g, regular in cases:
        (lap,) = _jacobi_inputs(g, monkeypatch)
        diag, vecs = sp._jacobi(lap)
        want_diag, want_vecs, theta_zero = _dense_jacobi(lap)
        if regular:
            assert theta_zero > 0, name
        if _dense_rotation_is_2x2(g.n):
            assert diag.tobytes() == want_diag.tobytes(), name
            assert vecs.tobytes() == want_vecs.tobytes(), name
            bitwise += 1
        else:
            vals = np.sort(np.diag(diag))
            assert np.max(np.abs(vals - np.sort(np.diag(want_diag)))) < 1e-12, name
            assert np.max(np.abs(lap @ vecs - vecs * np.diag(diag))) < 1e-12, name
    assert bitwise > 0
