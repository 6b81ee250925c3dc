"""End-to-end acceptance battery.

One test per criterion; each prints a single pass line when it completes
so a verbose run reads as a checklist.  Graph sizes and work caps match
the exact solvers: subset scans up to n = 8, pair oracles up to n = 10,
partition enumerations only where the work bound allows.
"""

import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from cutspec import dinkelbach as dk
from cutspec import eigen as eg
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import nodal as nd
from cutspec import oracles as orc
from cutspec import spectrum as sp
from cutspec.errors import DegenerateDenominator
from theorem_checks import boundary, check_max_eigvec_structure, check_null_symmetry

CORPUS = Path(__file__).parent.parent / "corpus"


def _passed(n, note=""):
    line = f"criterion {n}: PASS" + (f" ({note})" if note else "")
    print(line, file=sys.stderr)


def _ternary_vectors(g):
    n = g.n
    for mask_a in range(1 << n):
        rest = ~mask_a & ((1 << n) - 1)
        mask_b = rest
        while True:
            if mask_a or mask_b:
                yield fn.indicator(
                    g,
                    frozenset(i for i in range(n) if mask_a >> i & 1),
                    frozenset(i for i in range(n) if mask_b >> i & 1),
                )
            if mask_b == 0:
                break
            mask_b = (mask_b - 1) & rest


def test_criterion_1_ratio_equivalence(small_corpus):
    start = time.monotonic()
    problems = sorted(fn.PROBLEMS)
    for name, g in sorted(small_corpus.items()):
        best = {pid: None for pid in problems}
        for x in _ternary_vectors(g):
            for pid in problems:
                try:
                    val = fn.ratio_objective(pid, g, x)
                except DegenerateDenominator:
                    continue
                opt = fn.PROBLEMS[pid].opt
                if (
                    best[pid] is None
                    or (val > best[pid] if opt == "max" else val < best[pid])
                ):
                    best[pid] = val
        for pid in problems:
            assert best[pid] == orc.ratio_oracle(pid, g).value, (name, pid)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _passed(1, f"{len(small_corpus)} graphs, {elapsed:.1f}s")


def test_criterion_2_dinkelbach_exactness(small_corpus):
    for name, g in sorted(small_corpus.items()):
        for pid, problem in fn.PROBLEMS.items():
            trace = dk.solve(pid, g, cap=8)
            assert trace.converged, (name, pid)
            assert trace.final.value == orc.ratio_oracle(pid, g).value, (name, pid)
            rs = [it["r"] for it in trace.iterations]
            deltas = [b - a for a, b in zip(rs, rs[1:])]
            if problem.opt == "min":
                assert all(d <= 0 for d in deltas)
            else:
                assert all(d >= 0 for d in deltas)
            assert len(rs) == len(set(rs)) + 1
    _passed(2, f"{len(small_corpus)} graphs x {len(fn.PROBLEMS)} problems")


def test_criterion_3_eigenpair_constructors(small_corpus):
    rejections = 0
    total = 0
    for name, g in sorted(small_corpus.items()):
        volV = gr.vol(g, range(g.n))
        verts = g.vertices()
        for mask in range(1, 1 << g.n):
            a = frozenset(i for i in range(g.n) if mask >> i & 1)
            x = fn.indicator(g, a, verts - a)
            bnd = boundary(g, a)
            cases = [("maxcut_inf", 2 * bnd / volV)]
            if a != verts:
                va, vc = gr.vol(g, a), gr.vol(g, verts - a)
                cases.append(("cheeger_new", bnd / min(va, vc)))
                cases.append(("anti_cheeger", bnd / max(va, vc)))
            for pid, lam in cases:
                total += 1
                if not eg.verify(pid, g, lam, x).verdict:
                    rejections += 1
    assert rejections == 0
    _passed(3, f"{total} constructor pairs, 0 rejections")


def test_criterion_4_spectral_identities(corpus):
    for name, g in sorted(corpus.items()):
        if g.n > 12:
            continue
        volV = gr.vol(g, range(g.n))
        cscan = [v for v, _ in eg.spectrum_scan("cheeger_new", g)]
        assert min(v for v in cscan if v != 0) == orc.cheeger(g).value, name
        mscan = [v for v, _ in eg.spectrum_scan("maxcut_inf", g)]
        assert mscan[-1] == orc.maxcut(g).value, name
        assert volV * mscan[1] == orc.minmax_k_cut(g, 2).value, name
        if (g.n + 1) ** g.n * (1 << g.n) <= orc.DEFAULT_WORK_CAP:
            assert volV * mscan[-1] == orc.minmax_k_cut(g, g.n).value, name
        if g.n <= 9:
            sscan = [v for v, _ in eg.spectrum_scan("signless", g)]
            assert sscan[0] == 1 - orc.dual_cheeger(g).value, name
    _passed(4)


def _structure_pairs(g):
    """Verified (problem, lam, x) triples from the indicator scans plus a
    ternary sweep on the smallest graphs for non-trivial null domains."""
    verts = g.vertices()
    for pid in ("maxcut_inf", "cheeger_new", "anti_cheeger"):
        for lam, cert in eg.spectrum_scan(pid, g):
            a = cert.sets[0]
            x = fn.indicator(g, a, verts - a)
            if all(t == 0 for t in x):
                x = fn.indicator(g, a)
            rep = eg.verify(pid, g, lam, x)
            if rep.verdict:
                yield pid, lam, x, rep
    if g.n <= 5:
        for x in _ternary_vectors(g):
            try:
                lam = fn.ratio_objective("maxcut_ratio", g, x)
            except DegenerateDenominator:
                continue
            rep = eg.verify("maxcut_inf", g, lam, x)
            if rep.verdict:
                yield "maxcut_inf", lam, x, rep


def test_criterion_5_structure_theorems(small_corpus):
    checked = 0
    for name, g in sorted(small_corpus.items()):
        lam_max = orc.maxcut(g).value
        h = orc.cheeger(g).value
        for pid, lam, x, rep in _structure_pairs(g):
            assert check_null_symmetry(g, x, rep), (name, pid, lam)
            nrep = nd.analyze(g, x, "sup_norm_based")
            if pid == "cheeger_new" and lam == h:
                assert nrep.S0 <= 2, (name, lam)
            if pid == "maxcut_inf" and lam == lam_max:
                out = check_max_eigvec_structure(
                    g, x, rep, pid, flip_closure=g.n <= 6
                )
                assert out["d_zero_edgeless"], name
                assert out.get("sprime_bound", True), name
                assert out.get("flip_closure", True), name
            checked += 1
    assert checked > 0
    _passed(5, f"{checked} verified eigenpairs")


def test_criterion_6_star_triangle_family():
    for k in (1, 2, 3):
        g = gr.star_triangle(k)
        x = [F(0)] * g.n
        for i in range(k):
            x[i] = F(1)
            x[k + i] = F(-1)
        x = tuple(x)
        lam = F(4 * k, gr.vol(g, range(g.n)))
        assert lam == F(2, 3)
        assert eg.verify("maxcut_inf", g, lam, x).verdict
        assert nd.analyze(g, x, "sup_norm_based").Sprime == k
        assert orc.maxcut(g).value == lam
    _passed(6, "k in {1, 2, 3}")


def test_criterion_7_inequality_suite():
    import random

    start = time.monotonic()
    graphs = [gr.path(n) for n in range(2, 9)]
    graphs += [gr.star(n) for n in (4, 6, 8)]
    rng = random.Random(19)
    for _ in range(6):
        n = rng.randrange(4, 11)
        while True:
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = gr.Graph.build(n, edges)
            if g.edges and gr.is_connected(g):
                break
        graphs.append(g)
    for g in graphs:
        for rep in sp.inequality_suite(g):
            assert rep.holds, (g.n, rep.name, rep.lhs, rep.mid, rep.rhs)
        if g.n <= 6:
            for rep in sp.kway_nodal_reports(g):
                assert rep.holds, (g.n, rep.name)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _passed(7, f"{len(graphs)} graphs, {elapsed:.1f}s")


def test_criterion_8_petersen_desk_numbers():
    g = gr.petersen()
    cert = orc.maxcut(g)
    assert cert.value == F(4, 5)
    assert boundary(g, cert.sets[0]) == 12
    # independent second path: the scanned eigenvalue family
    scan_max = eg.spectrum_scan("maxcut_inf", g)[-1][0]
    assert scan_max == F(4, 5)
    alpha, witness = gr.independence_number(g)
    assert alpha == 4
    assert all(
        u not in witness or v not in witness for u, v, _ in g.edges
    )
    assert orc.maxcut(g) == orc.maxcut(g)
    _passed(8, "h_max = 4/5, alpha = 4")


def test_criterion_9_suite_determinism(tmp_path):
    mini = tmp_path / "mini"
    mini.mkdir()
    for name in ("path4.txt", "complete3.txt", "cycle5.txt", "star_triangle_2.txt"):
        (mini / name).write_text((CORPUS / name).read_text())

    def run(workers):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "cutspec.cli",
                "suite",
                "--dir",
                str(mini),
                "--workers",
                str(workers),
            ],
            capture_output=True,
            text=True,
        )

    first, second, parallel = run(1), run(1), run(2)
    assert first.returncode == second.returncode == parallel.returncode == 0
    assert first.stdout == second.stdout == parallel.stdout
    assert first.stdout.strip()
    _passed(9, "byte-identical across runs and worker counts")
