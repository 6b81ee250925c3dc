"""The integer mask kernel against plain Fraction references.

The references below enumerate exactly as the rational loops did: every
candidate is scored with `fractions.Fraction` through `graph` and
`functionals`, and ties go to the smallest serialized certificate (for
Dinkelbach, to the first candidate in `graph.ternary_pairs` order; for its
local_flip step, to the first strict improvement in move order).  A zero
denominator is a ZeroDivisionError in a reference; the kernel must raise
the matching typed error instead.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutspec import dinkelbach as dk
from cutspec import eigen as eg
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import oracles as orc
from cutspec.errors import CutspecError, DegenerateDenominator, ZeroMeasure

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graphs(draw, max_n=6):
    """Small graphs: edgeless, with isolated vertices, rational weights, and
    either the degree measure or a custom one that may contain zeros."""
    n = draw(st.integers(2, max_n))
    weight = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = draw(st.one_of(st.none(), weight))
            if w is not None:
                edges.append((u, v, w))
    mu = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.fractions(min_value=0, max_value=2, max_denominator=2),
                min_size=n,
                max_size=n,
            ),
        )
    )
    return gr.Graph.build(n, edges, mu)


EDGELESS = gr.Graph.build(2, [])
ZERO_MU_PATH = gr.Graph.build(3, [(0, 1), (1, 2)], mu=[0, 1, 1])
WEIGHTED = gr.Graph.build(4, [(0, 1, F(1, 2)), (1, 2, F(3, 2)), (0, 3, 2)])


def outcome(fn, zero_error):
    """("ok", result) or ("err", exception type), a certificate's result
    being (value, serialized sets); a reference's ZeroDivisionError stands
    for zero_error."""
    try:
        res = fn()
    except ZeroDivisionError:
        return ("err", zero_error)
    except CutspecError as exc:
        return ("err", type(exc))
    if isinstance(res, orc.CutCertificate):
        res = (res.value, res.serialized())
    return ("ok", res)


def _sets(g, mask):
    return frozenset(i for i in range(g.n) if mask >> i & 1)


def _argbest(cands, maximize):
    """cands: (value, serialized key) pairs; best value, smallest key."""
    best = None
    for val, key in cands:
        if (
            best is None
            or (val > best[0] if maximize else val < best[0])
            or (val == best[0] and key < best[1])
        ):
            best = (val, key)
    return best


# -- references ---------------------------------------------------------------


def ref_subset(g, value, maximize):
    full = (1 << g.n) - 1

    def cands():
        for s in range(1, full, 2):
            a, b = _sets(g, s), _sets(g, full ^ s)
            yield value(gr.boundary(g, a), gr.vol(g, a), gr.vol(g, b)), (
                tuple(sorted(a)),
            )

    return _argbest(cands(), maximize)


REF_SUBSET = {
    "cheeger": (lambda c, va, vc: c / min(va, vc), False),
    "maxcut": (lambda c, va, vc: 2 * c / (va + vc), True),
    "mincut": (lambda c, va, vc: 2 * c / (va + vc), False),
    "anti_cheeger": (lambda c, va, vc: c / max(va, vc), True),
}


def ref_pair(g, modified):
    def cands():
        for a, b in product(range(1 << g.n), repeat=2):
            u = a | b
            if a & b or not u or not (u & -u) & a:
                continue
            sa, sb = _sets(g, a), _sets(g, b)
            bnd = gr.boundary(g, sa | sb) if modified else F(0)
            val = (2 * gr.cut_weight(g, sa, sb) + bnd) / (gr.vol(g, sa | sb) + bnd)
            yield val, (tuple(sorted(sa)), tuple(sorted(sb)))

    return _argbest(cands(), maximize=True)


def ref_k_way(g, k):
    def cands():
        for assign in product(range(2 * k + 1), repeat=g.n):
            sets = [frozenset(i for i in range(g.n) if assign[i] == s + 1) for s in range(2 * k)]
            pairs = list(zip(sets[::2], sets[1::2]))
            if any(not (a | b) for a, b in pairs):
                continue
            val = min(2 * gr.cut_weight(g, a, b) / gr.vol(g, a | b) for a, b in pairs)
            yield val, tuple(tuple(sorted(s)) for s in sets)

    return _argbest(cands(), maximize=True)


def ref_scan(g, value, include_trivial):
    full = (1 << g.n) - 1
    seen = {}
    for mask in range(1 << g.n):
        if not include_trivial and mask in (0, full):
            continue
        a = _sets(g, mask)
        val = value(a)
        key = tuple(sorted(a))
        if val not in seen or key < seen[val]:
            seen[val] = key
    return sorted(seen.items())


def _rest(g, a):
    return g.vertices() - a


def ref_cheeger_new_scan(g):
    out = ref_scan(
        g, lambda a: gr.boundary(g, a) / min(gr.vol(g, a), gr.vol(g, _rest(g, a))), False
    )
    if not out or out[0][0] != 0:
        out.insert(0, (F(0), tuple(range(g.n))))
    return out


REF_SCANS = {
    "maxcut_inf": lambda g: ref_scan(
        g, lambda a: 2 * gr.boundary(g, a) / gr.vol(g, range(g.n)), True
    ),
    "cheeger_new": ref_cheeger_new_scan,
    "anti_cheeger": lambda g: ref_scan(
        g,
        lambda a: gr.boundary(g, a) / max(gr.vol(g, a), gr.vol(g, _rest(g, a)))
        if 0 < len(a) < g.n
        else F(0),
        True,
    ),
}


def kernel_scan(sid, g):
    return [(v, cert.serialized()[0]) for v, cert in eg.spectrum_scan(sid, g)]


def ref_ternary_scan(sid, g):
    """Every ternary pair scored by ratio_objective and verified exactly,
    the smallest serialized pair kept per value; for one_lap the constant
    vector, outside the ratio's domain, is checked first."""
    seen = {}
    if sid == "one_lap" and eg.verify(sid, g, F(0), fn.indicator(g, g.vertices())).verdict:
        seen[F(0)] = (tuple(range(g.n)), ())
    for a, b in product(range(1 << g.n), repeat=2):
        if a & b or not a | b:
            continue
        sa, sb = _sets(g, a), _sets(g, b)
        x = fn.indicator(g, sa, sb)
        try:
            lam = fn.ratio_objective(eg.RATIO_OF_PROBLEM[sid], g, x)
        except DegenerateDenominator:
            continue
        key = (tuple(sorted(sa)), tuple(sorted(sb)))
        if lam in seen and seen[lam] <= key:
            continue
        if eg.verify(sid, g, lam, x).verdict:
            seen[lam] = key
    return [(lam, "set_pair", lam, key) for lam, key in sorted(seen.items())]


def kernel_ternary_scan(sid, g):
    return [(v, c.kind, c.value, c.serialized()) for v, c in eg.spectrum_scan(sid, g)]


def ref_dinkelbach(pid, g):
    """Exact-enumeration Dinkelbach with every candidate scored by the
    problem's f1, f2, g1 and g2 on the candidate vector."""
    p = dk.PROBLEMS[pid]
    q = lambda x: (p.f1(g, x) - p.f2(g, x)) / (p.g1(g, x) - p.g2(g, x))
    x = dk.project(p, tuple(F(int(i == 0)) for i in range(g.n)))
    r = q(x)
    iterations = [(r, None, x)]
    pairs = gr.ternary_pairs(g.n, p.domain_kind)
    while True:
        best = None
        for a, b in pairs:
            y = dk._pair_vector(g, a, b)
            val = p.f1(g, y) + r * p.g2(g, y) - p.f2(g, y) - r * p.g1(g, y)
            if best is None or (val > best[1] if p.opt == "max" else val < best[1]):
                best = ((a, b), val)
        (a, b), val = best
        x = dk._pair_vector(g, a, b)
        r_next = q(x)
        iterations.append((r_next, val, x))
        if r_next == r:
            return iterations, (a, b)
        r = r_next


def ref_flip_solve(pid, g, seed, restarts):
    """Dinkelbach with the local_flip inner step as a Fraction loop: every
    move scored by the problem's f1, f2, g1 and g2 on its vector, the same
    random starts, move order and strict-improvement rule; an infeasible
    start is repaired to the disjoint pair A ∋ 0, B ∋ 1."""
    p = dk.PROBLEMS[pid]
    n = g.n
    q = lambda x: (p.f1(g, x) - p.f2(g, x)) / (p.g1(g, x) - p.g2(g, x))
    better = (lambda a, b: a > b) if p.opt == "max" else (lambda a, b: a < b)

    def feasible(a, b):
        return bool(a and b) if p.domain_kind == "nonconstant_2cut" else bool(a or b)

    def value(a, b, r):
        y = dk._pair_vector(g, a, b)
        return p.f1(g, y) + r * p.g2(g, y) - p.f2(g, y) - r * p.g1(g, y)

    rng = random.Random(seed)
    x = dk.project(p, tuple(F(int(i == 0)) for i in range(n)))
    r = q(x)
    iterations = [(r, None, x)]
    while True:
        best = None
        for _ in range(restarts):
            a = b = 0
            for i in range(n):
                state = rng.randrange(3)
                a |= (state == 1) << i
                b |= (state == 2) << i
            if not feasible(a, b):
                a = (a | 1) & ~2
                b = (b | (2 if n > 1 else 0)) & ~1
            cur = value(a, b, r)
            improved = True
            while improved:
                improved = False
                for i in range(n):
                    bit = 1 << i
                    for na, nb in ((a | bit, b & ~bit), (a & ~bit, b | bit), (a & ~bit, b & ~bit)):
                        if (na, nb) == (a, b) or not feasible(na, nb):
                            continue
                        val = value(na, nb, r)
                        if better(val, cur):
                            a, b, cur, improved = na, nb, val, True
            if best is None or better(cur, best[1]):
                best = ((a, b), cur)
        (a, b), val = best
        x = dk._pair_vector(g, a, b)
        r_next = q(x)
        iterations.append((r_next, val, x))
        if r_next == r:
            return iterations, (a, b), True
        r = r_next


def kernel_flip_solve(pid, g, seed, restarts):
    tr = dk.solve(pid, g, inner="local_flip", seed=seed, restarts=restarts)
    a, b = (sum(1 << i for i in s) for s in tr.final.sets)
    assert tr.final.value == tr.iterations[-1]["r"]
    trace = [(it["r"], it["inner_value"], it["x"]) for it in tr.iterations]
    return trace, (a, b), tr.converged


def kernel_dinkelbach(pid, g):
    tr = dk.solve(pid, g)
    a, b = (sum(1 << i for i in s) for s in tr.final.sets)
    assert tr.converged and tr.final.value == tr.iterations[-1]["r"]
    return [(it["r"], it["inner_value"], it["x"]) for it in tr.iterations], (a, b)


# -- properties ----------------------------------------------------------------


@SETTINGS
@given(graphs())
@example(EDGELESS)
@example(ZERO_MU_PATH)
@example(WEIGHTED)
def test_subset_and_pair_oracles_match_reference(g):
    for name, (value, maximize) in REF_SUBSET.items():
        if name == "cheeger" and not gr.is_connected(g):
            continue
        got = outcome(lambda: getattr(orc, name)(g), ZeroMeasure)
        assert got == outcome(lambda: ref_subset(g, value, maximize), ZeroMeasure), name
    for name, modified in (("dual_cheeger", False), ("modified_dual_cheeger", True)):
        got = outcome(lambda: getattr(orc, name)(g), ZeroMeasure)
        assert got == outcome(lambda: ref_pair(g, modified), ZeroMeasure), name


@SETTINGS
@given(graphs(max_n=5), st.integers(1, 2))
@example(EDGELESS, 2)
@example(ZERO_MU_PATH, 1)
@example(WEIGHTED, 2)
def test_k_way_matches_reference(g, k):
    got = outcome(lambda: orc.k_way_dual_cheeger(g, k), ZeroMeasure)
    assert got == outcome(lambda: ref_k_way(g, k), ZeroMeasure)


@SETTINGS
@given(graphs())
@example(EDGELESS)
@example(ZERO_MU_PATH)
@example(WEIGHTED)
def test_sup_norm_scans_match_reference(g):
    for sid, ref in REF_SCANS.items():
        got = outcome(lambda: kernel_scan(sid, g), ZeroMeasure)
        assert got == outcome(lambda: ref(g), ZeroMeasure), sid


DISCONNECTED = gr.Graph.build(5, [(0, 1), (2, 3, F(1, 2)), (3, 4)])


@SETTINGS
@given(graphs(max_n=5))
@example(EDGELESS)
@example(ZERO_MU_PATH)
@example(WEIGHTED)
@example(DISCONNECTED)
def test_ternary_scans_match_reference(g):
    for sid in ("signless", "one_lap", "hat_signless"):
        got = outcome(lambda: kernel_ternary_scan(sid, g), ZeroMeasure)
        assert got == outcome(lambda: ref_ternary_scan(sid, g), ZeroMeasure), sid


@pytest.mark.parametrize("kind", ["nonzero", "nonconstant_2cut"])
def test_ternary_pairs_in_certificate_order(kind):
    for n in range(5):
        pairs = [
            (a, b)
            for a, b in product(range(1 << n), repeat=2)
            if not a & b and {"nonzero": a | b, "nonconstant_2cut": a and b}[kind]
        ]
        pairs.sort(key=lambda ab: tuple(tuple(i for i in range(n) if m >> i & 1) for m in ab))
        assert gr.ternary_pairs(n, kind) == pairs


@SETTINGS
@given(graphs(max_n=5), st.sampled_from(sorted(dk.PROBLEMS)))
@example(EDGELESS, "dual")
@example(ZERO_MU_PATH, "dual")
@example(ZERO_MU_PATH, "cheeger_tv")
@example(WEIGHTED, "anti")
def test_dinkelbach_iterations_match_reference(g, pid):
    got = outcome(lambda: kernel_dinkelbach(pid, g), DegenerateDenominator)
    assert got == outcome(lambda: ref_dinkelbach(pid, g), DegenerateDenominator)


@SETTINGS
@given(
    graphs(),
    st.sampled_from(sorted(dk.PROBLEMS)),
    st.integers(0, 3),
    st.sampled_from((1, 3, 8)),
)
@example(EDGELESS, "dual", 0, 8)
@example(ZERO_MU_PATH, "cheeger_tv", 1, 3)
@example(ZERO_MU_PATH, "mdual", 2, 8)
@example(WEIGHTED, "anti", 0, 8)
@example(DISCONNECTED, "cheeger_new", 3, 8)
def test_local_flip_iterations_match_reference(g, pid, seed, restarts):
    got = outcome(lambda: kernel_flip_solve(pid, g, seed, restarts), DegenerateDenominator)
    want = outcome(lambda: ref_flip_solve(pid, g, seed, restarts), DegenerateDenominator)
    assert got == want


def test_lazy_mask_tables_match_mask_tables():
    for g in (EDGELESS, ZERO_MU_PATH, WEIGHTED, DISCONNECTED):
        d, cut, deg, vol = gr.mask_tables(g)
        lazy = gr.lazy_mask_tables(g)
        assert lazy[0] == d
        masks = range(len(cut) - 1, -1, -1)  # largest first fills by chains
        assert [(lazy[1][m], lazy[2][m], lazy[3][m]) for m in masks] == [
            (cut[m], deg[m], vol[m]) for m in masks
        ]
        assert (lazy[2][-1], lazy[3][-1]) == (deg[-1], vol[-1])


def test_mask_tables_small_example():
    d, cut, deg, vol = gr.mask_tables(WEIGHTED)
    assert d == 2
    # vertex 0 has edges of weight 1/2 and 2; S = {0, 1} cuts 3/2 + 2
    assert cut[0b0011] == 2 * (F(3, 2) + 2)
    assert deg[0b0001] == 2 * (F(1, 2) + 2)
    assert vol == [d * gr.vol(WEIGHTED, _sets(WEIGHTED, m)) for m in range(16)]
    assert gr.mask_members(3) == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]


@pytest.mark.parametrize("g", [EDGELESS, ZERO_MU_PATH])
def test_zero_measure_is_typed(g):
    with pytest.raises(ZeroMeasure):
        orc.dual_cheeger(g)
    with pytest.raises(ZeroMeasure):
        orc.k_way_dual_cheeger(g, 1)
    with pytest.raises(DegenerateDenominator):
        dk.solve("dual", g)
