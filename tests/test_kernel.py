"""The integer mask kernel against plain Fraction references.

The references below enumerate exactly as the rational loops did: every
candidate is scored with `fractions.Fraction` through `graph` and
`functionals`, and ties go to the smallest serialized certificate (for
Dinkelbach, to the first candidate in `graph.ternary_pairs` order; for its
local_flip step, to the first strict improvement in move order).  A zero
denominator is a ZeroDivisionError in a reference; the kernel must raise
the matching typed error instead.  The fraction-free simplex is held to
the dense Fraction tableau it replaced, and the integer systems of
eigen.verify, as rationals, to the Fraction systems of the builders it
replaced.
"""

import gc
import math
import random
import weakref
from fractions import Fraction
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutspec import dinkelbach as dk
from cutspec import eigen as eg
from cutspec import functionals as fn
from cutspec import graph as gr
from cutspec import oracles as orc
from cutspec.eigen import EigenpairReport, _sign
from cutspec.errors import (
    BadK,
    CutspecError,
    DegenerateDenominator,
    TooLarge,
    UnknownProblem,
    ZeroMeasure,
    ZeroVector,
)
from cutspec.functionals import RVector
from cutspec.graph import Graph, vol
from cutspec.nodal import _sup_norm_classes
from cutspec.simplex import _rows_in_reach, find_feasible
import dinkelbach_reference as ref
from fraction_systems import System, int_system, rationals
from theorem_checks import as_rvector, boundary, cut_weight

ZERO = F(0)
ONE = F(1)

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
ZERO_MU_EDGE = gr.Graph.build(3, [(0, 1)], mu=[0, 0, 1])  # ({0}, {1}) is 2/0
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
    """A bipartition of denominator 0 is left out of a minimum (0/0 lies
    outside the ratio's domain, a positive numerator over 0 is +inf) and
    of a maximum when it is 0/0."""
    full = (1 << g.n) - 1

    def cands():
        for s in range(1, full, 2):
            a, b = _sets(g, s), _sets(g, full ^ s)
            num, den = value(boundary(g, a), gr.vol(g, a), gr.vol(g, b))
            if den or maximize and num:
                yield num / den, (tuple(sorted(a)),)

    best = _argbest(cands(), maximize)
    if best is None:
        raise ZeroDivisionError("no bipartition in the ratio's domain")
    return best


REF_SUBSET = {
    "cheeger": (lambda c, va, vc: (c, min(va, vc)), False),
    "maxcut": (lambda c, va, vc: (2 * c, va + vc), True),
    "mincut": (lambda c, va, vc: (2 * c, va + vc), False),
    "anti_cheeger": (lambda c, va, vc: (c, max(va, vc)), True),
}


def ref_pair(g, modified):
    def cands():
        for a, b in product(range(1 << g.n), repeat=2):
            u = a | b
            if a & b or not u or not (u & -u) & a:
                continue
            sa, sb = _sets(g, a), _sets(g, b)
            bnd = boundary(g, sa | sb) if modified else F(0)
            num = 2 * cut_weight(g, sa, sb) + bnd
            den = gr.vol(g, sa | sb) + bnd
            if num or den:  # a 0/0 pair lies outside the ratio's domain
                yield num / den, (tuple(sorted(sa)), tuple(sorted(sb)))

    best = _argbest(cands(), maximize=True)
    if best is None:
        raise ZeroDivisionError("every pair is 0/0")
    return best


def ref_k_way(g, k):
    def cands():
        for assign in product(range(2 * k + 1), repeat=g.n):
            sets = [frozenset(i for i in range(g.n) if assign[i] == s + 1) for s in range(2 * k)]
            pairs = list(zip(sets[::2], sets[1::2]))
            if any(not (a | b) for a, b in pairs):
                continue
            val = min(2 * cut_weight(g, a, b) / gr.vol(g, a | b) for a, b in pairs)
            yield val, tuple(tuple(sorted(s)) for s in sets)

    return _argbest(cands(), maximize=True)


# the rational min-max k-cut loop that graph.mask_tables replaced, unchanged
def _best(kind, candidates, maximize):
    """candidates: iterable of (value, sets tuple); deterministic tie-break."""
    best = None
    for value, sets in candidates:
        key = tuple(tuple(sorted(s)) for s in sets)
        if (
            best is None
            or (value > best[0] if maximize else value < best[0])
            or (value == best[0] and key < best[2])
        ):
            best = (value, sets, key)
    if best is None:
        return None
    return orc.CutCertificate(kind=kind, sets=best[1], value=best[0])


def _mc_value(g, blocks, rest):
    """MC of a subpartition: twice the best bipartition-of-blocks cut plus
    the total boundary toward the unassigned rest."""
    k = len(blocks)
    pair = [[F(0)] * k for _ in range(k)]
    to_rest = [F(0)] * k
    idx = {}
    for bi, blk in enumerate(blocks):
        for v in blk:
            idx[v] = bi
    for u, v, w in g.edges:
        bu, bv = idx.get(u), idx.get(v)
        if bu is not None and bv is not None and bu != bv:
            pair[bu][bv] += w
            pair[bv][bu] += w
        elif bu is not None and bv is None:
            to_rest[bu] += w
        elif bv is not None and bu is None:
            to_rest[bv] += w
    best = F(0)
    for smask in range(1 << k):
        cross = sum(
            (
                pair[i][j]
                for i in range(k)
                for j in range(k)
                if smask >> i & 1 and not smask >> j & 1
            ),
            F(0),
        )
        best = max(best, cross)
    return 2 * best + sum(to_rest, F(0))


def ref_minmax(g, k, require_partition=False, work_cap=orc.DEFAULT_WORK_CAP):
    if k < 1 or k > g.n:
        raise BadK(f"k={k} outside [1, n]")
    states = k if require_partition else k + 1
    work = states**g.n * (1 << k)
    if work > work_cap:
        raise TooLarge(f"minmax {k}-cut work {work} exceeds cap {work_cap}")
    offset = 0 if require_partition else 1

    def gen():
        for assign in product(range(states), repeat=g.n):
            blocks = tuple(
                frozenset(i for i in range(g.n) if assign[i] == b + offset)
                for b in range(k)
            )
            if any(not blk for blk in blocks):
                continue
            rest = (
                frozenset()
                if require_partition
                else frozenset(i for i in range(g.n) if assign[i] == 0)
            )
            yield _mc_value(g, blocks, rest), blocks

    kind = "partition" if require_partition else "subpartition"
    cert = _best(kind, gen(), maximize=False)
    if cert is None:
        raise BadK(f"no subpartition with {k} nonempty blocks")
    return cert


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
        g, lambda a: boundary(g, a) / min(gr.vol(g, a), gr.vol(g, _rest(g, a))), False
    )
    if not out or out[0][0] != 0:
        out.insert(0, (F(0), tuple(range(g.n))))
    return out


REF_SCANS = {
    "maxcut_inf": lambda g: ref_scan(
        g, lambda a: 2 * boundary(g, a) / gr.vol(g, range(g.n)), True
    ),
    "cheeger_new": ref_cheeger_new_scan,
    "anti_cheeger": lambda g: ref_scan(
        g,
        lambda a: boundary(g, a) / max(gr.vol(g, a), gr.vol(g, _rest(g, a)))
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
            lam = fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x)
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


def _zero(g, x):
    return F(0)


# Dinkelbach's split Q = (f1 - f2)/(g1 - g2) of each ratio: (f1, f2, g1, g2)
SPLITS = {
    "cheeger_tv": (fn.tv, _zero, fn.median_distance, _zero),
    "cheeger_new": (
        lambda g, x: g.two_e() * fn.sup_norm(x), fn.tv_plus, fn.median_distance, _zero
    ),
    "dual": (fn.tv_plus, _zero, fn.l1_mu_norm, _zero),
    "mdual": (fn.tv_plus, _zero, lambda g, x: fn.tv_plus(g, x) + fn.tv(g, x), _zero),
    "maxcut_ratio": (
        fn.tv, _zero, lambda g, x: gr.vol(g, range(g.n)) * fn.sup_norm(x), _zero
    ),
    "anti": (
        fn.tv,
        _zero,
        lambda g, x: 2 * gr.vol(g, range(g.n)) * fn.sup_norm(x),
        fn.median_distance,
    ),
}


def ref_start(p, g, q):
    """The first projected unit vector e_i where the ratio q is defined, and
    q there; a ZeroDivisionError when q is defined at none."""
    for i in range(g.n):
        x = dk.project(p, tuple(F(int(j == i)) for j in range(g.n)))
        try:
            return x, q(x)
        except ZeroDivisionError:
            if i == g.n - 1:
                raise


def ref_dinkelbach(pid, g):
    """Exact-enumeration Dinkelbach with every candidate scored by the
    problem's f1, f2, g1 and g2 on the candidate vector; candidates where
    the denominator g1 - g2 is 0 lie outside the ratio's domain."""
    p = fn.PROBLEMS[pid]
    f1, f2, g1, g2 = SPLITS[pid]
    q = lambda x: (f1(g, x) - f2(g, x)) / (g1(g, x) - g2(g, x))
    x, r = ref_start(p, g, q)
    iterations = [(r, None, x)]
    pairs = gr.ternary_pairs(g.n, p.domain_kind)
    while True:
        best = None
        for a, b in pairs:
            y = dk._pair_vector(g, a, b)
            if g1(g, y) == g2(g, y):
                continue
            val = f1(g, y) + r * g2(g, y) - f2(g, y) - r * g1(g, y)
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
    start is repaired to the disjoint pair A ∋ 0, B ∋ 1.  A walk that ends
    where the denominator g1 - g2 is 0 cannot be the best."""
    p = fn.PROBLEMS[pid]
    f1, f2, g1, g2 = SPLITS[pid]
    n = g.n
    q = lambda x: (f1(g, x) - f2(g, x)) / (g1(g, x) - g2(g, x))
    better = (lambda a, b: a > b) if p.opt == "max" else (lambda a, b: a < b)

    def feasible(a, b):
        return bool(a and b) if p.domain_kind == "nonconstant_2cut" else bool(a or b)

    def value(a, b, r):
        y = dk._pair_vector(g, a, b)
        return f1(g, y) + r * g2(g, y) - f2(g, y) - r * g1(g, y)

    rng = random.Random(seed)
    x, r = ref_start(p, g, q)
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
            y = dk._pair_vector(g, a, b)
            if g1(g, y) != g2(g, y) and (best is None or better(cur, best[1])):
                best = ((a, b), cur)
        if best is None:
            raise ZeroDivisionError
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
@example(ZERO_MU_EDGE)
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


@st.composite
def graphs_with_k(draw):
    """A graphs(max_n=5) graph and a k in 0 ... n + 1."""
    g = draw(graphs(max_n=5))
    return g, draw(st.integers(0, g.n + 1))


@settings(SETTINGS, max_examples=150)
@given(graphs_with_k(), st.booleans())
@example((EDGELESS, 2), False)
@example((ZERO_MU_PATH, 2), True)
@example((WEIGHTED, 3), False)
@example((DISCONNECTED, 3), False)
def test_minmax_k_cut_matches_reference(gk, require_partition):
    g, k = gk

    def kind_and_cert(minmax):
        cert = minmax(g, k, require_partition=require_partition)
        return cert.kind, cert.value, cert.serialized()

    got = outcome(lambda: kind_and_cert(orc.minmax_k_cut), ZeroMeasure)
    assert got == outcome(lambda: kind_and_cert(ref_minmax), ZeroMeasure)


def built_systems(sid, g, lam, x, verify=eg.verify, raw_one_lap=False):
    """find_feasible's (den, bounds, rows) of every system verify builds for
    (lam, x), each recorded and reported infeasible."""
    systems = []
    record = lambda *system: systems.append(system)
    with mock.patch.object(eg, "find_feasible", record):
        verify(sid, g, lam, x, raw_one_lap=raw_one_lap)
    return systems


# The Fraction selection builders and the witness that eigen.verify used
# before it built its systems in ints, and the four system builders and the
# dispatch that it replaced with one builder, copied unchanged but for
# fraction_systems.System and a median_interval looked up in functionals, as
# the reference for its systems and reports.
def _add_selection(sys_, g, x, row_coeffs, symmetric, tag="z", scale=None):
    """Edge selection z_ij in Sgn(x_i + x_j) when symmetric, else the
    antisymmetric z_ij in Sgn(x_i - x_j); adds +w z to row u and +w z
    (symmetric) or -w z to row v, w times scale when a scale is given."""
    for u, v, w in g.edges:
        s = _sign(x[u] + x[v] if symmetric else x[u] - x[v])
        idx = (
            sys_.fixed(f"{tag}[{u},{v}]", Fraction(s))
            if s
            else sys_.var(f"{tag}[{u},{v}]", -ONE, ONE)
        )
        if scale is not None:
            w = scale * w
        row_coeffs[u][idx] = w
        row_coeffs[v][idx] = w if symmetric else -w


def _add_median_selection(sys_, g, x):
    """v_i in mu_i Sgn(x_i - c) with sum v = 0 at the lowest median c of x;
    returns c and the index list."""
    c, _ = fn.median_interval(g, x)
    idxs = []
    zero_row = {}
    for i in range(g.n):
        s = _sign(x[i] - c)
        if s:
            idx = sys_.fixed(f"v[{i}]", s * g.mu[i])
        else:
            idx = sys_.var(f"v[{i}]", -g.mu[i], g.mu[i])
        idxs.append(idx)
        zero_row[idx] = ONE
    sys_.eq(zero_row, ZERO)
    return c, idxs


def _witness(sol: dict, lam, x, c=None, total=None) -> dict:
    w = {"z": {}, "v": {}, "s": {}}
    for name, val in sol.items():
        kind = name.split("[", 1)[0]
        key = name[name.index("[") + 1 : -1]
        if kind in ("z", "zs", "zd"):
            w["z"].setdefault(kind, {})[key] = val
        elif kind == "v":
            w["v"][key] = val
        elif kind == "s":
            w["s"][key] = val
    if c is not None:
        w["c_x"] = c
    if total not in (None, ZERO):
        # interval-row slacks rescaled to proportions in [0, 1]
        w["p"] = {k: val / total for k, val in w["s"].items()}
    return w


def _verify_one_lap(g, lam, x):
    sys_ = System()
    rows = [dict() for _ in range(g.n)]
    _add_selection(sys_, g, x, rows, symmetric=False)
    c, vidx = _add_median_selection(sys_, g, x)
    for i in range(g.n):
        rows[i][vidx[i]] = rows[i].get(vidx[i], ZERO) - lam
        sys_.eq(rows[i], ZERO)
    sol = sys_.solve()
    return None if sol is None else _witness(sol, lam, x, c=c)


def _verify_sign_system(g, lam, x, symmetric):
    """signless (symmetric selection) and raw one_lap (difference
    selection): row i equals lam * mu_i * sign(x_i), with a free v_i in
    [-1, 1] in place of sign(x_i) where x_i = 0."""
    sys_ = System()
    rows = [dict() for _ in range(g.n)]
    _add_selection(sys_, g, x, rows, symmetric)
    for i in range(g.n):
        s = _sign(x[i])
        if s:
            sys_.eq(rows[i], lam * g.mu[i] * s)
        else:
            y = sys_.var(f"v[{i}]", -ONE, ONE)
            rows[i][y] = -lam * g.mu[i]
            sys_.eq(rows[i], ZERO)
    sol = sys_.solve()
    return None if sol is None else _witness(sol, lam, x)


def _verify_hat_signless(g, lam, x):
    sys_ = System()
    rows_sym = [dict() for _ in range(g.n)]
    rows_diff = [dict() for _ in range(g.n)]
    _add_selection(sys_, g, x, rows_sym, symmetric=True, tag="zs")
    _add_selection(sys_, g, x, rows_diff, symmetric=False, tag="zd")
    for i in range(g.n):
        combined = {k: (ONE - lam) * a for k, a in rows_sym[i].items()}
        for k, a in rows_diff[i].items():
            combined[k] = combined.get(k, ZERO) - lam * a
        sys_.eq(combined, ZERO)
    sol = sys_.solve()
    return None if sol is None else _witness(sol, lam, x)


def _verify_sup_norm_system(g, lam, x, symmetric, with_median, bound):
    """Shared core of the three sup-norm systems.

    Row_i is the selection sum plus (when present) lam * v_i.  It must
    vanish on D0, lie in bound * sign(x_i) * [0,1] on D+/D-, and the slacks
    must total exactly bound.
    """
    _, d_plus, d_minus, d_zero = _sup_norm_classes(x)
    sys_ = System()
    rows = [dict() for _ in range(g.n)]
    _add_selection(sys_, g, x, rows, symmetric)
    c = None
    if with_median:
        c, vidx = _add_median_selection(sys_, g, x)
        for i in range(g.n):
            rows[i][vidx[i]] = rows[i].get(vidx[i], ZERO) + lam
    total_row = {}
    for i in range(g.n):
        if i in d_zero:
            sys_.eq(rows[i], ZERO)
        else:
            sgn = ONE if i in d_plus else -ONE
            s = sys_.var(f"s[{i}]", ZERO, bound)
            row = {k: sgn * a for k, a in rows[i].items()}
            row[s] = row.get(s, ZERO) - ONE
            sys_.eq(row, ZERO)
            total_row[s] = ONE
    sys_.eq(total_row, bound)
    sol = sys_.solve()
    return None if sol is None else _witness(sol, lam, x, c=c, total=bound)


def ref_verify(
    id: str, g: Graph, lam: Fraction, x: RVector, raw_one_lap: bool = False
) -> EigenpairReport:
    """Decide whether (lam, x) solves the selected eigenproblem exactly."""
    if all(t == 0 for t in x):
        raise ZeroVector("candidate eigenvector is zero")
    lam = Fraction(lam)
    volV = vol(g, range(g.n))
    if id == "one_lap" and raw_one_lap:
        w = _verify_sign_system(g, lam, x, symmetric=False)
    elif id == "one_lap":
        w = _verify_one_lap(g, lam, x)
    elif id == "signless":
        w = _verify_sign_system(g, lam, x, symmetric=True)
    elif id == "hat_signless":
        w = _verify_hat_signless(g, lam, x)
    elif id == "cheeger_new":
        w = _verify_sup_norm_system(
            g, lam, x, symmetric=True, with_median=True, bound=volV
        )
    elif id == "maxcut_inf":
        w = _verify_sup_norm_system(
            g, lam, x, symmetric=False, with_median=False, bound=lam * volV
        )
    elif id == "anti_cheeger":
        w = _verify_sup_norm_system(
            g, lam, x, symmetric=False, with_median=True, bound=2 * lam * volV
        )
    else:
        raise UnknownProblem(f"unknown eigenproblem {id!r}")
    if w is None:
        return EigenpairReport(
            verdict=False, lam=lam, x=x, violated="no feasible selection"
        )
    return EigenpairReport(verdict=True, lam=lam, x=x, witness=w)


@SETTINGS
@given(graphs(max_n=4), st.fractions(min_value=-2, max_value=3, max_denominator=4))
@example(EDGELESS, F(1))
@example(ZERO_MU_PATH, F(1, 2))
@example(WEIGHTED, F(2, 3))
@example(DISCONNECTED, F(-1, 3))
# hat_signless's symmetric factor 1 - lam is 0 at lam = 1 and negative at
# lam = 3/2; at lam = -1/2 the lam terms change sign.  On path(4), the pair
# ({0, 1}, {2, 3}) at lam = 3/2 is in range only with |1 - lam| as its free
# factor.
@example(WEIGHTED, F(1))
@example(WEIGHTED, F(3, 2))
@example(WEIGHTED, F(-1, 2))
@example(ZERO_MU_PATH, F(1))
@example(ZERO_MU_PATH, F(3, 2))
@example(ZERO_MU_PATH, F(-1, 2))
@example(gr.path(4), F(3, 2))
def test_row_range_test_matches_built_systems(g, off):
    """The scan's integer row test is the simplex's row-interval test on
    the systems verify builds, at the ratio value of each ternary pair, at
    another value and at 0; so it never rejects a pair verify accepts."""
    scaled = gr.scaled_graph(g)
    members = gr.mask_members(g.n)
    for a, b in gr.ternary_pairs(g.n):
        x = fn.indicator(g, members[a], members[b])
        for sid in ("signless", "one_lap", "hat_signless"):
            if sid == "one_lap" and not any(g.mu):
                continue  # no median: verify raises ZeroMeasure
            lams = {F(0), off}
            try:
                lams.add(fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x))
            except DegenerateDenominator:
                pass
            for lam in lams:
                got = eg._rows_in_range(sid, scaled, a, b, lam.numerator, lam.denominator)
                systems = built_systems(sid, g, lam, x)
                assert got == any(_rows_in_reach(*s) for s in systems), (sid, a, b, lam)
                assert got or not eg.verify(sid, g, lam, x).verdict, (sid, a, b, lam)


def _systems_and_report(verify, sid, g, lam, x, raw_one_lap):
    """verify's systems, with every row's coefficients in insertion order,
    and its report (verdict, lam, violated text, witness with its key
    order), or the error's type and text."""
    try:
        systems = [
            (bounds, [(list(coeffs.items()), rhs) for coeffs, rhs in rows])
            for bounds, rows in (
                rationals(*s) for s in built_systems(sid, g, lam, x, verify, raw_one_lap)
            )
        ]
        rep = verify(sid, g, lam, x, raw_one_lap=raw_one_lap)
    except CutspecError as exc:
        return type(exc), str(exc)
    return systems, (rep.verdict, rep.lam, rep.violated, repr(rep.witness))


VECTORS = st.one_of(
    st.lists(st.sampled_from((F(-1), F(0), F(1))), min_size=5, max_size=5),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=5, max_size=5),
)


@SETTINGS
@given(graphs(max_n=5), VECTORS, st.fractions(min_value=-2, max_value=3, max_denominator=4))
@example(EDGELESS, [F(1), F(-1), 0, 0, 0], F(1))
@example(ZERO_MU_PATH, [F(1), F(0), F(-1), 0, 0], F(1, 2))
@example(WEIGHTED, [F(1), F(1, 2), F(-1), F(0), 0], F(2, 3))
@example(DISCONNECTED, [F(0), F(0), F(0), F(0), F(0)], F(0))
def test_one_builder_matches_the_four_builders(g, vals, off):
    """verify builds the system of ref_verify, variable for variable and row
    for row, and reports the same verdict, witness or error, for every id,
    raw one_lap and an unknown id, at the ratio's value and at another."""
    x = tuple(vals[: g.n])
    for sid, raw in [*((sid, False) for sid in sorted(fn.EIGENPROBLEMS)), ("one_lap", True), ("nope", False)]:
        lams = {off}
        if sid in fn.EIGENPROBLEMS:
            try:
                lams.add(fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x))
            except CutspecError:
                pass
        for lam in lams:
            got = _systems_and_report(eg.verify, sid, g, lam, x, raw)
            assert got == _systems_and_report(ref_verify, sid, g, lam, x, raw), (sid, raw, lam)


def ref_verify_with_midpoint(sid, g, lam, x):
    """ref_verify with the median interval's lower end, midpoint and upper
    end tried in turn, each as the one median of its system; the first
    feasible one decides."""
    median_interval = fn.median_interval
    for pick in (lambda lo, hi: lo, lambda lo, hi: (lo + hi) / 2, lambda lo, hi: hi):

        def median_at(g, x):
            c = pick(*median_interval(g, x))
            return c, c

        with mock.patch.object(fn, "median_interval", median_at):
            rep = ref_verify(sid, g, lam, x)
        if rep.verdict:
            return rep
    return rep


@SETTINGS
@given(
    graphs(max_n=4),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2), min_size=4, max_size=4),
    st.fractions(min_value=-1, max_value=3, max_denominator=3),
)
@example(gr.path(2), [F(1), F(-1), 0, 0], F(1))
@example(ZERO_MU_PATH, [F(1), F(-1), F(1, 2), 0], F(1, 2))
@example(WEIGHTED, [F(1), F(0), F(-1), F(1, 2)], F(2, 3))
def test_median_endpoints_decide_as_with_midpoint(g, vals, off):
    """Dropping the midpoint median system changes no verdict and no
    witness: its box lies inside the lower endpoint's."""
    x = as_rvector(g, vals[: g.n])
    for sid in ("one_lap", "cheeger_new", "maxcut_inf", "anti_cheeger"):
        lams = {F(0), off}
        try:
            lams.add(fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x))
        except CutspecError:
            pass
        for lam in lams:
            got = outcome(lambda: eg.verify(sid, g, lam, x), None)
            assert got == outcome(lambda: ref_verify_with_midpoint(sid, g, lam, x), None), (sid, lam)


@settings(SETTINGS, max_examples=150)
@given(graphs(max_n=5), VECTORS, st.fractions(min_value=-2, max_value=3, max_denominator=4))
@example(EDGELESS, [F(1), F(0), 0, 0, 0], F(1))
@example(ZERO_MU_PATH, [F(1), F(0), F(-1), 0, 0], F(1, 2))
@example(ZERO_MU_EDGE, [F(1), F(0), F(0), 0, 0], F(2))
@example(WEIGHTED, [F(1), F(1, 2), F(-1), F(0), 0], F(2, 3))
@example(DISCONNECTED, [F(1), F(1), F(0), F(-1), F(0)], F(1, 2))
def test_verify_gives_minus_x_the_verdict_of_x(g, vals, off):
    """The ternary scans test one pair per mirror class {(A, B), (B, A)}:
    for every id and raw one_lap, verify(id, g, lam, -x) has the verdict of
    verify(id, g, lam, x), or raises the same error type, at the ratio's
    value, at 0 and at another value."""
    x = tuple(vals[: g.n])
    minus_x = tuple(-t for t in x)
    for sid, raw in [*((sid, False) for sid in sorted(fn.EIGENPROBLEMS)), ("one_lap", True)]:
        lams = {F(0), off}
        try:
            lams.add(fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x))
        except CutspecError:
            pass
        for lam in lams:
            verdict = lambda y: eg.verify(sid, g, lam, y, raw_one_lap=raw).verdict
            got = outcome(lambda: verdict(minus_x), None)
            assert got == outcome(lambda: verdict(x), None), (sid, raw, lam)


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


def test_ternary_pairs_give_each_call_its_own_list():
    """ternary_pairs and mask_members copy one table kept per n: a solve
    that drops the pairs outside its ratio's domain, or a caller that
    empties its list, leaves the next call's list as it was."""
    isolated = gr.Graph.build(4, [(1, 2), (2, 3)])  # dual's G is 0 at ({0}, ∅)
    pairs, members = gr.ternary_pairs(4), gr.mask_members(4)
    assert dk.solve("dual", isolated).converged
    assert gr.ternary_pairs(4) == pairs and gr.mask_members(4) == members
    kept = list(pairs)
    pairs.clear()
    members.clear()
    assert gr.ternary_pairs(4) == kept and len(gr.mask_members(4)) == 16
    assert gr._ternary_pairs(4, "nonzero") is gr._ternary_pairs(4, "nonzero")


def test_graph_and_kernel_are_freed_together_without_a_cycle():
    """The kernel holds no reference to its graph: dropping the last
    reference to a graph frees both at once, with no garbage collection."""
    g = gr.Graph.build(5, [(0, 1), (1, 2, F(1, 2)), (2, 3), (3, 4), (0, 4)])
    orc.cheeger(g)
    orc.dual_cheeger(g)
    orc.k_way_dual_cheeger(g, 2)
    dk.solve("cheeger_tv", g)
    eg.spectrum_scan("signless", g)
    graph_ref, kernel_ref = weakref.ref(g), weakref.ref(g.kernel)
    gc.disable()
    try:
        del g
        assert graph_ref() is None and kernel_ref() is None
    finally:
        gc.enable()


@SETTINGS
@given(graphs(max_n=5), st.sampled_from(sorted(fn.PROBLEMS)))
@example(EDGELESS, "dual")
@example(ZERO_MU_PATH, "dual")
@example(ZERO_MU_PATH, "cheeger_tv")
@example(WEIGHTED, "anti")
def test_dinkelbach_iterations_match_reference(g, pid):
    got = outcome(lambda: kernel_dinkelbach(pid, g), DegenerateDenominator)
    assert got == outcome(lambda: ref_dinkelbach(pid, g), DegenerateDenominator)


@SETTINGS
@given(graphs(max_n=5), st.sampled_from(sorted(fn.PROBLEMS)))
@example(gr.Graph.build(4, [(1, 2), (2, 3)]), "dual")
@example(gr.Graph.build(4, [(1, 2), (2, 3)]), "mdual")
@example(gr.Graph.build(4, [(1, 2), (2, 3)]), "cheeger_tv")
@example(EDGELESS, "mdual")
def test_dinkelbach_equals_ratio_oracle_under_degree_measure(g, pid):
    """With mu the weighted degree, exact Dinkelbach reaches the ratio
    oracle's value wherever the oracle answers, isolated vertices (of
    measure zero) included; the dual oracles answer on every graph with an
    edge."""
    g = gr.Graph.build(g.n, g.edges)
    try:
        want = orc.ratio_oracle(pid, g).value
    except CutspecError:
        assert not (fn.PROBLEMS[pid].dual and g.edges), pid
        return
    assert dk.solve(pid, g).final.value == want


@SETTINGS
@given(
    graphs(),
    st.sampled_from(sorted(fn.PROBLEMS)),
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


def _solve_outcome(solve, pid, g, x0, inner, seed, restarts):
    """The whole trace of a solve, or the type and text of its error."""
    try:
        tr = solve(pid, g, x0=x0, inner=inner, seed=seed, restarts=restarts)
    except Exception as exc:  # the reference raises what solve must raise
        return ("err", type(exc), str(exc))
    return ("ok", tr.iterations, tr.converged, tr.final)


ZERO_MU = gr.Graph.build(3, [(0, 1), (1, 2)], mu=[0, 0, 0])
STARTS = st.one_of(
    st.none(),
    st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=6, max_size=6
    ),
)


@settings(SETTINGS, max_examples=150)
@given(
    graphs(),
    st.sampled_from(sorted(fn.PROBLEMS)),
    st.sampled_from(("exact_enum", "local_flip")),
    STARTS,
    st.integers(0, 3),
    st.sampled_from((1, 4)),
)
@example(EDGELESS, "dual", "exact_enum", None, 0, 4)
@example(EDGELESS, "cheeger_tv", "local_flip", None, 0, 4)
@example(ZERO_MU, "cheeger_tv", "exact_enum", None, 0, 4)
@example(ZERO_MU, "anti", "local_flip", None, 1, 1)
@example(ZERO_MU, "maxcut_ratio", "exact_enum", [1, 0, -1, 0, 0, 0], 0, 4)
@example(ZERO_MU_PATH, "dual", "exact_enum", None, 0, 4)
@example(ZERO_MU_EDGE, "mdual", "local_flip", None, 2, 4)
@example(WEIGHTED, "anti", "exact_enum", [F(1, 2), 0, -1, 2, 0, 0], 0, 4)
@example(DISCONNECTED, "cheeger_new", "exact_enum", None, 0, 4)
@example(DISCONNECTED, "cheeger_tv", "exact_enum", [1, 1, 1, 1, 1, 0], 0, 4)
@example(gr.Graph.build(4, [(1, 2), (2, 3)]), "dual", "local_flip", None, 3, 4)
@example(gr.Graph.build(4, [(1, 2), (2, 3)]), "cheeger_tv", "exact_enum", [0, 0, 0, 0, 0, 0], 0, 4)
def test_dinkelbach_traces_equal_the_per_pair_loop(g, pid, inner, x0, seed, restarts):
    """solve over distinct points from columnar forms, with r_0 of the
    default start from the integer form, gives every iteration's k, r, x
    and inner value, the convergence flag, the certificate, and the type and
    text of any error of the per-pair loop it replaced, which rescans every
    candidate and starts from ratio_objective."""
    x0 = None if x0 is None else tuple(x0[: g.n])
    args = (pid, g, x0, inner, seed, restarts)
    assert _solve_outcome(dk.solve, *args) == _solve_outcome(ref.solve, *args)


@SETTINGS
@given(graphs(max_n=5))
@example(EDGELESS)
@example(ZERO_MU_PATH)
@example(WEIGHTED)
@example(DISCONNECTED)
def test_ternary_forms_match_ratio_objective(g):
    """Each problem's integer (F, G) at 1_A - 1_B is ratio_objective there,
    and G = 0 exactly where ratio_objective has no value."""
    pairs = gr.ternary_pairs(g.n)
    members = gr.mask_members(g.n)
    tables = gr.mask_tables(g)
    for pid, p in fn.PROBLEMS.items():
        for (a, b), f, h in zip(pairs, *gr.ternary_ratios(tables, pairs, p.ternary)):
            x = fn.indicator(g, members[a], members[b])
            got = outcome(lambda: fn.ratio_objective(pid, g, x), None)
            if h:
                assert got == ("ok", F(f, h)), (pid, a, b)
            else:
                assert got in (("err", DegenerateDenominator), ("err", ZeroMeasure)), (pid, a, b)


@SETTINGS
@given(graphs(max_n=5))
@example(EDGELESS)
@example(ZERO_MU_PATH)
@example(ZERO_MU_EDGE)
@example(ZERO_MU)
@example(WEIGHTED)
@example(DISCONNECTED)
@example(gr.Graph.build(4, [(1, 2), (2, 3)]))
def test_ternary_forms_are_even(g):
    """Every problem's integer (F, G) at (B, A) is its (F, G) at (A, B),
    over the pairs of both domain kinds, and the representatives (with
    their multipliers) are the pairs that come before their mirror in
    certificate order: what lets the ternary scans and exact Dinkelbach
    read one pair per mirror class."""
    tables = gr.mask_tables(g)
    big_l = math.lcm(*range(1, g.n + 1))
    for kind in ("nonzero", "nonconstant_2cut"):
        pairs = gr.ternary_pairs(g.n, kind)
        seen, first = set(), []
        for a, b in pairs:
            if (b, a) not in seen:
                first.append((a, b))
            seen.add((a, b))
        reps = gr._ternary_representatives(g.n, kind)
        assert reps == tuple(first), kind
        assert gr._ternary_multipliers(g.n, kind) == tuple(
            big_l // (a | b).bit_count() for a, b in reps
        ), kind
        mirrors = [(b, a) for a, b in pairs]
        for pid, p in fn.PROBLEMS.items():
            got = gr.ternary_ratios(tables, mirrors, p.ternary)
            assert got == gr.ternary_ratios(tables, pairs, p.ternary), (kind, pid)


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


def ref_lowest_vertex_tables(g):
    """mask_tables(g) one mask at a time, by the lowest-vertex recurrence:
    each mask's entries extend those of the mask without its lowest
    vertex."""
    d, nbrs, deg1, mu1 = gr.scaled_graph(g)
    size = 1 << g.n
    cut, deg, vol = [0] * size, [0] * size, [0] * size
    for m in range(1, size):
        low = m & -m
        i = low.bit_length() - 1
        prev = m ^ low
        inner = sum(wi for bit, wi in nbrs[i] if prev & bit)
        cut[m] = cut[prev] + deg1[i] - 2 * inner
        deg[m] = deg[prev] + deg1[i]
        vol[m] = vol[prev] + mu1[i]
    return d, cut, deg, vol


@SETTINGS
@given(graphs(max_n=8))
@example(gr.Graph.build(1, []))
@example(gr.Graph.build(1, [], mu=[F(3, 2)]))
@example(EDGELESS)
@example(gr.Graph.build(4, [(1, 2), (2, 3)]))  # vertex 0 isolated
@example(WEIGHTED)
@example(gr.Graph.build(3, [(0, 1, F(2, 3)), (1, 2)], mu=[F(1, 2), F(5, 3), 2]))
@example(ZERO_MU_PATH)
@example(ZERO_MU)
@example(DISCONNECTED)
def test_block_mask_tables_match_every_reference(g):
    """The vertex-block tables equal, entry for entry, the lowest-vertex
    recurrence, the Fraction definitions scaled by D and the lazy tables."""
    tables = gr.mask_tables(g)
    assert tables == ref_lowest_vertex_tables(g)
    d, cut, deg, vol = tables
    assert d == math.lcm(*(w.denominator for *_, w in g.edges), *(m.denominator for m in g.mu))
    degree = [sum((w for u, v, w in g.edges if i in (u, v)), ZERO) for i in range(g.n)]
    for m in range(1 << g.n):
        s = _sets(g, m)
        assert cut[m] == d * boundary(g, s)
        assert deg[m] == d * sum((degree[i] for i in s), ZERO)
        assert vol[m] == d * sum((g.mu[i] for i in s), ZERO)
    lazy = gr.lazy_mask_tables(g)
    assert lazy[0] == d
    assert [(lazy[1][m], lazy[2][m], lazy[3][m]) for m in range(1 << g.n)] == list(
        zip(cut, deg, vol)
    )
    assert (lazy[2][-1], lazy[3][-1]) == (deg[-1], vol[-1])


def test_mask_members_are_sorted_member_tuples():
    for n in range(11):
        assert gr._mask_members(n) == tuple(
            tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n)
        )
        assert gr.mask_members(n) == list(gr._mask_members(n))


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
    with pytest.raises(ZeroMeasure):  # refuses any vertex of measure zero
        orc.k_way_dual_cheeger(g, 1)
    if g is EDGELESS:  # every candidate has denominator 0
        with pytest.raises(ZeroMeasure):
            orc.dual_cheeger(g)
        with pytest.raises(DegenerateDenominator):
            dk.solve("dual", g)
    else:  # a candidate outside vertex 0 has a nonzero denominator
        assert orc.dual_cheeger(g).value == 2
        assert dk.solve("dual", g).final.value == 0


# -- the simplex ---------------------------------------------------------------

# simplex.find_feasible and its row-interval test on the dense Fraction
# tableau, copied unchanged as the reference for the fraction-free tableau:
# the same pivots must give the same point.
def _ref_rows_in_reach(bounds, rows) -> bool:
    for coeffs, rhs in rows:
        low = high = ZERO
        for j, a in coeffs.items():
            lo, hi = bounds[j]
            if a > 0:
                low += a * lo
                high += a * hi
            elif a < 0:
                low += a * hi
                high += a * lo
        if not low <= rhs <= high:
            return False
    return True


def ref_find_feasible(bounds, rows):
    nv = len(bounds)
    for lo, hi in bounds:
        if lo > hi:
            return None
    if not _ref_rows_in_reach(bounds, rows):
        return None

    # substitute x_j = lo_j + s_j with s_j in [0, d_j]; drop d_j = 0 vars
    shift = [lo for lo, _ in bounds]
    span = [hi - lo for lo, hi in bounds]
    active = [j for j in range(nv) if span[j] > 0]
    col_of = {j: k for k, j in enumerate(active)}
    ns = len(active)

    eqs = []
    for coeffs, rhs in rows:
        row = [ZERO] * ns
        b = rhs
        for j, a in coeffs.items():
            b -= a * shift[j]
            if j in col_of:
                row[col_of[j]] += a
        eqs.append((row, b))

    # upper-bound slack rows: s_k + t_k = span
    for k, j in enumerate(active):
        row = [ZERO] * ns
        row[k] = ONE
        eqs.append((row, span[j]))

    m = len(eqs)
    width = ns + ns + m  # s vars, t slacks, artificials
    tableau = []
    for i, (row, b) in enumerate(eqs):
        t_part = [ZERO] * ns
        if i >= len(rows):
            t_part[i - len(rows)] = ONE
        full = row + t_part + [ZERO] * m + [b]
        if b < 0:
            full = [-v for v in full]
        full[ns + ns + i] = ONE
        tableau.append(full)

    basis = [ns + ns + i for i in range(m)]
    # phase-1 objective: minimize sum of artificials
    cost = [ZERO] * (width + 1)
    for r in tableau:
        for c, v in enumerate(r):
            if v:
                cost[c] -= v
    for i in range(m):
        cost[ns + ns + i] = ZERO

    while True:
        pivot_col = next(
            (c for c in range(width) if cost[c] < 0 and c not in basis), None
        )
        if pivot_col is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            a = tableau[i][pivot_col]
            if a > 0:
                ratio = tableau[i][width] / a
                key = (ratio, basis[i])  # Bland tie-break on basis index
                if best is None or key < best:
                    best = key
                    pivot_row = i
        if pivot_row is None:
            return None  # unbounded phase-1 cannot happen; defensive
        prow = tableau[pivot_row]
        piv = prow[pivot_col]
        # only the pivot row's nonzero columns change the other rows
        nonzero = [c for c, v in enumerate(prow) if v]
        for c in nonzero:
            prow[c] /= piv
        for row in tableau + [cost]:
            f = row[pivot_col]
            if row is not prow and f:
                for c in nonzero:
                    row[c] -= f * prow[c]
        basis[pivot_row] = pivot_col

    if -cost[width] != 0:
        return None  # residual artificial mass: infeasible

    s_val = [ZERO] * ns
    for i, bvar in enumerate(basis):
        if bvar < ns:
            s_val[bvar] = tableau[i][width]
        elif bvar >= ns + ns and tableau[i][width] != 0:
            return None  # artificial stuck in basis at nonzero level

    out = list(shift)
    for k, j in enumerate(active):
        out[j] = shift[j] + s_val[k]
    return out


@st.composite
def boxed_systems(draw):
    """Small boxed systems with rational data: zero spans, now and then a
    box with lo > hi, rows through a point of the box or shifted off it
    (right-hand sides of either sign), and empty rows."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    nv = draw(st.integers(1, 5))
    bounds, point = [], []
    for _ in range(nv):
        lo = draw(q)
        span = draw(st.one_of(st.just(F(0)), st.fractions(0, 3, max_denominator=3)))
        bounds.append((lo, lo + span))
        point.append(lo + span * draw(st.sampled_from((0, F(1, 4), F(1, 2), 1))))
    if draw(st.integers(0, 19)) == 0:
        j = draw(st.integers(0, nv - 1))
        bounds[j] = (bounds[j][1] + 1, bounds[j][0])
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        js = draw(st.lists(st.integers(0, nv - 1), max_size=nv, unique=True))
        coeffs = {j: draw(q) for j in js}
        rhs = sum((a * point[j] for j, a in coeffs.items()), F(0))
        rows.append((coeffs, rhs + draw(st.one_of(st.just(F(0)), q))))
    return bounds, rows


# Two systems whose point depends on the pivot path: the first changes when
# Bland's tie-break looks at the row index instead of the basis index, the
# second when the cost row sums the rows scaled to integers.
BLAND_TIE = (
    [(F(0), F(1)), (F(0), F(1, 2)), (F(0), F(0)), (F(-1, 2), F(1)), (F(0), F(1, 2)), (F(0), F(0))],
    [({4: F(2), 3: F(1), 1: F(1)}, F(3, 4)), ({0: F(-1, 2), 1: F(1), 3: F(-1)}, F(1, 4))],
)
ROW_SCALE = (
    [(F(-1), F(0)), (F(0), F(0)), (F(0), F(1)), (F(0), F(3, 2)), (F(0), F(0))],
    [({3: F(-1)}, F(0)), ({2: F(1, 2), 3: F(1, 2), 0: F(2)}, F(-3, 2))],
)


@settings(SETTINGS, max_examples=300)
@given(boxed_systems())
@example(BLAND_TIE)
@example(ROW_SCALE)
def test_find_feasible_matches_fraction_tableau(system):
    """The fraction-free simplex returns the reference's point, Fraction for
    Fraction, or None where it does; and its row-interval test agrees."""
    bounds, rows = system
    ints = int_system(bounds, rows)
    assert _rows_in_reach(*ints) == _ref_rows_in_reach(bounds, rows)
    assert repr(find_feasible(*ints)) == repr(ref_find_feasible(bounds, rows))


@SETTINGS
@given(graphs(max_n=5), VECTORS, st.fractions(min_value=-2, max_value=3, max_denominator=4))
@example(WEIGHTED, [F(1), F(1, 2), F(-1), F(0), 0], F(2, 3))
@example(ZERO_MU_PATH, [F(1), F(0), F(-1), 0, 0], F(1, 2))
def test_find_feasible_matches_fraction_tableau_on_verify_systems(g, vals, off):
    """The same on every system verify builds, for the six ids and raw
    one_lap, at the ratio's value and at another."""
    x = tuple(vals[: g.n])
    for sid, raw in [*((sid, False) for sid in sorted(fn.EIGENPROBLEMS)), ("one_lap", True)]:
        lams = {off}
        try:
            lams.add(fn.ratio_objective(fn.EIGENPROBLEMS[sid].ratio, g, x))
        except CutspecError:
            pass
        for lam in lams:
            try:
                systems = built_systems(sid, g, lam, x, raw_one_lap=raw)
            except CutspecError:
                continue
            for system in systems:
                got = find_feasible(*system)
                want = ref_find_feasible(*rationals(*system))
                assert repr(got) == repr(want), (sid, raw, lam)
