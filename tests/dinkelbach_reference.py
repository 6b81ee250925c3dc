"""Exact and flip Dinkelbach as dinkelbach.solve ran before its columnar
ternary forms, kept as the reference that tests hold solve to.

Every candidate's (F, G) comes from one call per pair of a six-term form
(tv, tv_plus, median distance, vol(A ∪ B), vol(V), 2|E|), with the median
distance as the three-way minimum over the levels -1, 0 and 1; the exact
step rescans every candidate with G ≠ 0 at every iteration; and r_0 is
functionals.ratio_objective at the start vector, the first projected unit
vector where the ratio is defined when no x0 is given.
"""

import random
from fractions import Fraction
from math import lcm
from typing import Optional

from cutspec.dinkelbach import DinkelbachTrace, _pair_vector, in_omega, project
from cutspec.errors import DegenerateDenominator, NotInOmega, TooLarge, UnknownProblem
from cutspec.functionals import PROBLEMS, RVector, ratio_objective
from cutspec.graph import Graph, lazy_mask_tables, mask_tables, ternary_pairs
from cutspec.oracles import CutCertificate

ZERO = Fraction(0)

# each ratio's (F, G) at 1_A - 1_B from the six integer terms
TERNARY = {
    "cheeger_tv": lambda tv_, tvp, md, vol_u, vol_v, two_e: (tv_, md),
    "cheeger_new": lambda tv_, tvp, md, vol_u, vol_v, two_e: (two_e - tvp, md),
    "dual": lambda tv_, tvp, md, vol_u, vol_v, two_e: (tvp, vol_u),
    "mdual": lambda tv_, tvp, md, vol_u, vol_v, two_e: (tvp, tvp + tv_),
    "maxcut_ratio": lambda tv_, tvp, md, vol_u, vol_v, two_e: (tv_, vol_v),
    "anti": lambda tv_, tvp, md, vol_u, vol_v, two_e: (tv_, 2 * vol_v - md),
}


def ternary_ratios(tables, pairs, ratio) -> list:
    """ratio(tv, tv_plus, median distance, vol(A ∪ B), vol(V), 2|E|) of
    1_A - 1_B for every (A, B) in pairs, its terms ints scaled by the D of
    tables: tv = cut(A) + cut(B), tv_plus = deg(A ∪ B) - tv + cut(A ∪ B),
    and the median distance is the least mu-weighted distance to a level
    -1, 0 or 1."""
    _, cut, deg, volm = tables
    vol_v, two_e = volm[-1], deg[-1]
    out = []
    for a, b in pairs:
        u = a | b
        tv = cut[a] + cut[b]
        rest = vol_v - volm[u]
        md = min(rest + 2 * volm[a], volm[a] + volm[b], 2 * volm[b] + rest)
        out.append(ratio(tv, deg[u] - tv + cut[u], md, volm[u], vol_v, two_e))
    return out


def _ternary_terms(pairs, ratios, big_l):
    """Integers proportional to (F, G) = (f1 - f2, g1 - g2) at the candidate
    x = (1_A - 1_B)/s, s = |A| + |B|, for every (A, B) in pairs, from their
    ternary ratios' integer terms.  Both are scaled by the same D·L/s, with
    L = big_l = lcm(1..n), so they share the positive factor 1/(D·L) across
    candidates.  Returns (Fs, Gs)."""
    fs, gs = [], []
    for (a, b), (f, h) in zip(pairs, ratios):
        m = big_l // (a | b).bit_count()
        fs.append(f * m)
        gs.append(h * m)
    return fs, gs


def solve(
    problem_id: str,
    g: Graph,
    x0: Optional[RVector] = None,
    inner: str = "exact_enum",
    cap: int = 12,
    seed: int = 0,
    restarts: int = 16,
    max_iter: int = 10_000,
) -> DinkelbachTrace:
    if problem_id not in PROBLEMS:
        raise UnknownProblem(f"no ratio decomposition for {problem_id!r}")
    problem = PROBLEMS[problem_id]
    unit = lambda i: tuple(Fraction(1) if j == i else ZERO for j in range(g.n))
    x = project(problem, unit(0) if x0 is None else tuple(Fraction(t) for t in x0))
    if not in_omega(problem, x):
        raise NotInOmega("initial vector not in the feasible set")
    big_l = lcm(*range(1, g.n + 1))

    if inner == "exact_enum":
        if g.n > cap:
            raise TooLarge(f"exact inner solver capped at n={cap}")
        pairs = ternary_pairs(g.n, problem.domain_kind)
        tables = mask_tables(g)
        ratios = ternary_ratios(tables, pairs, TERNARY[problem_id])
        fs, gs = _ternary_terms(pairs, ratios, big_l)
        if 0 in gs:  # outside the ratio's domain
            keep = [i for i, h in enumerate(gs) if h]
            pairs, fs, gs = ([t[i] for i in keep] for t in (pairs, fs, gs))
        scale = tables[0] * big_l
        step = lambda r: _exact_step(pairs, fs, gs, scale, problem.opt == "max", r)
    elif inner == "local_flip":
        rng = random.Random(seed)
        tables = lazy_mask_tables(g)
        step = lambda r: _flip_step(problem, g.n, tables, big_l, r, rng, restarts)
    else:
        raise UnknownProblem(f"unknown inner solver {inner!r}")

    trace = DinkelbachTrace()
    try:
        r = ratio_objective(problem_id, g, x)
    except DegenerateDenominator:
        # the default start e_0 lies outside the ratio's domain: start from
        # the first projected unit vector inside it
        if x0 is not None:
            raise
        for i in range(1, g.n):
            x = project(problem, unit(i))
            try:
                r = ratio_objective(problem_id, g, x)
                break
            except DegenerateDenominator:
                pass
        else:
            raise
    trace.iterations.append(
        {"k": 0, "r": r, "x": x, "inner_value": None}
    )
    final_pair = None
    for k in range(1, max_iter + 1):
        (mask_a, mask_b), value, r_next = step(r)
        x = _pair_vector(g, mask_a, mask_b)
        trace.iterations.append(
            {"k": k, "r": r_next, "x": x, "inner_value": value}
        )
        final_pair = (mask_a, mask_b)
        if r_next == r:
            trace.converged = True
            break
        r = r_next
    a = frozenset(i for i in range(g.n) if final_pair[0] >> i & 1)
    b = frozenset(i for i in range(g.n) if final_pair[1] >> i & 1)
    trace.final = CutCertificate(kind="set_pair", sets=(a, b), value=r)
    return trace


def _exact_step(pairs, fs, gs, scale, maximize, r):
    """First optimum, in candidate order, of the inner objective
    (F - r·G)(x) = (q·F_i - p·G_i)/(q·scale) for r = p/q.  Returns the
    pair, the inner value and the pair's ratio F_i/G_i."""
    p, q = r.numerator, r.denominator
    vals = [q * f - p * h for f, h in zip(fs, gs)]
    best = max(vals) if maximize else min(vals)
    i = vals.index(best)
    return pairs[i], Fraction(best, q * scale), Fraction(fs[i], gs[i])


def _flip_step(problem, n, tables, big_l, r, rng, restarts):
    """Single-vertex moves between A, B and neither; best of R seeded
    random starts.  Heuristic: no optimality claim.  A move (A, B) is scored
    as q·F - p·G for r = p/q with the integer terms of _ternary_terms, the
    inner objective times q·D·L; the mask tables fill as moves reach new
    masks, so n has no cap.  Returns the pair, the inner value and the
    pair's ratio F/G."""
    maximize = problem.opt == "max"
    two_cut = problem.domain_kind == "nonconstant_2cut"
    p, q = r.numerator, r.denominator

    def feasible(mask_a, mask_b):
        return (mask_a and mask_b) if two_cut else (mask_a or mask_b)

    def scores(moves):
        ratios = ternary_ratios(tables, moves, TERNARY[problem.ratio])
        fs, gs = _ternary_terms(moves, ratios, big_l)
        return [q * f - p * h for f, h in zip(fs, gs)]

    best = None
    for _ in range(restarts):
        mask_a = mask_b = 0
        for i in range(n):
            state = rng.randrange(3)
            if state == 1:
                mask_a |= 1 << i
            elif state == 2:
                mask_b |= 1 << i
        if not feasible(mask_a, mask_b):
            mask_a = (mask_a | 1) & ~2
            mask_b = (mask_b | (2 if n > 1 else 0)) & ~1
        (cur,) = scores([(mask_a, mask_b)])
        improved = True
        while improved:
            improved = False
            for i in range(n):
                bit = 1 << i
                # the move to i's present state scores cur and never wins
                moves = [
                    move
                    for move in (
                        (mask_a | bit, mask_b & ~bit),
                        (mask_a & ~bit, mask_b | bit),
                        (mask_a & ~bit, mask_b & ~bit),
                    )
                    if move != (mask_a, mask_b) and feasible(*move)
                ]
                for move, val in zip(moves, scores(moves)):
                    if val > cur if maximize else val < cur:
                        (mask_a, mask_b), cur = move, val
                        improved = True
        # a walk that ends at G = 0 ends outside the ratio's domain
        ((f, h),) = ternary_ratios(tables, [(mask_a, mask_b)], TERNARY[problem.ratio])
        if not h:
            continue
        if best is None or (cur > best[1] if maximize else cur < best[1]):
            best = ((mask_a, mask_b), cur, (f, h))
    if best is None:
        raise DegenerateDenominator(
            f"{problem.ratio} ratio has denominator 0 at every local_flip restart"
        )
    pair, val, (f, h) = best
    return pair, Fraction(val, q * tables[0] * big_l), Fraction(f, h)


