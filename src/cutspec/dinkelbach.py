"""Two-step Dinkelbach iteration for the registered ratio objectives.

Each objective is split as Q = (f1 - f2)/(g1 - g2) with all four pieces
convex and positively homogeneous.  The iteration alternates

    x_{k+1} = argopt over Omega of f1 + r_k g2 - (f2 + r_k g1)
    r_{k+1} = Q(x_{k+1})

and stops at exact rational equality r_{k+1} = r_k.

The exact inner solver's candidates are the scaled ternary vectors
(1_A - 1_B)/|A ∪ B| inside Omega, where the inner objective attains its
optimum, in the certificate order of graph.ternary_pairs.  A solve scores
them once, in integers, by the problem record's ternary form
(F, G) = (f1 - f2, g1 - g2) from the mask kernel of `graph`, both times
L/|A ∪ B| with L = lcm(1..n), so that every candidate's F and G share the
positive factor 1/(D·L).  The candidates then collapse to their distinct
points (F, G) with G ≠ 0 (G = 0 lies outside the ratio's domain), each
kept at its first pair in candidate order, and every step scans only these
points.  All pairs of a point have its inner value F - r·G, so the first
optimal point carries the first optimal pair: the certificate.  The flip
heuristic walks single-vertex moves from seeded random starts, scored by
the same forms.

r_0 is Q at the start.  For a given x0 it is functionals.ratio_objective
there.  The default start is the first projected unit vector e_i whose
ternary pair has G ≠ 0 (e_0 when it has), and r_0 is F/G at that pair;
only when no e_i has, ratio_objective runs at e_0, to raise the error the
ratio has there.  Every later r_k is F/G at the chosen pair, which is
ratio_objective at the chosen x, since Q is invariant under positive
scaling and F, G share one positive factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import List, Optional

from .errors import DegenerateDenominator, NotInOmega, TooLarge, UnknownProblem
from .eigen import verify
from .functionals import PROBLEMS, Problem, RVector, ratio_objective
from .graph import (
    Graph,
    _ternary_multipliers,
    _ternary_pairs,
    _ternary_ratios,
    lazy_mask_tables,
    mask_tables,
    ternary_ratios,
)
from .oracles import CutCertificate

ZERO = Fraction(0)


@dataclass
class DinkelbachTrace:
    iterations: List[dict] = field(default_factory=list)
    converged: bool = False
    final: Optional[CutCertificate] = None


def in_omega(problem: Problem, x: RVector) -> bool:
    if sum(abs(t) for t in x) != 1:
        return False
    return problem.domain_kind == "nonzero" or max(x) + min(x) == 0


def project(problem: Problem, x: RVector) -> RVector:
    """Pull an arbitrary vector into Omega (shift to balance for the 2-cut
    domains, then normalize the plain 1-norm)."""
    if problem.domain_kind != "nonzero":
        c = (max(x) + min(x)) / 2
        x = tuple(t - c for t in x)
    norm = sum(abs(t) for t in x)
    if norm == 0:
        raise NotInOmega("projection collapsed to the zero vector")
    return tuple(t / norm for t in x)


def _pair_vector(g: Graph, mask_a: int, mask_b: int) -> RVector:
    size = bin(mask_a).count("1") + bin(mask_b).count("1")
    s = Fraction(1, size)
    return tuple(
        s if mask_a >> i & 1 else -s if mask_b >> i & 1 else ZERO
        for i in range(g.n)
    )


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
    x = project(problem, _unit(g.n, 0) if x0 is None else tuple(Fraction(t) for t in x0))
    if not in_omega(problem, x):
        raise NotInOmega("initial vector not in the feasible set")
    big_l = lcm(*range(1, g.n + 1))

    if inner == "exact_enum":
        if g.n > cap:
            raise TooLarge(f"exact inner solver capped at n={cap}")
        tables = mask_tables(g)
        pairs, fs, gs = _distinct_points(g.n, problem, tables)
        scale = tables[0] * big_l
        step = lambda r: _exact_step(pairs, fs, gs, scale, problem.opt == "max", r)
    elif inner == "local_flip":
        rng = random.Random(seed)
        tables = lazy_mask_tables(g)
        step = lambda r: _flip_step(problem, g.n, tables, big_l, r, rng, restarts)
    else:
        raise UnknownProblem(f"unknown inner solver {inner!r}")

    trace = DinkelbachTrace()
    if x0 is None:
        x, r = _default_start(problem_id, problem, g, tables, x)
    else:
        r = ratio_objective(problem_id, g, x)
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


def _unit(n: int, i: int) -> RVector:
    return tuple(Fraction(1) if j == i else ZERO for j in range(n))


def _default_start(problem_id, problem, g, tables, x):
    """(x_0, r_0) for x = e_0 projected: the first projected unit vector
    e_i whose ternary pair (A, B), its positive and its negative support,
    has G ≠ 0, and F/G there."""
    for i in range(g.n):
        y = x if i == 0 else project(problem, _unit(g.n, i))
        pair = (
            sum(1 << j for j, t in enumerate(y) if t > 0),
            sum(1 << j for j, t in enumerate(y) if t < 0),
        )
        (f,), (h,) = _ternary_ratios(tables, [pair], problem.ternary)
        if h:
            return y, Fraction(f, h)
    # no e_i lies in the ratio's domain: this raises the ratio's error at e_0
    return x, ratio_objective(problem_id, g, x)


def _distinct_points(n, problem, tables):
    """The exact step's candidates as distinct points (F, G) with G ≠ 0,
    the terms of the ternary form times L/|A ∪ B| (L = lcm(1..n)), in the
    order of each point's first pair in candidate order.  Returns (pairs,
    Fs, Gs), pairs[i] being the first pair of point i."""
    pairs = _ternary_pairs(n, problem.domain_kind)
    mults = _ternary_multipliers(n, problem.domain_kind)
    fs, gs = ternary_ratios(tables, pairs, problem.ternary)
    first = {}
    for pair, f, h, m in zip(pairs, fs, gs, mults):
        point = (f * m, h * m)
        if point not in first:
            first[point] = pair
    kept = [(point, pair) for point, pair in first.items() if point[1]]
    return (
        [pair for _, pair in kept],
        [f for (f, _), _ in kept],
        [h for (_, h), _ in kept],
    )


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
    as (q·F - p·G)·L/|A ∪ B| for r = p/q with the problem's ternary form,
    the inner objective times q·D·L; the mask tables fill as moves reach
    new masks, so n has no cap.  Returns the pair, the inner value and the
    pair's ratio F/G."""
    maximize = problem.opt == "max"
    two_cut = problem.domain_kind == "nonconstant_2cut"
    p, q = r.numerator, r.denominator

    def feasible(mask_a, mask_b):
        return (mask_a and mask_b) if two_cut else (mask_a or mask_b)

    def scored(moves):
        """(move, score, F, G) for every move."""
        fs, gs = _ternary_ratios(tables, moves, problem.ternary)
        vals = [
            (q * f - p * h) * (big_l // (a | b).bit_count())
            for (a, b), f, h in zip(moves, fs, gs)
        ]
        return zip(moves, vals, fs, gs)

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
        ((_, cur, f, h),) = scored([(mask_a, mask_b)])
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
                for move, val, move_f, move_h in scored(moves):
                    if val > cur if maximize else val < cur:
                        (mask_a, mask_b), cur, f, h = move, val, move_f, move_h
                        improved = True
        # a walk that ends at G = 0 ends outside the ratio's domain
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


def stationary_check(problem_id: str, g: Graph, lam: Fraction, x: RVector) -> bool:
    """Delegate the stationarity condition to the matching eigenproblem."""
    if problem_id not in PROBLEMS:
        raise UnknownProblem(f"no eigenproblem registered for {problem_id!r}")
    return verify(PROBLEMS[problem_id].eigen, g, lam, x).verdict
