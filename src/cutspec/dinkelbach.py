"""Two-step Dinkelbach iteration for the registered ratio objectives.

Each objective is split as Q = (f1 - f2)/(g1 - g2) with all four pieces
convex and positively homogeneous.  The iteration alternates

    x_{k+1} = argopt over Omega of f1 + r_k g2 - (f2 + r_k g1)
    r_{k+1} = Q(x_{k+1})

and stops at exact rational equality r_{k+1} = r_k.  The exact inner
solver enumerates the scaled ternary vectors (1_A - 1_B)/||.||_1 inside
Omega, where the inner objective attains its optimum; the flip heuristic
walks single-vertex moves from seeded random starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, List, Optional, Tuple

from .errors import DegenerateDenominator, NotInOmega, TooLarge, UnknownProblem
from .eigen import verify
from .functionals import (
    RVector,
    l1_mu_norm,
    median_distance,
    ratio_objective,
    sup_norm,
    tv,
    tv_plus,
)
from .graph import Graph, mask_members, mask_tables, vol
from .oracles import CutCertificate

ZERO = Fraction(0)


def _zero(g, x):
    return ZERO


@dataclass(frozen=True)
class RatioProblem:
    name: str
    f1: Callable
    f2: Callable
    g1: Callable
    g2: Callable
    opt: str  # min | max
    domain_kind: str  # nonzero | nonconstant_2cut | nonconstant_3cut
    # (F, G) = (f1 - f2, g1 - g2) at 1_A - 1_B from its integer terms
    # (tv, tv_plus, median_distance, vol(A ∪ B), vol(V), 2|E|), each scaled
    # by the mask kernel's D
    ternary: Callable


def _e_sup(g, x):
    return g.two_e() * sup_norm(x)


def _vol_sup(g, x):
    return vol(g, range(g.n)) * sup_norm(x)


def _two_vol_sup(g, x):
    return 2 * vol(g, range(g.n)) * sup_norm(x)


PROBLEMS = {
    "cheeger_tv": RatioProblem(
        "cheeger_tv", tv, _zero, median_distance, _zero, "min", "nonconstant_2cut",
        lambda tv_, tvp, md, vol_u, vol_v, two_e: (tv_, md),
    ),
    "cheeger_new": RatioProblem(
        "cheeger_new", _e_sup, tv_plus, median_distance, _zero, "min", "nonconstant_2cut",
        lambda tv_, tvp, md, vol_u, vol_v, two_e: (two_e - tvp, md),
    ),
    "dual": RatioProblem(
        "dual", tv_plus, _zero, l1_mu_norm, _zero, "min", "nonzero",
        lambda tv_, tvp, md, vol_u, vol_v, two_e: (tvp, vol_u),
    ),
    "mdual": RatioProblem(
        "mdual",
        tv_plus,
        _zero,
        lambda g, x: tv_plus(g, x) + tv(g, x),
        _zero,
        "min",
        "nonzero",
        lambda tv_, tvp, md, vol_u, vol_v, two_e: (tvp, tvp + tv_),
    ),
    "maxcut_ratio": RatioProblem(
        "maxcut_ratio", tv, _zero, _vol_sup, _zero, "max", "nonzero",
        lambda tv_, tvp, md, vol_u, vol_v, two_e: (tv_, vol_v),
    ),
    "anti": RatioProblem(
        "anti", tv, _zero, _two_vol_sup, median_distance, "max", "nonzero",
        lambda tv_, tvp, md, vol_u, vol_v, two_e: (tv_, 2 * vol_v - md),
    ),
}

# eigenproblem whose stationarity condition matches each ratio objective
EIGEN_OF_PROBLEM = {
    "cheeger_tv": "one_lap",
    "cheeger_new": "cheeger_new",
    "dual": "signless",
    "mdual": "hat_signless",
    "maxcut_ratio": "maxcut_inf",
    "anti": "anti_cheeger",
}


@dataclass
class DinkelbachTrace:
    iterations: List[dict] = field(default_factory=list)
    converged: bool = False
    final: Optional[CutCertificate] = None


def in_omega(problem: RatioProblem, x: RVector) -> bool:
    if sum(abs(t) for t in x) != 1:
        return False
    if problem.domain_kind == "nonzero":
        return True
    balanced = max(x) + min(x) == 0
    if problem.domain_kind == "nonconstant_2cut":
        return balanced
    return balanced or min(abs(t) for t in x) == 0


def project(problem: RatioProblem, x: RVector) -> RVector:
    """Pull an arbitrary vector into Omega (shift to balance for the 2-cut
    domains, then normalize the plain 1-norm)."""
    if problem.domain_kind != "nonzero":
        c = (max(x) + min(x)) / 2
        x = tuple(t - c for t in x)
    norm = sum(abs(t) for t in x)
    if norm == 0:
        raise NotInOmega("projection collapsed to the zero vector")
    return tuple(t / norm for t in x)


def _candidate_pairs(g: Graph, domain_kind: str):
    """Ternary supports (A, B) whose scaled indicator lies in Omega,
    in ascending lexicographic order of the serialized pair."""
    n = g.n
    full = (1 << n) - 1
    out = []
    for mask_a in range(1 << n):
        rest = ~mask_a & full
        mask_b = rest
        while True:
            a_empty = mask_a == 0
            b_empty = mask_b == 0
            keep = False
            if not (a_empty and b_empty):
                if domain_kind == "nonzero":
                    keep = True
                elif domain_kind == "nonconstant_2cut":
                    keep = not a_empty and not b_empty
                else:  # nonconstant_3cut
                    keep = (not a_empty and not b_empty) or (
                        (mask_a | mask_b) != full
                    )
            if keep:
                out.append((mask_a, mask_b))
            if mask_b == 0:
                break
            mask_b = (mask_b - 1) & rest
    members = mask_members(n)
    rank = [0] * (1 << n)
    for i, m in enumerate(sorted(range(1 << n), key=members.__getitem__)):
        rank[m] = i
    out.sort(key=lambda ab: rank[ab[0]] << n | rank[ab[1]])
    return out


def _pair_vector(g: Graph, mask_a: int, mask_b: int) -> RVector:
    size = bin(mask_a).count("1") + bin(mask_b).count("1")
    s = Fraction(1, size)
    return tuple(
        s if mask_a >> i & 1 else -s if mask_b >> i & 1 else ZERO
        for i in range(g.n)
    )


def _inner_objective(problem: RatioProblem, g, x, r) -> Fraction:
    return (
        problem.f1(g, x)
        + r * problem.g2(g, x)
        - problem.f2(g, x)
        - r * problem.g1(g, x)
    )


def _q(problem: RatioProblem, g, x) -> Fraction:
    den = problem.g1(g, x) - problem.g2(g, x)
    if den == 0:
        raise DegenerateDenominator(
            f"{problem.name} ratio has denominator 0 at x = "
            + "(" + ", ".join(str(t) for t in x) + ")"
        )
    return (problem.f1(g, x) - problem.f2(g, x)) / den


def _ternary_terms(problem: RatioProblem, g: Graph, pairs):
    """Integers proportional to (F, G) = (f1 - f2, g1 - g2) at the candidate
    x = (1_A - 1_B)/s, s = |A| + |B|, for every (A, B) in pairs, from the
    mask kernel.  Both are scaled by the same D·L/s, with L = lcm(1..n), so
    they share the positive factor 1/(D·L) across candidates.  Returns
    (Fs, Gs, D·L)."""
    d, cut, deg, volm = mask_tables(g)
    full = (1 << g.n) - 1
    vol_v, two_e = volm[full], deg[full]
    big_l = lcm(*range(1, g.n + 1))
    fs, gs = [], []
    for a, b in pairs:
        u = a | b
        tv_ = cut[a] + cut[b]
        tvp = deg[u] - tv_ + cut[u]
        rest = vol_v - volm[u]
        md = min(rest + 2 * volm[a], volm[a] + volm[b], 2 * volm[b] + rest)
        f, h = problem.ternary(tv_, tvp, md, volm[u], vol_v, two_e)
        m = big_l // u.bit_count()
        fs.append(f * m)
        gs.append(h * m)
    return fs, gs, d * big_l


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
    if x0 is None:
        x0 = tuple(
            Fraction(1) if i == 0 else ZERO for i in range(g.n)
        )
    x = project(problem, tuple(Fraction(t) for t in x0))
    if not in_omega(problem, x):
        raise NotInOmega("initial vector not in the feasible set")

    if inner == "exact_enum":
        if g.n > cap:
            raise TooLarge(f"exact inner solver capped at n={cap}")
        pairs = _candidate_pairs(g, problem.domain_kind)
        fs, gs, scale = _ternary_terms(problem, g, pairs)
        step = lambda r: _exact_step(pairs, fs, gs, scale, problem.opt == "max", r)
    elif inner == "local_flip":
        rng = random.Random(seed)
        step = lambda r: _flip_step(problem, g, r, rng, restarts)
    else:
        raise UnknownProblem(f"unknown inner solver {inner!r}")

    trace = DinkelbachTrace()
    r = _q(problem, g, x)
    trace.iterations.append(
        {"k": 0, "r": r, "x": x, "inner_value": None}
    )
    final_pair = None
    for k in range(1, max_iter + 1):
        (mask_a, mask_b), value = step(r)
        x = _pair_vector(g, mask_a, mask_b)
        r_next = _q(problem, g, x)
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
    (F - r·G)(x) = (q·F_i - p·G_i)/(q·scale) for r = p/q."""
    p, q = r.numerator, r.denominator
    vals = [q * f - p * h for f, h in zip(fs, gs)]
    best = max(vals) if maximize else min(vals)
    return pairs[vals.index(best)], Fraction(best, q * scale)


def _flip_step(problem, g, r, rng, restarts):
    """Single-vertex moves between A, B and neither; best of R seeded
    random starts.  Heuristic: no optimality claim."""
    n = g.n
    maximize = problem.opt == "max"

    def feasible(mask_a, mask_b):
        if mask_a == 0 and mask_b == 0:
            return False
        if problem.domain_kind == "nonconstant_2cut":
            return mask_a != 0 and mask_b != 0
        if problem.domain_kind == "nonconstant_3cut":
            return (mask_a != 0 and mask_b != 0) or (
                (mask_a | mask_b) != (1 << n) - 1
            )
        return True

    def value(mask_a, mask_b):
        return _inner_objective(problem, g, _pair_vector(g, mask_a, mask_b), r)

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
            mask_a |= 1
            mask_b |= 2 if n > 1 else 0
            mask_a &= ~2
        cur = value(mask_a, mask_b)
        improved = True
        while improved:
            improved = False
            for i in range(n):
                bit = 1 << i
                for na, nb in (
                    (mask_a | bit, mask_b & ~bit),
                    (mask_a & ~bit, mask_b | bit),
                    (mask_a & ~bit, mask_b & ~bit),
                ):
                    if (na, nb) == (mask_a, mask_b) or not feasible(na, nb):
                        continue
                    val = value(na, nb)
                    if val > cur if maximize else val < cur:
                        mask_a, mask_b, cur = na, nb, val
                        improved = True
        key = ((mask_a, mask_b), cur)
        if best is None or (cur > best[1] if maximize else cur < best[1]):
            best = key
    return best


def stationary_check(problem_id: str, g: Graph, lam: Fraction, x: RVector) -> bool:
    """Delegate the stationarity condition to the matching eigenproblem."""
    if problem_id not in EIGEN_OF_PROBLEM:
        raise UnknownProblem(f"no eigenproblem registered for {problem_id!r}")
    return verify(EIGEN_OF_PROBLEM[problem_id], g, lam, x).verdict
