"""One-homogeneous vertex functionals and the set-pair Lovasz extension.

All values are exact rationals.  An RVector is a tuple of Fractions of
length g.n.  Medians are mu-weighted; the full minimizer interval is
returned so callers can enumerate its endpoints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import DegenerateDenominator, ParseError, UnknownProblem, ZeroMeasure
from .graph import Graph, cut_weight, parse_rational

RVector = tuple


def as_rvector(g: Graph, values) -> RVector:
    x = tuple(Fraction(v) for v in values)
    if len(x) != g.n:
        raise ParseError(f"vector has length {len(x)}, expected {g.n}")
    return x


def indicator(g: Graph, a, b=()) -> RVector:
    """Ternary vector 1_A - 1_B."""
    a, b = frozenset(a), frozenset(b)
    return tuple(
        Fraction(1) if i in a else Fraction(-1) if i in b else Fraction(0)
        for i in range(g.n)
    )


def tv(g: Graph, x: RVector) -> Fraction:
    """Total variation: sum of w_ij |x_i - x_j| over edges."""
    return sum((w * abs(x[u] - x[v]) for u, v, w in g.edges), Fraction(0))


def tv_plus(g: Graph, x: RVector) -> Fraction:
    """Signless total variation: sum of w_ij |x_i + x_j|."""
    return sum((w * abs(x[u] + x[v]) for u, v, w in g.edges), Fraction(0))


def sup_norm(x: RVector) -> Fraction:
    return max((abs(t) for t in x), default=Fraction(0))


def l1_mu_norm(g: Graph, x: RVector) -> Fraction:
    return sum((g.mu[i] * abs(x[i]) for i in range(g.n)), Fraction(0))


def median_interval(g: Graph, x: RVector):
    """Closed interval of minimizers of t -> sum mu_i |x_i - t|.

    t is a minimizer iff the mu-mass strictly below and strictly above t
    are each at most half the total mass.
    """
    total = sum(g.mu, Fraction(0))
    if total == 0:
        raise ZeroMeasure("total vertex measure is zero")
    half = total / 2
    pairs = sorted(zip(x, g.mu))
    values = []
    weights = []
    for v, m in pairs:
        if values and values[-1] == v:
            weights[-1] += m
        else:
            values.append(v)
            weights.append(m)
    prefix = Fraction(0)
    lo = hi = None
    for idx, (v, m) in enumerate(zip(values, weights)):
        below = prefix
        above = total - prefix - m
        if below <= half and above <= half:
            if lo is None:
                lo = v
            hi = v
            # flat segment: the whole gap to the next value minimizes
            if below + m == half and idx + 1 < len(values):
                hi = values[idx + 1]
        prefix += m
    return lo, hi


def median_candidates(g: Graph, x: RVector):
    """Deterministic finite set covering the median interval's cases:
    both endpoints plus the midpoint when the interval is nondegenerate."""
    lo, hi = median_interval(g, x)
    if lo == hi:
        return [lo]
    return [lo, (lo + hi) / 2, hi]


def median_distance(g: Graph, x: RVector) -> Fraction:
    """N(x) = min_t sum mu_i |x_i - t|, evaluated at a median."""
    lo, _ = median_interval(g, x)
    return sum((g.mu[i] * abs(x[i] - lo) for i in range(g.n)), Fraction(0))


def lovasz_extension(g: Graph, f: Callable, x: RVector) -> Fraction:
    """Set-pair Lovasz extension of f at x.

    Sort |x| ascending (stable by vertex id) with a zero sentinel; at each
    level t the pair ({x > t}, {x < -t}) is weighted by the increment of t.
    """
    order = sorted(range(g.n), key=lambda i: (abs(x[i]), i))
    levels = [Fraction(0)] + [abs(x[i]) for i in order]
    total = Fraction(0)
    for k in range(g.n):
        inc = levels[k + 1] - levels[k]
        if inc == 0:
            continue
        t = levels[k]
        pos = frozenset(j for j in range(g.n) if x[j] > t)
        neg = frozenset(j for j in range(g.n) if -x[j] > t)
        total += inc * f(pos, neg)
    return total


PROBLEM_IDS = (
    "cheeger_tv",
    "cheeger_new",
    "dual",
    "mdual",
    "maxcut_ratio",
    "anti",
)


def ratio_objective(problem_id: str, g: Graph, x: RVector) -> Fraction:
    """Exact ratio value of the selected objective at x."""
    volV = sum(g.mu, Fraction(0))
    if problem_id == "cheeger_tv":
        den = median_distance(g, x)
        if den == 0:
            raise DegenerateDenominator("constant vector for cheeger_tv")
        return tv(g, x) / den
    if problem_id == "cheeger_new":
        den = median_distance(g, x)
        if den == 0:
            raise DegenerateDenominator("constant vector for cheeger_new")
        return (g.two_e() * sup_norm(x) - tv_plus(g, x)) / den
    if problem_id == "dual":
        den = l1_mu_norm(g, x)
        if den == 0:
            raise DegenerateDenominator("zero vector for dual ratio")
        return tv_plus(g, x) / den
    if problem_id == "mdual":
        den = tv_plus(g, x) + tv(g, x)
        if den == 0:
            raise DegenerateDenominator("isolated support for mdual ratio")
        return tv_plus(g, x) / den
    if problem_id == "maxcut_ratio":
        den = volV * sup_norm(x)
        if den == 0:
            raise DegenerateDenominator("zero vector for maxcut ratio")
        return tv(g, x) / den
    if problem_id == "anti":
        den = 2 * volV * sup_norm(x) - median_distance(g, x)
        if den == 0:
            raise DegenerateDenominator("zero vector for anti ratio")
        return tv(g, x) / den
    raise UnknownProblem(f"unknown problem id {problem_id!r}")


def parse_rvector(g: Graph, text: str) -> RVector:
    """Parse 'i value' lines; vertices not listed default to 0."""
    vals = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'i value', got {line!r}", line=lineno)
        try:
            i = int(parts[0])
        except ValueError:
            raise ParseError(f"bad vertex id in {line!r}", line=lineno)
        if not 0 <= i < g.n:
            raise ParseError(f"vertex {i} out of range", line=lineno)
        vals[i] = parse_rational(parts[1])
    return tuple(vals.get(i, Fraction(0)) for i in range(g.n))


def emit_rvector(x: RVector) -> str:
    return "\n".join(f"{i} {v}" for i, v in enumerate(x) if v != 0) + "\n"
