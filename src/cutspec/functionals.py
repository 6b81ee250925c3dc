"""One-homogeneous vertex functionals and the problem registry.

All values are exact rationals.  An RVector is a tuple of Fractions of
length g.n.  Medians are mu-weighted, and median_interval returns the
full minimizer interval.  PROBLEMS holds one record per ratio problem;
every other module looks a problem up there.  A record's ternary form
maps integer columns over candidate pairs (A, B) of graph.TernaryColumns
(tv, tv_plus, vol(A ∪ B) and the median distance
md = min(vol(A ∪ B), vol(V) - |vol(A) - vol(B)|)) to the ratio's
numerator and denominator columns at 1_A - 1_B.  The Dinkelbach steps
and the ternary scans read their ratios through these forms; the tests
hold each form to ratio_objective, the ratio's Fraction definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DegenerateDenominator, ParseError, UnknownProblem, ZeroMeasure
from .graph import Graph, parse_rational

RVector = tuple


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
    return _median_interval(x, g.mu)


def _median_interval(x, mu):
    """median_interval for values x and masses mu, Fractions or ints alike
    (eigen.verify passes both scaled to ints; the scans' row-range test
    passes the levels of a ternary vector and their masses)."""
    total = sum(mu)
    if total == 0:
        raise ZeroMeasure("total vertex measure is zero")
    pairs = sorted(zip(x, mu))
    values = []
    weights = []
    for v, m in pairs:
        if values and values[-1] == v:
            weights[-1] += m
        else:
            values.append(v)
            weights.append(m)
    below = 0
    lo = hi = None
    for v, m in zip(values, weights):
        if 2 * below <= total and 2 * (total - below - m) <= total:
            if lo is None:
                lo = v
            hi = v
        below += m
    return lo, hi


def median_distance(g: Graph, x: RVector) -> Fraction:
    """N(x) = min_t sum mu_i |x_i - t|, evaluated at a median."""
    lo, _ = median_interval(g, x)
    return sum((g.mu[i] * abs(x[i] - lo) for i in range(g.n)), Fraction(0))


@dataclass(frozen=True)
class Problem:
    """One cut problem: its ratio objective, the eigenproblem whose
    stationarity condition the ratio's critical points meet, and the cut
    constant oracles.ORACLES[oracle] whose value, or 1 minus it when dual,
    is the ratio's optimum over domain_kind.  ternary is the ratio's integer
    form: it maps the columns of graph.TernaryColumns (tv, tv_plus, vol_u,
    md, and the ints vol_v and two_e, all scaled by the same D of
    graph.mask_tables) to the lists of the ratio's numerators and
    denominators at 1_A - 1_B over the columns' pairs.  It builds only the
    columns it reads, each once.

    selections, lam_sign, median and slack_total give the eigenproblem's
    linear system, which eigen.verify builds and the ternary scans'
    row-range test reads; a factor (k0, k1) is k0 + k1·lam.  Row i sums
    factor·w_ij·z_ij over the edges ij for each (symmetric, k0, k1) in
    selections, z_ij in Sgn(x_i + x_j) when symmetric, else in
    Sgn(x_i - x_j) and negated in row j; and, unless lam_sign is 0,
    lam_sign·lam·mu_i·u_i with u_i in Sgn(x_i - c): with median, c is the
    lowest median of x and sum mu_i·u_i = 0, else c = 0 (the sign rows).
    Row i is 0 if slack_total is None; else it is 0 where
    |x_i| < ||x||_inf and sign(x_i)·s_i elsewhere, with slacks s_i >= 0
    that total vol(V) times the factor slack_total."""

    ratio: str
    eigen: str
    oracle: str
    dual: bool
    opt: str  # min | max
    domain_kind: str  # nonzero | nonconstant_2cut
    ternary: Callable
    selections: tuple
    lam_sign: int = 0
    median: bool = False
    slack_total: tuple | None = None


def _mdual_form(c):
    """The ternary form of mdual, (tv_plus, tv_plus + tv), reading each
    column once."""
    tvp = c.tv_plus()
    return tvp, [s + t for s, t in zip(tvp, c.tv())]


PROBLEMS = {
    p.ratio: p
    for p in (
        # ratio, eigen, oracle, dual, opt, domain_kind, ternary, then the system
        Problem(
            "cheeger_tv", "one_lap", "cheeger", False, "min", "nonconstant_2cut",
            lambda c: (c.tv(), c.md()),
            ((False, 1, 0),), lam_sign=-1, median=True,
        ),
        Problem(
            "cheeger_new", "cheeger_new", "cheeger", False, "min", "nonconstant_2cut",
            lambda c: ([c.two_e - t for t in c.tv_plus()], c.md()),
            ((True, 1, 0),), lam_sign=1, median=True, slack_total=(1, 0),
        ),
        Problem(
            "dual", "signless", "dual_cheeger", True, "min", "nonzero",
            lambda c: (c.tv_plus(), c.vol_u()),
            ((True, 1, 0),), lam_sign=-1,
        ),
        Problem(
            "mdual", "hat_signless", "modified_dual_cheeger", True, "min", "nonzero",
            _mdual_form,
            ((True, 1, -1), (False, 0, -1)),
        ),
        Problem(
            "maxcut_ratio", "maxcut_inf", "maxcut", False, "max", "nonzero",
            lambda c: (c.tv(), [c.vol_v] * len(c.pairs)),
            ((False, 1, 0),), slack_total=(0, 1),
        ),
        Problem(
            "anti", "anti_cheeger", "anti_cheeger", False, "max", "nonzero",
            lambda c: (c.tv(), [2 * c.vol_v - m for m in c.md()]),
            ((False, 1, 0),), lam_sign=1, median=True, slack_total=(0, 2),
        ),
    )
}

# the same records by eigenproblem id
EIGENPROBLEMS = {p.eigen: p for p in PROBLEMS.values()}


def ratio_objective(problem_id: str, g: Graph, x: RVector) -> Fraction:
    """Exact ratio value of the selected objective at any x, from only the
    terms that objective reads."""
    if problem_id == "cheeger_tv":
        num, den = tv(g, x), median_distance(g, x)
    elif problem_id == "cheeger_new":
        num, den = g.two_e() * sup_norm(x) - tv_plus(g, x), median_distance(g, x)
    elif problem_id == "dual":
        num, den = tv_plus(g, x), l1_mu_norm(g, x)
    elif problem_id == "mdual":
        num = tv_plus(g, x)
        den = num + tv(g, x)
    elif problem_id == "maxcut_ratio":
        num, den = tv(g, x), sum(g.mu, Fraction(0)) * sup_norm(x)
    elif problem_id == "anti":
        num = tv(g, x)
        den = 2 * sum(g.mu, Fraction(0)) * sup_norm(x) - median_distance(g, x)
    else:
        raise UnknownProblem(f"unknown problem id {problem_id!r}")
    if den == 0:
        raise DegenerateDenominator(
            f"{problem_id} ratio has denominator 0 at x = ("
            + ", ".join(str(t) for t in x)
            + ")"
        )
    return num / den


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
