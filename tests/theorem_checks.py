"""Definitions only the tests use: the Fraction cut weights over vertex
sets (the independent reference for the integer mask tables), the edge
cover number, the set-pair Lovasz extension, vector helpers and the
structure checks that the acceptance battery asserts on verified
eigenpairs.

The check_* functions refuse to run without a positive verification
verdict for x, so theorems are only asserted on actual eigenpairs.
"""

from fractions import Fraction
from typing import Callable, Iterable, Optional

from cutspec.eigen import EigenpairReport, _sign, verify
from cutspec.errors import CutspecError, IsolatedVertex, ParseError, ZeroVector
from cutspec.functionals import RVector, indicator, sup_norm
from cutspec.graph import Graph, graph_params
from cutspec.nodal import NodalReport, _sup_norm_classes, analyze


class NotVerified(CutspecError):
    pass


class OverlappingSets(CutspecError):
    pass


def as_rvector(g: Graph, values) -> RVector:
    x = tuple(Fraction(v) for v in values)
    if len(x) != g.n:
        raise ParseError(f"vector has length {len(x)}, expected {g.n}")
    return x


def emit_rvector(x: RVector) -> str:
    return "\n".join(f"{i} {v}" for i, v in enumerate(x) if v != 0) + "\n"


def binarize(id: str, g: Graph, x: RVector, variant: str = "default") -> RVector:
    """Canonical indicator vector induced by x for the given problem."""
    if all(t == 0 for t in x):
        raise ZeroVector("cannot binarize the zero vector")
    _, d_plus, d_minus, _ = _sup_norm_classes(x)
    if variant == "pm":
        return indicator(g, d_plus, d_minus)
    if id in ("maxcut_inf", "anti_cheeger"):
        return indicator(g, d_plus, frozenset(range(g.n)) - d_plus)
    return tuple(Fraction(_sign(t)) for t in x)


def split(rep: NodalReport, domain: frozenset):
    """A_i / B_i split of a sup-norm component by D+/D- membership."""
    return domain & rep.d_plus, domain & rep.d_minus


def cut_weight(g: Graph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Total weight of edges with one endpoint in a and the other in b."""
    a, b = frozenset(a), frozenset(b)
    if a & b:
        raise OverlappingSets(f"sets overlap on {sorted(a & b)}")
    total = Fraction(0)
    for u, v, w in g.edges:
        if (u in a and v in b) or (u in b and v in a):
            total += w
    return total


def boundary(g: Graph, s: Iterable[int]) -> Fraction:
    """|∂S| = cut weight between s and its complement."""
    s = frozenset(s)
    return cut_weight(g, s, g.vertices() - s)


def intra_weight(g: Graph, s: Iterable[int]) -> Fraction:
    s = frozenset(s)
    return sum((w for u, v, w in g.edges if u in s and v in s), Fraction(0))


def edge_cover_number(g: Graph) -> int:
    params = graph_params(g)
    if params["edge_cover"] is None:
        raise IsolatedVertex("edge cover undefined with isolated vertices")
    return params["edge_cover"]


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


def _require_verified(report: EigenpairReport, x: RVector):
    if report is None or not report.verdict or tuple(report.x) != tuple(x):
        raise NotVerified("structure checks need a verified eigenpair for x")


def check_null_symmetry(g: Graph, x: RVector, verified: EigenpairReport) -> bool:
    """Each null component sees equal edge weight from D+ and from D-."""
    _require_verified(verified, x)
    rep = analyze(g, x, "sup_norm_based")
    return all(
        cut_weight(g, rep.d_plus, omega) == cut_weight(g, rep.d_minus, omega)
        for omega in rep.null_domains
    )


def check_max_eigvec_structure(
    g: Graph,
    x: RVector,
    verified: EigenpairReport,
    problem_id: str,
    k: Optional[int] = None,
    r: Optional[int] = None,
    flip_closure: bool = True,
) -> dict:
    """Structure assertions at the extreme eigenvalue.

    Returns a dict of named booleans; flip_closure re-verifies all 2^S'
    componentwise sign flips, which the caller can disable for large S'.
    """
    _require_verified(verified, x)
    rep = analyze(g, x, "sup_norm_based")
    out = {}
    splits = [split(rep, d) for d in rep.pm_domains]
    out["boundary_balance"] = all(
        boundary(g, a) == boundary(g, b) for a, b in splits
    )
    out["null_vertex_balance"] = all(
        cut_weight(g, a, {v}) == cut_weight(g, b, {v})
        for a, b in splits
        for v in rep.d_zero
    )
    out["d_zero_edgeless"] = intra_weight(g, rep.d_zero) == 0
    out["null_singletons"] = rep.N_nonsingleton == 0
    if g.n >= 3:
        out["sprime_bound"] = 2 * rep.Sprime <= g.n - 1
    if flip_closure:
        m = sup_norm(x)
        ok = True
        for mask in range(1 << len(splits)):
            y = [Fraction(0)] * g.n
            for bit, (a, b) in enumerate(splits):
                sgn = -1 if mask >> bit & 1 else 1
                for v in a:
                    y[v] = sgn * m
                for v in b:
                    y[v] = -sgn * m
            if not verify(problem_id, g, verified.lam, tuple(y)).verdict:
                ok = False
                break
        out["flip_closure"] = ok
    if k is not None and r is not None:
        out["courant_S"] = rep.S <= k + r - 1
        out["courant_S0"] = rep.S0 <= k + r - 2
    return out
