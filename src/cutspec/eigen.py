"""Exact verification of candidate eigenpairs for the nonlinear operators.

Each eigenproblem is one linear feasibility system in the subgradient
selections, solved exactly over the rationals, so the verdict carries an
exact witness whenever it is positive.  verify builds every system in
three steps, which add their variables and rows in this order:

  1. Edge selections: a symmetric z_ij in Sgn(x_i + x_j) or a difference
     z_ij in Sgn(x_i - x_j), with w_ij z_ij in rows i and j, negated in
     row j for a difference.  hat_signless has both: zs scaled by 1 - lam,
     then zd scaled by -lam.
  2. lam's term.  Sign rows put lam·mu_i·sign(x_i) on the right of row i,
     or -lam·mu_i·v_i with a free v_i in [-1, 1] where x_i = 0.  A median
     selection v_i in mu_i·Sgn(x_i - c) with sum v = 0, at the lowest
     median c of x (every median gives the same feasible set), adds -lam·v_i
     or +lam·v_i to row i.
  3. The rows: every row equals its right side (zero but for sign rows), or
     the sup-norm interval rows, where row i vanishes if |x_i| < ||x||_inf
     and else equals sign(x_i)·s_i with a slack s_i in [0, b], the slacks
     totalling b, for b = vol(V), lam·vol(V) or 2·lam·vol(V).

Problem ids:
  one_lap       difference selection, median term -lam, zero rows
                (raw_one_lap: difference selection, sign rows)
  signless      symmetric selection, sign rows
  hat_signless  symmetric and difference selections, zero rows
  cheeger_new   symmetric selection, median term +lam, interval rows, vol(V)
  maxcut_inf    difference selection, interval rows, lam·vol(V)
  anti_cheeger  difference selection, median term +lam, interval rows,
                2·lam·vol(V)

verify builds the system in ints.  It reads the signs from x put over the
lcm of its denominators, takes the weights and measures scaled by their
common denominator D (as graph.scaled_graph does) and lam = p/q, and puts
the boxes over D·q and every row, as ints, over D·q (the row sum v = 0
over 1).  As rationals each row is the row these steps describe, so the
simplex takes the same pivots and returns the same point.  Variable names
and Fractions are built only for a returned witness.

The ternary scans enumerate one pair per mirror class {(A, B), (B, A)},
the one that comes first in certificate order
(graph._ternary_representatives).  The two have one value, and one
verdict: the system for -x is the one for x with the selections z and v
negated (one_lap's at the lowest median of -x, which has the feasible set
of any median).  So the first verified pair of each value is the one the
full enumeration finds.  The one exception is one_lap's constant vector:
its certificate (V, ∅) is not the representative of its class, and the
scan puts it back at its own place in certificate order.  A scan first
runs the simplex's row-range test in integers, from the signs of the
candidate 1_A - 1_B and the scaled weights, measures and eigenvalue,
without building a system; only the candidates it passes get verify's
system and the simplex, which stop at the verdict: no Fraction point and
no witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    TooLarge,
    UnknownProblem,
    ZeroMeasure,
    ZeroVector,
)
from .functionals import EIGENPROBLEMS, RVector, _median_interval, indicator, sup_norm
from .graph import (
    Graph,
    _member_order,
    _scaled_weights,
    _ternary_representatives,
    mask_members,
    mask_tables,
    scaled_graph,
    ternary_ratios,
)
from .oracles import CutCertificate
from .simplex import _feasible_point, find_feasible


@dataclass
class EigenpairReport:
    verdict: bool
    lam: Fraction
    x: RVector
    witness: dict = field(default_factory=dict)
    violated: str = ""


def _sign(t) -> int:
    return (t > 0) - (t < 0)


def _add_selection(bounds, rows, g, wts, xs, dq, symmetric, f):
    """Edge selection z_ij in Sgn(x_i + x_j) when symmetric, else the
    antisymmetric z_ij in Sgn(x_i - x_j), its box over dq; adds f·W_ij to
    row u and +f·W_ij (symmetric) or -f·W_ij to row v, over the row
    denominator dq, for the scaled weights W = wts."""
    for (u, v, _), wt in zip(g.edges, wts):
        t = xs[u] + xs[v] if symmetric else xs[u] - xs[v]
        if t:
            bounds.append((dq, dq) if t > 0 else (-dq, -dq))
        else:
            bounds.append((-dq, dq))
        idx = len(bounds) - 1
        a = f * wt
        rows[u][idx] = a
        rows[v][idx] = a if symmetric else -a


def _sup_norm_classes(x: RVector):
    m = sup_norm(x)
    d_plus = frozenset(i for i, t in enumerate(x) if t == m)
    d_minus = frozenset(i for i, t in enumerate(x) if t == -m)
    d_zero = frozenset(range(len(x))) - d_plus - d_minus
    return m, d_plus, d_minus, d_zero


def _witness(point, g, tags, v_of, s_of, c, total) -> dict:
    """The feasible point as named selections: z per edge under each tag,
    v and s per vertex, the median c and, for a positive slack total, the
    slacks as proportions in [0, 1]."""
    w = {"z": {}, "v": {}, "s": {}}
    vals = iter(point)
    for tag in tags if g.edges else ():
        w["z"][tag] = {f"{u},{v}": next(vals) for u, v, _ in g.edges}
    for key, ids in (("v", v_of), ("s", s_of)):
        for i in ids:
            w[key][str(i)] = next(vals)
    if c is not None:
        w["c_x"] = c
    if total:
        w["p"] = {k: val / total for k, val in w["s"].items()}
    return w


def _rows_in_range(id: str, scaled, a: int, b: int, p: int, q: int) -> bool:
    """simplex._rows_in_reach on the system that verify(id, g, p/q, 1_A - 1_B)
    builds, decided in ints from scaled = scaled_graph(g) and the masks of A
    and B, with no system built.  Needs q > 0 and, for one_lap, a positive
    total measure.

    Row i takes w_ij·sign(x_i ± x_j) from an edge to j when that sign is
    nonzero and the free range ±w_ij when it is zero: f is the fixed part
    and r the free part, of the symmetric selection (sign(x_i + x_j)) and
    of the difference selection (sign(x_i - x_j)).  Every row is scaled
    by q and the common denominator D of scaled."""
    _, nbrs, deg, mu = scaled
    ap = abs(p)
    mass = {-1: 0, 0: 0, 1: 0}
    diff_rows = []
    for i, m in enumerate(mu):
        wa = wb = 0
        for nb, w in nbrs[i]:
            if a & nb:
                wa += w
            elif b & nb:
                wb += w
        wz = deg[i] - wa - wb
        if a >> i & 1:
            t, f_sym, r_sym, f_diff, r_diff = 1, wa + wz, wb, wz + wb, wa
        elif b >> i & 1:
            t, f_sym, r_sym, f_diff, r_diff = -1, -wb - wz, wa, -wz - wa, wb
        else:
            t, f_sym, r_sym, f_diff, r_diff = 0, wa - wb, wz, wb - wa, wz
        if id == "signless":
            # rhs λ·μ_i·x_i; where x_i = 0 a slack ±λ·μ_i takes its place
            if abs(p * m * t - q * f_sym) > q * r_sym + (0 if t else ap * m):
                return False
        elif id == "hat_signless":
            # (1 - λ)·symmetric - λ·difference selection = 0
            if abs((q - p) * f_sym - p * f_diff) > abs(q - p) * r_sym + ap * r_diff:
                return False
        else:
            mass[t] += m
            diff_rows.append((t, f_diff, r_diff, m))
    if id != "one_lap":
        return True
    # _add_median_selection's c: the lowest level of x with at most half
    # the mass on either side
    full = (1 << len(mu)) - 1
    total = sum(mass.values())
    below = 0
    for c, here in ((-1, b), (0, full & ~(a | b)), (1, a)):
        if here:
            if 2 * below <= total and 2 * (total - below - mass[c]) <= total:
                break
            below += mass[c]
    # v_i = μ_i·s_i for s_i = sign(x_i - c) ≠ 0, else free in ±μ_i;
    # the row Σv = 0, then the rows difference selection - λ·v_i = 0
    sgn = {t: (t > c) - (t < c) for t in mass}
    if abs(sum(sgn[t] * m for t, m in mass.items())) > sum(
        m for t, m in mass.items() if not sgn[t]
    ):
        return False
    return all(
        abs(q * f - p * sgn[t] * m) <= q * r + (0 if sgn[t] else ap * m)
        for t, f, r, m in diff_rows
    )


def verify(
    id: str, g: Graph, lam: Fraction, x: RVector, raw_one_lap: bool = False
) -> EigenpairReport:
    """Decide whether (lam, x) solves the selected eigenproblem exactly: build
    its system in ints, as the module docstring lists, and find a feasible
    point."""
    if all(t == 0 for t in x):
        raise ZeroVector("candidate eigenvector is zero")
    lam = Fraction(lam)
    if id not in EIGENPROBLEMS:
        raise UnknownProblem(f"unknown eigenproblem {id!r}")
    # x over the lcm of its denominators: the same signs and levels
    den = 1
    for t in x:
        den = lcm(den, t.denominator)
    xs = [t.numerator * (den // t.denominator) for t in x]
    system, (tags, v_of, s_of, med, bound) = _system(
        id, g, lam.numerator, lam.denominator, xs, raw_one_lap
    )
    point = find_feasible(*system)
    if point is None:
        return EigenpairReport(
            verdict=False, lam=lam, x=x, violated="no feasible selection"
        )
    c = None if med is None else Fraction(med, den)
    total = None if bound is None else Fraction(bound, system[0])
    return EigenpairReport(
        verdict=True,
        lam=lam,
        x=x,
        witness=_witness(point, g, tags, v_of, s_of, c, total),
    )


def _verdict(id: str, g: Graph, p: int, q: int, xs: list) -> bool:
    """verify(id, g, p/q, x).verdict for the int vector xs of x's levels,
    with no point or witness built: what the scans read."""
    system, _ = _system(id, g, p, q, xs, False)
    return _feasible_point(*system) is not None


def _system(id, g, p, q, xs, raw_one_lap):
    """verify's system for lam = p/q (q > 0) and the nonzero int vector xs
    that has x's signs and levels: find_feasible's (den, bounds, rows), and
    the witness's naming (tags, v_of, s_of, med, bound), med the lowest
    median of xs and bound the slack total over den, each None where the
    system has none."""
    d, wts, mu = _scaled_weights(g)
    dq = d * q
    bounds = []
    rows = [{} for _ in range(g.n)]
    rhs = [0] * g.n
    eqs = []
    if id == "hat_signless":
        tags = ("zs", "zd")
        _add_selection(bounds, rows, g, wts, xs, dq, True, q - p)
        _add_selection(bounds, rows, g, wts, xs, dq, False, -p)
    else:
        tags = ("z",)
        _add_selection(bounds, rows, g, wts, xs, dq, id in ("signless", "cheeger_new"), q)
    med = None
    v_of = ()  # the vertex of each v variable
    if id == "signless" or id == "one_lap" and raw_one_lap:
        # lam·mu_i·sign(x_i) on the right, or -lam·mu_i·v_i, v_i in [-1, 1]
        v_of = [i for i in range(g.n) if not xs[i]]
        for i in range(g.n):
            if xs[i]:
                rhs[i] = p * mu[i] * _sign(xs[i])
            else:
                rows[i][len(bounds)] = -p * mu[i]
                bounds.append((-dq, dq))
    elif id in ("one_lap", "cheeger_new", "anti_cheeger"):
        # v_i in mu_i·Sgn(x_i - c), box over dq, and sum v = 0, at the
        # lowest median c.  No other median needs a system.  The levels
        # strictly between the median interval's ends lo < hi carry zero
        # mass, and with B the mass below lo and A the mass above hi the
        # median conditions give B + mu(lo) = mu(hi) + A = half; so sum v = 0
        # forces v = -mu on every level <= lo and +mu on every level >= hi
        # for c = lo, for c = hi and for any c between: all have the
        # feasible set of c = lo.
        med, _ = _median_interval(xs, mu)
        v_of = range(g.n)
        term = -p * d if id == "one_lap" else p * d
        zero_row = {}
        for i in range(g.n):
            s, mq = _sign(xs[i] - med), mu[i] * q
            zero_row[len(bounds)] = 1
            rows[i][len(bounds)] = term
            bounds.append((s * mq, s * mq) if s else (-mq, mq))
        eqs.append((zero_row, 0, 1))
    bound = None
    s_of = ()  # the vertex of each slack s
    if id in ("cheeger_new", "maxcut_inf", "anti_cheeger"):
        # slacks in [0, bound] for bound = vol(V)·(1, lam or 2·lam), over dq
        bound = sum(mu) * (q if id == "cheeger_new" else p if id == "maxcut_inf" else 2 * p)
        top = max(abs(t) for t in xs)
        s_of = [i for i in range(g.n) if abs(xs[i]) == top]
        total_row = {}
    for i in range(g.n):
        if bound is None or abs(xs[i]) != top:
            eqs.append((rows[i], rhs[i], dq))
        else:
            s = len(bounds)
            bounds.append((0, bound))
            row = rows[i] if xs[i] > 0 else {k: -a for k, a in rows[i].items()}
            row[s] = -dq
            eqs.append((row, 0, dq))
            total_row[s] = dq
    if bound is not None:
        eqs.append((total_row, bound, dq))
    return (dq, bounds, eqs), (tags, v_of, s_of, med, bound)


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


def _scan_subset_family(g, ratio, include_trivial):
    """Distinct values of ratio(mask) = (num, den) over vertex subsets,
    ascending, each with its smallest serialized subset.  Values are grouped
    as reduced integer pairs; a Fraction is built once per distinct value."""
    n = g.n
    full = (1 << n) - 1
    members = mask_members(n)
    seen = {}
    for mask in _member_order(n)[0]:
        if not include_trivial and (mask == 0 or mask == full):
            continue
        num, den = ratio(mask)
        if den == 0:
            raise ZeroMeasure("a ratio denominator is zero: some vertex set has measure zero")
        c = gcd(num, den)
        seen.setdefault((num // c, den // c), mask)
    values = sorted((Fraction(num, den), mask) for (num, den), mask in seen.items())
    return [
        (
            val,
            CutCertificate(kind="subset", sets=(frozenset(members[mask]),), value=val),
        )
        for val, mask in values
    ]


def spectrum_scan(id: str, g: Graph, cap: int = 12):
    """Eigenvalues realized by indicator-type eigenvectors, ascending, with
    one witness each.  The sup-norm problems use closed-form constructors;
    the selection problems verify ternary candidates exactly, in certificate
    order, each value only until its first verified candidate."""
    if id in ("maxcut_inf", "cheeger_new", "anti_cheeger"):
        if g.n > cap:
            raise TooLarge(f"scan capped at n={cap}")
        _, cut, _, volm = mask_tables(g)
        full = (1 << g.n) - 1
        vol_v = volm[full]
        if id == "maxcut_inf":
            return _scan_subset_family(
                g, lambda m: (2 * cut[m], vol_v), include_trivial=True
            )
        if id == "anti_cheeger":
            return _scan_subset_family(
                g,
                lambda m: (
                    (cut[m], max(volm[m], vol_v - volm[m])) if 0 < m < full else (0, 1)
                ),
                include_trivial=True,
            )
        out = _scan_subset_family(
            g,
            lambda m: (cut[m], min(volm[m], vol_v - volm[m])),
            include_trivial=False,
        )
        zero = (
            Fraction(0),
            CutCertificate(kind="subset", sets=(g.vertices(),), value=Fraction(0)),
        )
        if not out or out[0][0] != 0:
            out.insert(0, zero)
        return out
    if id in ("signless", "one_lap", "hat_signless"):
        if g.n > 9 or g.n > cap:
            raise TooLarge(f"ternary scan capped at n={min(cap, 9)}")
        # constant vectors sit outside the ratio objective's domain
        constant = id == "one_lap" and _verdict(id, g, 0, 1, [1] * g.n)
        members = mask_members(g.n)
        # one pair per mirror class: (B, A) has the value and the verdict of
        # (A, B), which comes first in certificate order
        pairs = _ternary_representatives(g.n, "nonzero")
        nums, dens = ternary_ratios(mask_tables(g), pairs, EIGENPROBLEMS[id].ternary)
        scaled = scaled_graph(g)
        # reduced value -> its first verified pair, which in certificate
        # order is its certificate; later pairs of that value skip verify,
        # and so does a pair whose rows the simplex would reject unbuilt.
        # Only verify's verdict is read, so no point or witness is built.
        accepted = {}
        for (a, b), num, den in zip(pairs, nums, dens):
            if den == 0:  # outside the ratio's domain
                continue
            c = gcd(num, den)
            key = (num // c, den // c)
            if key in accepted:
                continue
            if _rows_in_range(id, scaled, a, b, *key):
                xs = [(a >> i & 1) - (b >> i & 1) for i in range(g.n)]
                if _verdict(id, g, *key, xs):
                    accepted[key] = (a, b)
        if constant:
            # the certificate of the constant vector is (V, ∅), not its
            # representative (∅, V): it takes the value 0 unless a pair
            # before it in certificate order took it first
            full = (1 << g.n) - 1
            first = accepted.get((0, 1))
            rank = _member_order(g.n)[1]
            if first is None or rank[first[0]] > rank[full]:
                accepted[(0, 1)] = (full, 0)
        values = sorted((Fraction(*key), a, b) for key, (a, b) in accepted.items())
        return [
            (
                lam,
                CutCertificate(
                    kind="set_pair",
                    sets=(frozenset(members[a]), frozenset(members[b])),
                    value=lam,
                ),
            )
            for lam, a, b in values
        ]
    raise UnknownProblem(f"unknown eigenproblem {id!r}")
