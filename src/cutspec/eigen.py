"""Exact verification of candidate eigenpairs for the nonlinear operators.

Each eigenproblem is one linear feasibility system in the subgradient
selections, solved exactly over the rationals, so the verdict carries an
exact witness whenever it is positive.  The problem's record in
functionals.PROBLEMS gives the system's shape (see functionals.Problem).
verify adds the variables and rows of its edge selections, then those of
lam's term (sign rows, or a median selection at the lowest median of x:
every median gives the same feasible set), then the rows, zero rows or
the sup-norm interval rows.  Its raw_one_lap puts one_lap's lam term as
sign rows in place of the median selection.

verify builds the system in ints.  It reads the signs from x put over the
lcm of its denominators, takes the weights and measures scaled by their
common denominator D (as graph.scaled_graph does) and lam = p/q, and puts
the boxes over D·q and every row, as ints, over D·q (the row sum v = 0
over 1).  As rationals each row is the row these steps describe, so the
simplex takes the same pivots and returns the same point.  Variable names
and Fractions are built only for a returned witness.

A record with difference selections only and zero rows (one_lap's) is a
circulation on G: each selection is a flow on the arc u -> v, lam's term
a flow on an arc from each vertex to a hub node, and the hub's balance is
the row sum v = 0 (see _circulates).  Its verdict is decided by integer
max-flow (flow.circulation_exists), with no simplex call; verify runs the
simplex only after a positive verdict, to build the witness.  The records
with a symmetric selection or sup-norm slack rows are decided by the
simplex.

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
without building a system; only the candidates it passes are decided, by
the flow or by verify's system and the simplex, which stop at the
verdict: no Fraction point and no witness.  The scan's constant vector
is decided the same way.
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
from .flow import circulation_exists
from .functionals import EIGENPROBLEMS, RVector, _median_interval
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
    and B, with no system built.  Needs q > 0 and, for a median selection,
    a positive total measure.  Interval rows are not tested: for them every
    pair passes.

    The rows are read from id's record, as _system reads them.  Row i
    takes w_ij·sign(x_i ± x_j) from an edge to j when that sign is nonzero
    and the free range ±w_ij when it is zero: f is the fixed part and r the
    free part, of the symmetric selection (sign(x_i + x_j)) and of the
    difference selection (sign(x_i - x_j)).  The row is in range when
    |sum of factor·f + lam's fixed term| <= sum of |factor|·r + lam's free
    range.  Every row is scaled by q and the common denominator D of
    scaled."""
    spec = EIGENPROBLEMS[id]
    if spec.slack_total is not None:
        return True
    _, nbrs, deg, mu = scaled
    # each selection's factor k0 + k1·p/q, times q
    k_sym = k_diff = 0
    for symmetric, k0, k1 in spec.selections:
        if symmetric:
            k_sym = k0 * q + k1 * p
        else:
            k_diff = k0 * q + k1 * p
    ak_sym, ak_diff = abs(k_sym), abs(k_diff)
    lp = spec.lam_sign * p
    c = 0
    if spec.median:
        # _median_interval's lowest median c over the levels of x.  The row
        # sum v = 0 is in range at any median: the masses above and below
        # c, each at most half the total, differ by at most the mass at c.
        mass = {-1: 0, 0: 0, 1: 0}
        for i, m in enumerate(mu):
            mass[(a >> i & 1) - (b >> i & 1)] += m
        rest = (1 << len(mu)) - 1 & ~(a | b)
        levels = [t for t, here in ((-1, b), (0, rest), (1, a)) if here]
        c, _ = _median_interval(levels, [mass[t] for t in levels])
    # lam's term lp·mu_i·u_i in row i, u_i = sign(x_i - c), or free in ±1
    # where x_i = c: its fixed and free parts over mu_i on the levels 1, -1, 0
    lf_a, lf_b, lf_0 = lp * (c < 1), -lp * (c > -1), -lp * c
    lr_a, lr_b, lr_0 = abs(lp) * (c == 1), abs(lp) * (c == -1), abs(lp) * (c == 0)
    for i, m in enumerate(mu):
        wa = wb = 0
        for nb, w in nbrs[i]:
            if a & nb:
                wa += w
            elif b & nb:
                wb += w
        wz = deg[i] - wa - wb
        if a >> i & 1:
            lf, lr, f_sym, r_sym, f_diff, r_diff = lf_a, lr_a, wa + wz, wb, wz + wb, wa
        elif b >> i & 1:
            lf, lr, f_sym, r_sym, f_diff, r_diff = lf_b, lr_b, -wb - wz, wa, -wz - wa, wb
        else:
            lf, lr, f_sym, r_sym, f_diff, r_diff = lf_0, lr_0, wa - wb, wz, wb - wa, wz
        if abs(k_sym * f_sym + k_diff * f_diff + lf * m) > (
            ak_sym * r_sym + ak_diff * r_diff + lr * m
        ):
            return False
    return True


def verify(
    id: str, g: Graph, lam: Fraction, x: RVector, raw_one_lap: bool = False
) -> EigenpairReport:
    """Decide whether (lam, x) solves the selected eigenproblem exactly, as
    the module docstring describes: by a circulation where the record
    allows one, and by the simplex on its system in ints otherwise or for
    the witness of a positive verdict."""
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
    p, q = lam.numerator, lam.denominator
    spec = EIGENPROBLEMS[id]
    if _flow_decides(spec) and not _circulates(
        spec, g, p, q, xs, _median_term(id, raw_one_lap)
    ):
        point = None
    else:
        system, (tags, v_of, s_of, med, bound) = _system(id, g, p, q, xs, raw_one_lap)
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
    spec = EIGENPROBLEMS[id]
    if _flow_decides(spec):
        return _circulates(spec, g, p, q, xs, spec.median)
    system, _ = _system(id, g, p, q, xs, False)
    return _feasible_point(*system) is not None


def _flow_decides(spec) -> bool:
    """Whether the record's system is a circulation on G: difference
    selections only, and zero rows."""
    return spec.slack_total is None and not any(sym for sym, _, _ in spec.selections)


def _median_term(id, raw_one_lap) -> bool:
    """Whether lam's term is a median selection: as the record says, except
    one_lap's under raw_one_lap, which takes sign rows."""
    return EIGENPROBLEMS[id].median and not (raw_one_lap and id == "one_lap")


def _circulates(spec, g, p, q, xs, median) -> bool:
    """Whether the system of a record that _flow_decides has a feasible
    point at lam = p/q (q > 0) and the int vector xs, decided as a
    circulation on the vertices of g and a hub node n, in ints.  Each
    difference selection (k0, k1) puts the flow f·W_uv·z_uv on an arc
    u -> v, for f = k0·q + k1·p, the scaled weight W and z_uv in
    Sgn(x_u - x_v); lam's term puts lam_sign·p·mu_i·u_i on an arc i -> hub,
    for the scaled measure mu and u_i in Sgn(x_i - c), with c the lowest
    median of xs when median, else 0.  Row i of _system, times D·q, is the
    balance at i.  The hub's balance, sum of lam_sign·p·mu_i·u_i = 0, is
    the sum of the rows, so it adds nothing: with median it is the row sum
    v = 0 when p != 0, and for p = 0 that row holds at any median by itself
    (see _rows_in_range)."""
    _, wts, mu = _scaled_weights(g)
    c = _median_interval(xs, mu)[0] if median else 0
    arcs = []
    for _, k0, k1 in spec.selections:
        f = k0 * q + k1 * p
        for (u, v, _), wt in zip(g.edges, wts):
            arcs.append((u, v, *_times_sgn(f * wt, xs[u] - xs[v])))
    term = spec.lam_sign * p
    if term:
        for i, m in enumerate(mu):
            arcs.append((i, g.n, *_times_sgn(term * m, xs[i] - c)))
    return circulation_exists(g.n + 1, arcs)


def _times_sgn(a: int, t) -> tuple:
    """a·Sgn(t) as an int interval (lo, hi)."""
    if t:
        a = a if t > 0 else -a
        return a, a
    return -abs(a), abs(a)


def _system(id, g, p, q, xs, raw_one_lap):
    """verify's system for lam = p/q (q > 0) and the nonzero int vector xs
    that has x's signs and levels, built from id's record in
    functionals.PROBLEMS: find_feasible's (den, bounds, rows), and the
    witness's naming (tags, v_of, s_of, med, bound), med the lowest median
    of xs and bound the slack total over den, each None where the system
    has none."""
    spec = EIGENPROBLEMS[id]
    d, wts, mu = _scaled_weights(g)
    dq = d * q
    bounds = []
    rows = [{} for _ in range(g.n)]
    rhs = [0] * g.n
    eqs = []
    sels = spec.selections
    tags = ("z",) if len(sels) == 1 else tuple("zs" if sym else "zd" for sym, _, _ in sels)
    for symmetric, k0, k1 in sels:
        _add_selection(bounds, rows, g, wts, xs, dq, symmetric, k0 * q + k1 * p)
    median = _median_term(id, raw_one_lap)
    med = None
    v_of = ()  # the vertex of each v variable
    if spec.lam_sign and not median:
        # -lam_sign·lam·mu_i·sign(x_i) on the right, or lam_sign·lam·mu_i·v_i,
        # v_i in [-1, 1]
        v_of = [i for i in range(g.n) if not xs[i]]
        for i in range(g.n):
            if xs[i]:
                rhs[i] = -spec.lam_sign * p * mu[i] * _sign(xs[i])
            else:
                rows[i][len(bounds)] = spec.lam_sign * p * mu[i]
                bounds.append((-dq, dq))
    elif median:
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
        term = spec.lam_sign * p * d
        zero_row = {}
        for i in range(g.n):
            s, mq = _sign(xs[i] - med), mu[i] * q
            zero_row[len(bounds)] = 1
            rows[i][len(bounds)] = term
            bounds.append((s * mq, s * mq) if s else (-mq, mq))
        eqs.append((zero_row, 0, 1))
    bound = None
    s_of = ()  # the vertex of each slack s
    if spec.slack_total is not None:
        # slacks in [0, bound] for bound = vol(V)·(k0 + k1·lam), over dq
        k0, k1 = spec.slack_total
        bound = sum(mu) * (k0 * q + k1 * p)
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
