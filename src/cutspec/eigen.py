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

The ternary scans first run the simplex's row-range test in integers,
from the signs of the candidate 1_A - 1_B and the scaled weights,
measures and eigenvalue, without building a system; only the candidates
it passes go to verify and the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .errors import (
    TooLarge,
    UnknownProblem,
    ZeroMeasure,
    ZeroVector,
)
from .functionals import EIGENPROBLEMS, RVector, indicator, median_interval, sup_norm
from .graph import (
    Graph,
    mask_members,
    mask_tables,
    scaled_graph,
    ternary_pairs,
    ternary_ratios,
    vol,
)
from .oracles import CutCertificate
from .simplex import find_feasible

ZERO = Fraction(0)
ONE = Fraction(1)

@dataclass
class EigenpairReport:
    verdict: bool
    lam: Fraction
    x: RVector
    witness: dict = field(default_factory=dict)
    violated: str = ""


class _System:
    """Incremental builder of a boxed linear feasibility system."""

    def __init__(self):
        self.bounds: List[Tuple[Fraction, Fraction]] = []
        self.rows: List[Tuple[dict, Fraction]] = []
        self.names: List[str] = []

    def var(self, name: str, lo: Fraction, hi: Fraction) -> int:
        self.bounds.append((lo, hi))
        self.names.append(name)
        return len(self.bounds) - 1

    def fixed(self, name: str, value: Fraction) -> int:
        return self.var(name, value, value)

    def eq(self, coeffs: dict, rhs: Fraction):
        self.rows.append((dict(coeffs), rhs))

    def solve(self) -> Optional[dict]:
        point = find_feasible(self.bounds, self.rows)
        if point is None:
            return None
        return dict(zip(self.names, point))


def _sign(t: Fraction) -> int:
    return (t > 0) - (t < 0)


def _add_selection(
    sys_: _System, g: Graph, x: RVector, row_coeffs, symmetric, tag="z", scale=None
):
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


def _add_median_selection(sys_: _System, g: Graph, x: RVector):
    """v_i in mu_i Sgn(x_i - c) with sum v = 0 at the lowest median c of x;
    returns c and the index list.

    No other median needs a system.  The levels strictly between the
    median interval's ends lo < hi carry zero mass, and with B the mass
    below lo and A the mass above hi the median conditions give
    B + mu(lo) = mu(hi) + A = half; so sum v = 0 forces v = -mu on every
    level <= lo and +mu on every level >= hi for c = lo, for c = hi and for
    any c between: all have the feasible set of c = lo."""
    c, _ = median_interval(g, x)
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


def _sup_norm_classes(x: RVector):
    m = sup_norm(x)
    d_plus = frozenset(i for i, t in enumerate(x) if t == m)
    d_minus = frozenset(i for i, t in enumerate(x) if t == -m)
    d_zero = frozenset(range(len(x))) - d_plus - d_minus
    return m, d_plus, d_minus, d_zero


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
    its system, as the module docstring lists, and find a feasible point."""
    if all(t == 0 for t in x):
        raise ZeroVector("candidate eigenvector is zero")
    lam = Fraction(lam)
    if id not in EIGENPROBLEMS:
        raise UnknownProblem(f"unknown eigenproblem {id!r}")
    sys_ = _System()
    rows = [dict() for _ in range(g.n)]
    rhs = [ZERO] * g.n
    if id == "hat_signless":
        _add_selection(sys_, g, x, rows, True, "zs", scale=ONE - lam)
        _add_selection(sys_, g, x, rows, False, "zd", scale=-lam)
    else:
        _add_selection(sys_, g, x, rows, id in ("signless", "cheeger_new"))
    c = None
    if id == "signless" or id == "one_lap" and raw_one_lap:
        for i in range(g.n):
            s = _sign(x[i])
            if s:
                rhs[i] = lam * g.mu[i] * s
            else:
                rows[i][sys_.var(f"v[{i}]", -ONE, ONE)] = -lam * g.mu[i]
    elif id in ("one_lap", "cheeger_new", "anti_cheeger"):
        c, vidx = _add_median_selection(sys_, g, x)
        term = -lam if id == "one_lap" else lam
        for i in range(g.n):
            rows[i][vidx[i]] = term
    bound = None
    if id in ("cheeger_new", "maxcut_inf", "anti_cheeger"):
        bound = vol(g, range(g.n))
        if id != "cheeger_new":
            bound *= lam if id == "maxcut_inf" else 2 * lam
        _, d_plus, _, d_zero = _sup_norm_classes(x)
        total_row = {}
    for i in range(g.n):
        if bound is None or i in d_zero:
            sys_.eq(rows[i], rhs[i])
        else:
            sgn = ONE if i in d_plus else -ONE
            s = sys_.var(f"s[{i}]", ZERO, bound)
            row = {k: sgn * a for k, a in rows[i].items()}
            row[s] = -ONE
            sys_.eq(row, ZERO)
            total_row[s] = ONE
    if bound is not None:
        sys_.eq(total_row, bound)
    sol = sys_.solve()
    if sol is None:
        return EigenpairReport(
            verdict=False, lam=lam, x=x, violated="no feasible selection"
        )
    return EigenpairReport(
        verdict=True, lam=lam, x=x, witness=_witness(sol, lam, x, c=c, total=bound)
    )


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
    for mask in sorted(range(1 << n), key=members.__getitem__):
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
        full = (1 << g.n) - 1
        # constant vectors sit outside the ratio objective's domain
        constant = (
            id == "one_lap" and verify(id, g, ZERO, indicator(g, g.vertices())).verdict
        )
        members = mask_members(g.n)
        pairs = ternary_pairs(g.n)
        ratios = ternary_ratios(mask_tables(g), pairs, EIGENPROBLEMS[id].ternary)
        scaled = scaled_graph(g)
        # reduced value -> its first verified pair, which in certificate
        # order is its certificate; later pairs of that value skip verify,
        # and so does a pair whose rows the simplex would reject unbuilt
        accepted = {}
        for (a, b), (num, den) in zip(pairs, ratios):
            if den == 0:  # outside the ratio's domain, as (V, ∅) is for one_lap
                if constant and (a, b) == (full, 0):
                    accepted.setdefault((0, 1), (a, b))
                continue
            c = gcd(num, den)
            key = (num // c, den // c)
            if key not in accepted and _rows_in_range(id, scaled, a, b, *key):
                x = indicator(g, members[a], members[b])
                if verify(id, g, Fraction(*key), x).verdict:
                    accepted[key] = (a, b)
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
