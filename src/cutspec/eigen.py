"""Exact verification of candidate eigenpairs for the nonlinear operators.

Each eigenproblem is a finite disjunction (over median choices) of linear
feasibility systems in the subgradient selections: an antisymmetric or
symmetric edge selection z, a median selection v, and slack variables for
interval rows.  Systems are solved exactly over the rationals, so the
verdict carries an exact witness whenever it is positive.

Problem ids:
  one_lap       difference selection balanced against a median subgradient
  signless      symmetric selection against the scaled sign of x
  hat_signless  convex combination of symmetric and difference selections
  cheeger_new   symmetric selection, median term, sup-norm interval rows
  maxcut_inf    difference selection, sup-norm interval rows
  anti_cheeger  difference selection, median term, doubled interval rows
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .errors import (
    DegenerateDenominator,
    TooLarge,
    UnknownProblem,
    ZeroMeasure,
    ZeroVector,
)
from .functionals import (
    RVector,
    indicator,
    l1_mu_norm,
    median_candidates,
    median_distance,
    ratio_objective,
    sup_norm,
    tv,
    tv_plus,
)
from .graph import Graph, mask_members, mask_tables, vol
from .oracles import CutCertificate
from .simplex import find_feasible

ZERO = Fraction(0)
ONE = Fraction(1)

EIGENPROBLEM_IDS = (
    "one_lap",
    "signless",
    "hat_signless",
    "cheeger_new",
    "maxcut_inf",
    "anti_cheeger",
)

# eigenproblem -> ratio objective whose value the eigenvalue must match
RATIO_OF_PROBLEM = {
    "one_lap": "cheeger_tv",
    "signless": "dual",
    "hat_signless": "mdual",
    "cheeger_new": "cheeger_new",
    "maxcut_inf": "maxcut_ratio",
    "anti_cheeger": "anti",
}


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


def _add_diff_selection(sys_: _System, g: Graph, x: RVector, row_coeffs):
    """Antisymmetric z_ij in Sgn(x_i - x_j); adds +w z to row u, -w z to row v."""
    for u, v, w in g.edges:
        s = _sign(x[u] - x[v])
        idx = (
            sys_.fixed(f"z[{u},{v}]", Fraction(s))
            if s
            else sys_.var(f"z[{u},{v}]", -ONE, ONE)
        )
        row_coeffs[u][idx] = row_coeffs[u].get(idx, ZERO) + w
        row_coeffs[v][idx] = row_coeffs[v].get(idx, ZERO) - w


def _add_sym_selection(sys_: _System, g: Graph, x: RVector, row_coeffs, tag="z"):
    """Symmetric z_ij in Sgn(x_i + x_j); adds +w z to both endpoint rows."""
    for u, v, w in g.edges:
        s = _sign(x[u] + x[v])
        idx = (
            sys_.fixed(f"{tag}[{u},{v}]", Fraction(s))
            if s
            else sys_.var(f"{tag}[{u},{v}]", -ONE, ONE)
        )
        row_coeffs[u][idx] = row_coeffs[u].get(idx, ZERO) + w
        row_coeffs[v][idx] = row_coeffs[v].get(idx, ZERO) + w


def _add_median_selection(sys_: _System, g: Graph, x: RVector, c: Fraction):
    """v_i in mu_i Sgn(x_i - c) with sum v = 0; returns the index list."""
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
    return idxs


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


def _verify_one_lap(g, lam, x, raw=False):
    if raw:
        sys_ = _System()
        rows = [dict() for _ in range(g.n)]
        _add_diff_selection(sys_, g, x, rows)
        for i in range(g.n):
            s = _sign(x[i])
            if s:
                rhs = lam * g.mu[i] * s
                sys_.eq(rows[i], rhs)
            else:
                y = sys_.var(f"v[{i}]", -ONE, ONE)
                rows[i][y] = rows[i].get(y, ZERO) - lam * g.mu[i]
                sys_.eq(rows[i], ZERO)
        sol = sys_.solve()
        if sol is None:
            return None
        return _witness(sol, lam, x)
    for c in median_candidates(g, x):
        sys_ = _System()
        rows = [dict() for _ in range(g.n)]
        _add_diff_selection(sys_, g, x, rows)
        vidx = _add_median_selection(sys_, g, x, c)
        for i in range(g.n):
            rows[i][vidx[i]] = rows[i].get(vidx[i], ZERO) - lam
            sys_.eq(rows[i], ZERO)
        sol = sys_.solve()
        if sol is not None:
            return _witness(sol, lam, x, c=c)
    return None


def _verify_signless(g, lam, x):
    sys_ = _System()
    rows = [dict() for _ in range(g.n)]
    _add_sym_selection(sys_, g, x, rows)
    for i in range(g.n):
        s = _sign(x[i])
        if s:
            sys_.eq(rows[i], lam * g.mu[i] * s)
        else:
            y = sys_.var(f"v[{i}]", -ONE, ONE)
            rows[i][y] = rows[i].get(y, ZERO) - lam * g.mu[i]
            sys_.eq(rows[i], ZERO)
    sol = sys_.solve()
    return None if sol is None else _witness(sol, lam, x)


def _verify_hat_signless(g, lam, x):
    sys_ = _System()
    rows_sym = [dict() for _ in range(g.n)]
    rows_diff = [dict() for _ in range(g.n)]
    _add_sym_selection(sys_, g, x, rows_sym, tag="zs")
    _add_diff_selection_tagged(sys_, g, x, rows_diff)
    for i in range(g.n):
        combined = {k: (ONE - lam) * a for k, a in rows_sym[i].items()}
        for k, a in rows_diff[i].items():
            combined[k] = combined.get(k, ZERO) - lam * a
        sys_.eq(combined, ZERO)
    sol = sys_.solve()
    return None if sol is None else _witness(sol, lam, x)


def _add_diff_selection_tagged(sys_, g, x, row_coeffs):
    for u, v, w in g.edges:
        s = _sign(x[u] - x[v])
        idx = (
            sys_.fixed(f"zd[{u},{v}]", Fraction(s))
            if s
            else sys_.var(f"zd[{u},{v}]", -ONE, ONE)
        )
        row_coeffs[u][idx] = row_coeffs[u].get(idx, ZERO) + w
        row_coeffs[v][idx] = row_coeffs[v].get(idx, ZERO) - w


def _verify_sup_norm_system(g, lam, x, symmetric, with_median, bound):
    """Shared core of the three sup-norm systems.

    Row_i is the selection sum plus (when present) lam * v_i.  It must
    vanish on D0, lie in bound * sign(x_i) * [0,1] on D+/D-, and the slacks
    must total exactly bound.
    """
    _, d_plus, d_minus, d_zero = _sup_norm_classes(x)
    medians = median_candidates(g, x) if with_median else [None]
    for c in medians:
        sys_ = _System()
        rows = [dict() for _ in range(g.n)]
        if symmetric:
            _add_sym_selection(sys_, g, x, rows)
        else:
            _add_diff_selection(sys_, g, x, rows)
        if with_median:
            vidx = _add_median_selection(sys_, g, x, c)
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
        if sol is not None:
            return _witness(sol, lam, x, c=c, total=bound)
    return None


def verify(
    id: str, g: Graph, lam: Fraction, x: RVector, raw_one_lap: bool = False
) -> EigenpairReport:
    """Decide whether (lam, x) solves the selected eigenproblem exactly."""
    if all(t == 0 for t in x):
        raise ZeroVector("candidate eigenvector is zero")
    lam = Fraction(lam)
    volV = vol(g, range(g.n))
    if id == "one_lap":
        w = _verify_one_lap(g, lam, x, raw=raw_one_lap)
    elif id == "signless":
        w = _verify_signless(g, lam, x)
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


def rayleigh_consistency(id: str, g: Graph, lam: Fraction, x: RVector) -> bool:
    """True iff the associated ratio objective at x equals lam exactly."""
    return ratio_objective(RATIO_OF_PROBLEM[id], g, x) == Fraction(lam)


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


def _ternary_vectors(g):
    n = g.n
    for mask_a in range(1 << n):
        rest = ~mask_a & ((1 << n) - 1)
        mask_b = rest
        while True:
            if mask_a or mask_b:
                yield (
                    frozenset(i for i in range(n) if mask_a >> i & 1),
                    frozenset(i for i in range(n) if mask_b >> i & 1),
                )
            if mask_b == 0:
                break
            mask_b = (mask_b - 1) & rest


def spectrum_scan(id: str, g: Graph, cap: int = 12):
    """Eigenvalues realized by indicator-type eigenvectors, ascending, with
    one witness each.  The sup-norm problems use closed-form constructors;
    the selection problems verify each ternary candidate exactly."""
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
        seen = {}
        ones = g.vertices()
        if id == "one_lap" and verify(id, g, ZERO, indicator(g, ones)).verdict:
            # constant vectors sit outside the ratio objective's domain
            seen[ZERO] = (
                (tuple(sorted(ones)), ()),
                CutCertificate(
                    kind="set_pair", sets=(ones, frozenset()), value=ZERO
                ),
            )
        for a, b in _ternary_vectors(g):
            x = indicator(g, a, b)
            try:
                lam = ratio_objective(RATIO_OF_PROBLEM[id], g, x)
            except DegenerateDenominator:
                continue
            key = (tuple(sorted(a)), tuple(sorted(b)))
            if lam in seen and seen[lam][0] <= key:
                continue
            if verify(id, g, lam, x).verdict:
                entry = (
                    key,
                    CutCertificate(kind="set_pair", sets=(a, b), value=lam),
                )
                if lam not in seen or key < seen[lam][0]:
                    seen[lam] = entry
        return [(lam, cert) for lam, (_, cert) in sorted(seen.items())]
    raise UnknownProblem(f"unknown eigenproblem {id!r}")
