"""Exact rational linear feasibility via a phase-1 simplex.

Solves: find x with lo_j <= x_j <= hi_j and A x = b, all data Fractions.
Box bounds are rewritten as shifted nonnegative variables plus slack rows,
then phase-1 with artificial variables and Bland's rule (no cycling, no
floating point).  A row whose right-hand side lies outside the range its
left-hand side takes over the box rejects the system before any tableau is
built; most rejected eigenpair candidates end there.  Intended for the
small systems produced by eigenpair verification, not as a general-purpose
LP code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def _rows_in_reach(bounds, rows) -> bool:
    """Row-interval test, a necessary condition for feasibility: over the
    box, sum a_j x_j ranges over [sum of a_j at its minimizing bound, sum of
    a_j at its maximizing bound], and each row's rhs must lie in its range."""
    for coeffs, rhs in rows:
        low = high = ZERO
        for j, a in coeffs.items():
            lo, hi = bounds[j]
            if a > 0:
                low += a * lo
                high += a * hi
            elif a < 0:
                low += a * hi
                high += a * lo
        if not low <= rhs <= high:
            return False
    return True


def find_feasible(
    bounds: Sequence[Tuple[Fraction, Fraction]],
    rows: Sequence[Tuple[dict, Fraction]],
) -> Optional[List[Fraction]]:
    """Return a point satisfying all equality rows within the boxes, or None.

    bounds: per-variable (lo, hi) with lo <= hi, both finite.
    rows: equality constraints as ({var_index: coeff}, rhs).
    """
    nv = len(bounds)
    for lo, hi in bounds:
        if lo > hi:
            return None
    if not _rows_in_reach(bounds, rows):
        return None

    # substitute x_j = lo_j + s_j with s_j in [0, d_j]; drop d_j = 0 vars
    shift = [lo for lo, _ in bounds]
    span = [hi - lo for lo, hi in bounds]
    active = [j for j in range(nv) if span[j] > 0]
    col_of = {j: k for k, j in enumerate(active)}
    ns = len(active)

    eqs = []
    for coeffs, rhs in rows:
        row = [ZERO] * ns
        b = rhs
        for j, a in coeffs.items():
            b -= a * shift[j]
            if j in col_of:
                row[col_of[j]] += a
        eqs.append((row, b))

    # upper-bound slack rows: s_k + t_k = span
    for k, j in enumerate(active):
        row = [ZERO] * ns
        row[k] = ONE
        eqs.append((row, span[j]))

    m = len(eqs)
    width = ns + ns + m  # s vars, t slacks, artificials
    tableau = []
    for i, (row, b) in enumerate(eqs):
        t_part = [ZERO] * ns
        if i >= len(rows):
            t_part[i - len(rows)] = ONE
        full = row + t_part + [ZERO] * m + [b]
        if b < 0:
            full = [-v for v in full]
        full[ns + ns + i] = ONE
        tableau.append(full)

    basis = [ns + ns + i for i in range(m)]
    # phase-1 objective: minimize sum of artificials
    cost = [ZERO] * (width + 1)
    for r in tableau:
        for c, v in enumerate(r):
            if v:
                cost[c] -= v
    for i in range(m):
        cost[ns + ns + i] = ZERO

    while True:
        pivot_col = next(
            (c for c in range(width) if cost[c] < 0 and c not in basis), None
        )
        if pivot_col is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            a = tableau[i][pivot_col]
            if a > 0:
                ratio = tableau[i][width] / a
                key = (ratio, basis[i])  # Bland tie-break on basis index
                if best is None or key < best:
                    best = key
                    pivot_row = i
        if pivot_row is None:
            return None  # unbounded phase-1 cannot happen; defensive
        prow = tableau[pivot_row]
        piv = prow[pivot_col]
        # only the pivot row's nonzero columns change the other rows
        nonzero = [c for c, v in enumerate(prow) if v]
        for c in nonzero:
            prow[c] /= piv
        for row in tableau + [cost]:
            f = row[pivot_col]
            if row is not prow and f:
                for c in nonzero:
                    row[c] -= f * prow[c]
        basis[pivot_row] = pivot_col

    if -cost[width] != 0:
        return None  # residual artificial mass: infeasible

    s_val = [ZERO] * ns
    for i, bvar in enumerate(basis):
        if bvar < ns:
            s_val[bvar] = tableau[i][width]
        elif bvar >= ns + ns and tableau[i][width] != 0:
            return None  # artificial stuck in basis at nonzero level

    out = list(shift)
    for k, j in enumerate(active):
        out[j] = shift[j] + s_val[k]
    return out
