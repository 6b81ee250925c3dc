"""Exact rational linear feasibility via a phase-1 simplex.

Solves: find x with lo_j <= x_j <= hi_j and A x = b over the rationals,
given in ints: the box over one denominator, each row over its own
positive denominator (eigen.verify builds its systems so).  Box bounds
are rewritten as shifted nonnegative variables plus slack rows, then
phase-1 with artificial variables and Bland's rule (no cycling, no
floating point).  A row whose right-hand side lies outside the range its
left-hand side takes over the box rejects the system before any tableau
is built; most rejected eigenpair candidates end there.  Intended for the
small systems produced by eigenpair verification, not as a
general-purpose LP code.

The arithmetic is fraction-free.  Every tableau row, the phase-1 cost row
included, is a list of ints over one positive row denominator, reduced to
lowest terms, so it depends only on the rational row and not on the
denominators it came in; sign tests are tests on ints and ratio tests are
integer cross-multiplications, and a Fraction is built only for the
returned point.  A row's denominator is part of its value and is never
dropped: scaling a row by r scales its term in the cost row, the sum of
the rows, by r, which changes the entering columns and so the pivot path
and the point returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple


def _lcm(values) -> int:
    """lcm by pairwise calls.  A call with *args builds an argument tuple,
    and CPython 3.11 piles such tuples up on its free lists, up to 2,000 a
    size, when they have 20 items or were grown from a generator: with
    *args here, 1.6 MB more after 140 ternary_scan benchmark passes."""
    out = 1
    for v in values:
        out = lcm(out, v)
    return out


def _shifted_rows(den, low, span, rows):
    """Each row sum (coeffs[j]/d)·x_j = rhs/d in ints over the shifted
    variables s_j = x_j - low[j]/den in [0, span[j]/den], as (coeffs, b, e)
    for sum (coeffs[j]·den/e)·s_j = b/e.  None when a row fails the
    row-interval test: b lies between the sums of coeffs[j]·span[j] over the
    negative and over the positive coefficients."""
    out = []
    for coeffs, rhs, d in rows:
        b = rhs * den
        reach_lo = reach_hi = 0
        for j, a in coeffs.items():
            b -= a * low[j]
            if a > 0:
                reach_hi += a * span[j]
            elif a < 0:
                reach_lo += a * span[j]
        if not reach_lo <= b <= reach_hi:
            return None
        out.append((coeffs, b, d * den))
    return out


def _rows_in_reach(den, bounds, rows) -> bool:
    """Row-interval test, a necessary condition for feasibility: over the
    box, sum a_j x_j ranges over [sum of a_j at its minimizing bound, sum of
    a_j at its maximizing bound], and each row's rhs must lie in its range."""
    low = [lo for lo, _ in bounds]
    span = [hi - lo for lo, hi in bounds]
    return _shifted_rows(den, low, span, rows) is not None


def _reduce(row, dens, i):
    """Divide row i's ints and its denominator by their common factor,
    found by pairwise gcd calls as in _lcm."""
    g = dens[i]
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        row[:] = [v // g for v in row]
        dens[i] //= g


def find_feasible(
    den: int,
    bounds: Sequence[Tuple[int, int]],
    rows: Sequence[Tuple[Dict[int, int], int, int]],
) -> Optional[List[Fraction]]:
    """Return a point satisfying all equality rows within the boxes, or None.

    den: the box denominator, a positive int.
    bounds: per-variable (lo, hi), ints with lo/den <= x_j <= hi/den.
    rows: equality constraints ({var_index: a_j}, rhs, d), ints with d > 0,
        for sum (a_j/d)·x_j = rhs/d.
    """
    point = _feasible_point(den, bounds, rows)
    if point is None:
        return None
    return [Fraction(num, den * d) for num, d in point]


def _feasible_point(den, bounds, rows) -> Optional[List[Tuple[int, int]]]:
    """find_feasible's point in ints, x_j = num_j/(den·d_j) as (num_j, d_j),
    or None: for callers that need the verdict only."""
    low = [lo for lo, _ in bounds]
    span = [hi - lo for lo, hi in bounds]
    if any(sp < 0 for sp in span):
        return None  # some lo > hi
    eqs = _shifted_rows(den, low, span, rows)
    if eqs is None:
        return None

    # s_j in [0, span_j/den]; drop span 0 vars; slack rows s_k + t_k = span_k
    active = [j for j, sp in enumerate(span) if sp]
    col_of = {j: k for k, j in enumerate(active)}
    ns = len(active)
    m = len(eqs) + ns
    width = ns + ns + m  # s vars, t slacks, artificials
    # each row reduced to lowest terms with a nonnegative right side, its
    # artificial column set to its denominator; built from its nonzeros
    tableau, dens, sparse = [], [], []
    for i in range(m):
        if i < len(eqs):
            coeffs, b, d = eqs[i]
            nz = [(col_of[j], a * den) for j, a in coeffs.items() if a and j in col_of]
        else:
            k = i - len(eqs)
            b, d = span[active[k]], den
            nz = [(k, den), (ns + k, den)]
        g = gcd(d, b)
        for _, v in nz:
            if g == 1:
                break
            g = gcd(g, v)
        if b < 0:
            g = -g
        nz = [(c, v // g) for c, v in nz]
        b //= g
        d //= abs(g)
        row = [0] * (width + 1)
        for c, v in nz:
            row[c] = v
        row[ns + ns + i] = d
        row[width] = b
        tableau.append(row)
        dens.append(d)
        sparse.append((nz, b))

    # phase-1 objective: minimize sum of artificials; the cost row is the
    # exact sum of the rows, negated, over the lcm of their denominators
    dc = _lcm(dens)
    cost = [0] * (width + 1)
    for (nz, b), d in zip(sparse, dens):
        f = dc // d
        for c, v in nz:
            cost[c] -= f * v
        cost[width] -= f * b
    dens.append(dc)
    _reduce(cost, dens, m)
    rows_and_cost = tableau + [cost]

    basis = [ns + ns + i for i in range(m)]
    while True:
        for pivot_col in range(width):
            if cost[pivot_col] < 0 and pivot_col not in basis:
                break
        else:
            break
        # minimum ratio row[width]/a over a > 0, cross-multiplied (the row
        # denominator cancels); Bland tie-break on basis index
        pivot_row = None
        for i, row in enumerate(tableau):
            a = row[pivot_col]
            if a > 0 and (
                pivot_row is None
                or (row[width] * best_a, basis[i]) < (best_b * a, basis[pivot_row])
            ):
                pivot_row, best_a, best_b = i, a, row[width]
        if pivot_row is None:
            return None  # unbounded phase-1 cannot happen; defensive
        prow = tableau[pivot_row]
        dens[pivot_row] = prow[pivot_col]  # the pivot entry becomes 1
        _reduce(prow, dens, pivot_row)
        piv = dens[pivot_row]
        # row -= f·prow over the denominator d·piv, with f = row[pivot_col];
        # only the pivot row's nonzero columns change when piv | f
        nonzero = [(c, v) for c, v in enumerate(prow) if v]
        for i, row in enumerate(rows_and_cost):
            f = row[pivot_col]
            if not f or row is prow:
                continue
            g = gcd(piv, f)
            if g == piv:
                f //= g
                for c, v in nonzero:
                    row[c] -= f * v
            else:
                p, f = piv // g, f // g
                row[:] = [v * p - f * w for v, w in zip(row, prow)]
                dens[i] *= p
                _reduce(row, dens, i)
        basis[pivot_row] = pivot_col

    if cost[width] != 0:
        return None  # residual artificial mass: infeasible

    s_val = [(0, 1)] * ns
    for i, bvar in enumerate(basis):
        if bvar < ns:
            s_val[bvar] = (tableau[i][width], dens[i])
        elif bvar >= ns + ns and tableau[i][width] != 0:
            return None  # artificial stuck in basis at nonzero level

    # x_j = low_j/den + s_j, with s_j = num/d
    point = [(lo, 1) for lo in low]
    for j, (num, d) in zip(active, s_val):
        point[j] = (low[j] * d + num * den, d)
    return point
