"""Exact rational linear feasibility via a phase-1 simplex.

Solves: find x with lo_j <= x_j <= hi_j and A x = b, all data Fractions.
Box bounds are rewritten as shifted nonnegative variables plus slack rows,
then phase-1 with artificial variables and Bland's rule (no cycling, no
floating point).  A row whose right-hand side lies outside the range its
left-hand side takes over the box rejects the system before any tableau is
built; most rejected eigenpair candidates end there.  Intended for the
small systems produced by eigenpair verification, not as a general-purpose
LP code.

The arithmetic is fraction-free.  The box is put over one common
denominator, and every tableau row, the phase-1 cost row included, is a
list of ints over one positive row denominator, so sign tests are tests on
ints and ratio tests are integer cross-multiplications; a Fraction is built
only for the returned point.  A row's denominator is part of its value and
is never dropped: scaling a row by r scales its term in the cost row, the
sum of the rows, by r, which changes the entering columns and so the pivot
path and the point returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple


def _lcm(values) -> int:
    """lcm by pairwise calls.  A call with *args builds an argument tuple,
    and CPython 3.11 piles such tuples up on its free lists, up to 2,000 a
    size, when they have 20 items or were grown from a generator: with
    *args here, 1.6 MB more after 140 ternary_scan benchmark passes."""
    out = 1
    for v in values:
        out = lcm(out, v)
    return out


def _int_box(bounds):
    """(den, low, span) with lo_j = low[j]/den and hi_j - lo_j = span[j]/den."""
    den = _lcm(t.denominator for box in bounds for t in box)
    low = [lo.numerator * (den // lo.denominator) for lo, _ in bounds]
    span = [
        hi.numerator * (den // hi.denominator) - l for (_, hi), l in zip(bounds, low)
    ]
    return den, low, span


def _shifted_rows(den, low, span, rows):
    """Each row sum a_j x_j = rhs in ints over the shifted variables
    s_j = x_j - lo_j in [0, span[j]/den], as (coeffs, b, d) for
    sum (coeffs[j]·den/d)·s_j = b/d.  None when a row fails the row-interval
    test: b lies between the sums of coeffs[j]·span[j] over the negative and
    over the positive coefficients."""
    out = []
    for coeffs, rhs in rows:
        m = lcm(rhs.denominator, _lcm(a.denominator for a in coeffs.values()))
        ints = {j: a.numerator * (m // a.denominator) for j, a in coeffs.items()}
        b = rhs.numerator * (m // rhs.denominator) * den
        reach_lo = reach_hi = 0
        for j, a in ints.items():
            b -= a * low[j]
            if a > 0:
                reach_hi += a * span[j]
            elif a < 0:
                reach_lo += a * span[j]
        if not reach_lo <= b <= reach_hi:
            return None
        out.append((ints, b, m * den))
    return out


def _rows_in_reach(bounds, rows) -> bool:
    """Row-interval test, a necessary condition for feasibility: over the
    box, sum a_j x_j ranges over [sum of a_j at its minimizing bound, sum of
    a_j at its maximizing bound], and each row's rhs must lie in its range."""
    return _shifted_rows(*_int_box(bounds), rows) is not None


def _reduce(row, dens, i):
    """Divide row i's ints and its denominator by their common factor,
    found by pairwise gcd calls as in _lcm."""
    g = dens[i]
    for v in row:
        if g == 1:
            return
        g = gcd(g, v)
    if g > 1:
        row[:] = [v // g for v in row]
        dens[i] //= g


def find_feasible(
    bounds: Sequence[Tuple[Fraction, Fraction]],
    rows: Sequence[Tuple[dict, Fraction]],
) -> Optional[List[Fraction]]:
    """Return a point satisfying all equality rows within the boxes, or None.

    bounds: per-variable (lo, hi) with lo <= hi, both finite.
    rows: equality constraints as ({var_index: coeff}, rhs).
    """
    den, low, span = _int_box(bounds)
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
    tableau, dens = [], []
    for i in range(m):
        row = [0] * (width + 1)
        if i < len(eqs):
            coeffs, row[width], d = eqs[i]
            for j, a in coeffs.items():
                if j in col_of:
                    row[col_of[j]] = a * den
        else:
            k = i - len(eqs)
            row[k] = row[ns + k] = d = den
            row[width] = span[active[k]]
        tableau.append(row)
        dens.append(d)
        _reduce(row, dens, i)
        if row[width] < 0:
            row[:] = [-v for v in row]
        row[ns + ns + i] = dens[i]

    # phase-1 objective: minimize sum of artificials; the cost row is the
    # exact sum of the rows, negated, over the lcm of their denominators
    dc = _lcm(dens)
    cost = [0] * (width + 1)
    for row, d in zip(tableau, dens):
        f = dc // d
        for c, v in enumerate(row):
            if v:
                cost[c] -= f * v
    for i in range(m):
        cost[ns + ns + i] = 0
    dens.append(dc)
    _reduce(cost, dens, m)
    rows_and_cost = tableau + [cost]

    basis = [ns + ns + i for i in range(m)]
    while True:
        pivot_col = next(
            (c for c in range(width) if cost[c] < 0 and c not in basis), None
        )
        if pivot_col is None:
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
        nonzero = [c for c, v in enumerate(prow) if v]
        for i, row in enumerate(rows_and_cost):
            f = row[pivot_col]
            if row is prow or not f:
                continue
            g = gcd(piv, f)
            p, f = piv // g, f // g
            if p != 1:
                row[:] = [v * p for v in row]
            for c in nonzero:
                row[c] -= f * prow[c]
            if p != 1:
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

    out = [lo for lo, _ in bounds]
    for k, j in enumerate(active):
        num, d = s_val[k]
        out[j] = Fraction(low[j] * d + num * den, den * d)
    return out
