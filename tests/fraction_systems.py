"""Linear systems with Fraction data, for the tests only.

`System` is the incremental builder that eigen.verify built its systems
with before it built them in ints; the reference builders in
test_kernel.py use it.  `int_system` puts a Fraction system into the
integer form that simplex.find_feasible takes: the box over the lcm of its
denominators, each row over the lcm of its own.  `rationals` turns an
integer system back into Fractions, so that systems built either way can
be compared value for value.
"""

from fractions import Fraction
from math import lcm

from cutspec import eigen


def int_system(bounds, rows):
    """(den, bounds, rows) of find_feasible for the Fraction box
    [(lo, hi), ...] and rows [({j: a_j}, rhs), ...]; key order is kept."""
    den = 1
    for box in bounds:
        for t in box:
            den = lcm(den, t.denominator)
    int_bounds = [
        (lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
        for lo, hi in bounds
    ]
    int_rows = []
    for coeffs, rhs in rows:
        d = rhs.denominator
        for a in coeffs.values():
            d = lcm(d, a.denominator)
        int_rows.append(
            (
                {j: a.numerator * (d // a.denominator) for j, a in coeffs.items()},
                rhs.numerator * (d // rhs.denominator),
                d,
            )
        )
    return den, int_bounds, int_rows


def rationals(den, bounds, rows):
    """The Fraction box and rows of find_feasible's integer system."""
    return (
        [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in bounds],
        [
            ({j: Fraction(a, d) for j, a in coeffs.items()}, Fraction(rhs, d))
            for coeffs, rhs, d in rows
        ],
    )


class System:
    """Incremental builder of a boxed linear feasibility system."""

    def __init__(self):
        self.bounds = []
        self.rows = []
        self.names = []

    def var(self, name, lo, hi):
        self.bounds.append((lo, hi))
        self.names.append(name)
        return len(self.bounds) - 1

    def fixed(self, name, value):
        return self.var(name, value, value)

    def eq(self, coeffs, rhs):
        self.rows.append((dict(coeffs), rhs))

    def solve(self):
        """The named feasible point from eigen's find_feasible, or None."""
        point = eigen.find_feasible(*int_system(self.bounds, self.rows))
        if point is None:
            return None
        return dict(zip(self.names, point))
