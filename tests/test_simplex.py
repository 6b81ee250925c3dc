"""The exact feasibility solver against an independent floating-point LP.

Random small boxed systems, with integer or rational data, some feasible by
construction and some perturbed, are put in `find_feasible`'s integer form
by the tests' `int_system`.  `find_feasible` must return None exactly
when scipy's `linprog` finds the system infeasible, every point it returns
must satisfy each row and box exactly, and the row-interval prefilter must
never reject a system that `linprog` solves.  The data are small enough that
an infeasible system misses by far more than linprog's tolerance.
"""

import random
from fractions import Fraction as F

import pytest

from cutspec.simplex import _rows_in_reach, find_feasible
from fraction_systems import int_system

optimize = pytest.importorskip("scipy.optimize")


def random_system(rng, rational):
    den = (lambda: rng.randint(1, 3)) if rational else (lambda: 1)
    num = lambda: F(rng.randint(-3, 3), den())
    nv = rng.randint(1, 5)
    bounds = []
    for _ in range(nv):
        lo = num()
        span = F(rng.randint(0, 3), den()) if rng.random() < 0.8 else F(0)
        bounds.append((lo, lo + span))
    point = [lo + (hi - lo) * F(rng.randint(0, 4), 4) for lo, hi in bounds]
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {j: num() for j in rng.sample(range(nv), rng.randint(1, nv))}
        rhs = sum((a * point[j] for j, a in coeffs.items()), F(0))
        if rng.random() < 0.5:
            rhs += num()
        rows.append((coeffs, rhs))
    return bounds, rows


def linprog_feasible(bounds, rows):
    nv = len(bounds)
    res = optimize.linprog(
        [0.0] * nv,
        A_eq=[[float(c.get(j, 0)) for j in range(nv)] for c, _ in rows],
        b_eq=[float(b) for _, b in rows],
        bounds=[(float(lo), float(hi)) for lo, hi in bounds],
        method="highs",
    )
    assert res.status in (0, 2), res.message  # solved or infeasible
    return res.status == 0


@pytest.mark.parametrize("rational", [False, True])
def test_find_feasible_matches_linprog(rational):
    rng = random.Random(f"simplex/{rational}")
    cases = {"prefilter": 0, "simplex": 0, "feasible": 0}
    for _ in range(400):
        bounds, rows = random_system(rng, rational)
        feasible = linprog_feasible(bounds, rows)
        ints = int_system(bounds, rows)
        point = find_feasible(*ints)
        assert (point is not None) == feasible, (bounds, rows)
        if not _rows_in_reach(*ints):
            assert not feasible, (bounds, rows)
            cases["prefilter"] += 1
        elif point is None:
            cases["simplex"] += 1
        else:
            cases["feasible"] += 1
            assert all(lo <= t <= hi for t, (lo, hi) in zip(point, bounds))
            for coeffs, rhs in rows:
                assert sum(a * point[j] for j, a in coeffs.items()) == rhs
    # each way to an answer is taken: the prefilter rejects, the simplex
    # rejects a system the prefilter lets through, and the simplex solves
    assert min(cases.values()) >= 20, cases


def test_prefilter_rejects_unreachable_row():
    # x0 + x1 <= 2 over the unit box, so x0 + x1 = 3 is out of reach, while
    # x0 - x1 = 1 is reached only at the corner (1, 0)
    box = [(0, 1), (0, 1)]
    assert not _rows_in_reach(1, box, [({0: 1, 1: 1}, 3, 1)])
    assert find_feasible(1, box, [({0: 1, 1: 1}, 3, 1)]) is None
    assert _rows_in_reach(1, box, [({0: 1, 1: -1}, 1, 1)])
    assert find_feasible(1, box, [({0: 1, 1: -1}, 1, 1)]) == [F(1), F(0)]
    # the same rows over the denominators 2 and 3, the box over 4
    box = [(0, 4), (0, 4)]
    assert find_feasible(4, box, [({0: 2, 1: 2}, 6, 2)]) is None
    assert find_feasible(4, box, [({0: 3, 1: -3}, 3, 3)]) == [F(1), F(0)]
