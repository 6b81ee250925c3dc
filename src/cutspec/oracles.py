"""Brute-force exact solvers for the cut constants.

Every oracle enumerates its search space exhaustively, returns an exact
rational optimum and a deterministic certificate: among optimal solutions
the lexicographically smallest serialized set list wins, and 2-cut
certificates are normalized so vertex 0 lies in the first set.  Caps are
arguments; exceeding one raises TooLarge instead of degrading silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import BadK, Disconnected, TooLarge, UnknownProblem, ZeroMeasure
from .functionals import PROBLEMS
from .graph import Graph, is_connected, mask_members, mask_tables

DEFAULT_SUBSET_CAP = 20
DEFAULT_PAIR_CAP = 14
DEFAULT_WORK_CAP = 2_000_000


@dataclass(frozen=True)
class CutCertificate:
    kind: str  # subset | set_pair | subpartition | partition
    sets: tuple  # tuple of frozensets
    value: Fraction

    def serialized(self) -> tuple:
        return tuple(tuple(sorted(s)) for s in self.sets)


def _best(kind, candidates, maximize):
    """candidates: iterable of (value, sets tuple); deterministic tie-break."""
    best = None
    for value, sets in candidates:
        key = tuple(tuple(sorted(s)) for s in sets)
        if (
            best is None
            or (value > best[0] if maximize else value < best[0])
            or (value == best[0] and key < best[2])
        ):
            best = (value, sets, key)
    if best is None:
        return None
    return CutCertificate(kind=kind, sets=best[1], value=best[0])


def _best_ratio(candidates, maximize, key):
    """Optimum of num/den over candidates (num, den, item), compared by
    integer cross-multiplication; ties go to the item of smallest key(item),
    which is computed only when a tie occurs.  Returns (num, den, item)."""
    best = None  # [num, den, item, key or None]
    for num, den, item in candidates:
        if den == 0:
            raise ZeroMeasure("a ratio denominator is zero: some vertex set has measure zero")
        if best is None:
            best = [num, den, item, None]
            continue
        diff = num * best[1] - best[0] * den
        if diff == 0:
            if best[3] is None:
                best[3] = key(best[2])
            k = key(item)
            if k < best[3]:
                best = [num, den, item, k]
        elif (diff > 0) == maximize:
            best = [num, den, item, None]
    return best[0], best[1], best[2]


def _subset_oracle(g: Graph, ratio, maximize: bool) -> CutCertificate:
    """Optimum of ratio(cut(S), vol(S), vol(V - S)) = (num, den) over the
    bipartitions {S, V - S} with vertex 0 in S and S != V."""
    _, cut, _, volm = mask_tables(g)
    full = (1 << g.n) - 1
    vol_v = volm[full]
    num, den, s = _best_ratio(
        (
            (*ratio(cut[s], volm[s], vol_v - volm[s]), s)
            for s in range(1, full, 2)
        ),
        maximize,
        key=lambda s: _members(s, g.n),
    )
    return CutCertificate(
        kind="subset", sets=(frozenset(_members(s, g.n)),), value=Fraction(num, den)
    )


def _members(mask: int, n: int) -> tuple:
    return tuple(i for i in range(n) if mask >> i & 1)


def cheeger(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if not is_connected(g):
        raise Disconnected("Cheeger constant needs a connected graph")
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"cheeger oracle capped at n={cap}")
    return _subset_oracle(g, lambda c, va, vc: (c, min(va, vc)), maximize=False)


def maxcut(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"maxcut oracle capped at n={cap}")
    return _subset_oracle(g, lambda c, va, vc: (2 * c, va + vc), maximize=True)


def mincut(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"mincut oracle capped at n={cap}")
    return _subset_oracle(g, lambda c, va, vc: (2 * c, va + vc), maximize=False)


def anti_cheeger(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"anti-Cheeger oracle capped at n={cap}")
    return _subset_oracle(g, lambda c, va, vc: (c, max(va, vc)), maximize=True)


def _splits(u: int):
    """Every A with lowest(U) in A and A a subset of U, paired with U - A."""
    low = u & -u
    rest = u ^ low
    sub = rest
    while True:
        yield low | sub, rest ^ sub
        if sub == 0:
            break
        sub = (sub - 1) & rest


def _split_max(n: int, cut: list) -> list:
    """For every mask U, the largest cut(A) + cut(U - A) over A within U:
    that is 2·w(A, U - A) + cut(U) for the best split."""
    out = [0] * (1 << n)
    for u in range(1, 1 << n):
        out[u] = max(cut[a] + cut[b] for a, b in _splits(u))
    return out


def _pair_oracle(g: Graph, cap: int, modified: bool) -> CutCertificate:
    """max over disjoint (A, B), A ∪ B = U nonempty, of
    (2·w(A, B) + bnd) / (vol(U) + bnd), where bnd = cut(U) when modified
    and 0 otherwise.  With 2·w(A, B) = cut(A) + cut(B) - cut(U), every U
    is decided by its best split."""
    if g.n > cap:
        raise TooLarge(f"pair oracle capped at n={cap}")
    _, cut, _, volm = mask_tables(g)
    best_split = _split_max(g.n, cut)

    def ratio(u):
        if modified:
            return best_split[u], volm[u] + cut[u]
        return best_split[u] - cut[u], volm[u]

    def key(u):  # smallest serialized (A, B) among U's best splits
        return min(
            (_members(a, g.n), _members(b, g.n))
            for a, b in _splits(u)
            if cut[a] + cut[b] == best_split[u]
        )

    num, den, u = _best_ratio(
        ((*ratio(u), u) for u in range(1, 1 << g.n)), maximize=True, key=key
    )
    a, b = key(u)
    return CutCertificate(
        kind="set_pair", sets=(frozenset(a), frozenset(b)), value=Fraction(num, den)
    )


def dual_cheeger(g: Graph, cap: int = DEFAULT_PAIR_CAP) -> CutCertificate:
    return _pair_oracle(g, cap, modified=False)


def modified_dual_cheeger(g: Graph, cap: int = DEFAULT_PAIR_CAP) -> CutCertificate:
    return _pair_oracle(g, cap, modified=True)


def k_way_dual_cheeger(
    g: Graph, k: int, work_cap: int = DEFAULT_WORK_CAP
) -> CutCertificate:
    """h+_k: max over k disjoint set pairs of the worst per-pair ratio
    2·w(A_j, B_j) / vol(A_j ∪ B_j).

    A pair's ratio with union U is at most r(U), that of U's best split.
    best[m][F] is the largest worst r over m disjoint nonempty unions inside
    F, so the optimum is best[k][V].  The certificate is then built pair by
    pair: each takes the smallest serialized (A_j, B_j) whose ratio reaches
    the optimum and whose remaining vertices still hold the other pairs.
    """
    if k < 1 or k > g.n:
        raise BadK(f"k={k} outside [1, n]")
    states = 2 * k + 1
    if states**g.n > work_cap:
        raise TooLarge(f"(2k+1)^n = {states ** g.n} exceeds work cap {work_cap}")
    n = g.n
    _, cut, _, volm = mask_tables(g)
    if not all(volm[1 << i] for i in range(n)):
        raise ZeroMeasure("a vertex of measure zero makes a set-pair ratio 0/0")
    size = 1 << n
    full = size - 1
    split = _split_max(n, cut)
    r_num = [split[u] - cut[u] for u in range(size)]  # r(U) = r_num / vol

    # best[m][F] = (num, den) or None when F holds fewer than m pairs
    best = [None]
    for m in range(1, k + 1):
        below, cur = best[-1], [None] * size
        for f in range(1, size):
            low = f & -f
            top = cur[f ^ low]  # F's lowest vertex left unused
            for u, rest in _splits(f):  # or in the union U
                val = (r_num[u], volm[u])
                if below is not None:
                    other = below[rest]
                    if other is None:
                        continue
                    if other[0] * val[1] < val[0] * other[1]:
                        val = other
                if top is None or val[0] * top[1] > top[0] * val[1]:
                    top = val
            cur[f] = top
        best.append(cur)
    v_num, v_den = best[k][full]

    members = mask_members(n)
    sets = []
    free = full
    for left in range(k - 1, -1, -1):  # pairs still to place after this one
        choice = None  # (serialized (A, B), A ∪ B)
        sub = free
        while sub:
            u, sub = sub, (sub - 1) & free
            if r_num[u] * v_den < v_num * volm[u]:
                continue
            if left:
                other = best[left][free ^ u]
                if other is None or other[0] * v_den < v_num * other[1]:
                    continue
            for a, b in _splits(u):
                if (cut[a] + cut[b] - cut[u]) * v_den < v_num * volm[u]:
                    continue
                for key in ((members[a], members[b]), (members[b], members[a])):
                    if choice is None or key < choice[0]:
                        choice = (key, u)
        sets.extend(choice[0])
        free ^= choice[1]
    return CutCertificate(
        kind="subpartition",
        sets=tuple(frozenset(t) for t in sets),
        value=Fraction(v_num, v_den),
    )


def _mc_value(g: Graph, blocks, rest) -> Fraction:
    """MC of a subpartition: twice the best bipartition-of-blocks cut plus
    the total boundary toward the unassigned rest."""
    k = len(blocks)
    pair = [[Fraction(0)] * k for _ in range(k)]
    to_rest = [Fraction(0)] * k
    idx = {}
    for bi, blk in enumerate(blocks):
        for v in blk:
            idx[v] = bi
    for u, v, w in g.edges:
        bu, bv = idx.get(u), idx.get(v)
        if bu is not None and bv is not None and bu != bv:
            pair[bu][bv] += w
            pair[bv][bu] += w
        elif bu is not None and bv is None:
            to_rest[bu] += w
        elif bv is not None and bu is None:
            to_rest[bv] += w
    best = Fraction(0)
    for smask in range(1 << k):
        cross = sum(
            (
                pair[i][j]
                for i in range(k)
                for j in range(k)
                if smask >> i & 1 and not smask >> j & 1
            ),
            Fraction(0),
        )
        best = max(best, cross)
    return 2 * best + sum(to_rest, Fraction(0))


def minmax_k_cut(
    g: Graph,
    k: int,
    require_partition: bool = False,
    work_cap: int = DEFAULT_WORK_CAP,
) -> CutCertificate:
    """M_k over subpartitions with k nonempty blocks, or M'_k over
    partitions into k nonempty blocks when require_partition is set."""
    if k < 1 or k > g.n:
        raise BadK(f"k={k} outside [1, n]")
    states = k if require_partition else k + 1
    work = states**g.n * (1 << k)
    if work > work_cap:
        raise TooLarge(f"minmax {k}-cut work {work} exceeds cap {work_cap}")
    offset = 0 if require_partition else 1

    def gen():
        for assign in product(range(states), repeat=g.n):
            blocks = tuple(
                frozenset(i for i in range(g.n) if assign[i] == b + offset)
                for b in range(k)
            )
            if any(not blk for blk in blocks):
                continue
            rest = (
                frozenset()
                if require_partition
                else frozenset(i for i in range(g.n) if assign[i] == 0)
            )
            yield _mc_value(g, blocks, rest), blocks

    kind = "partition" if require_partition else "subpartition"
    cert = _best(kind, gen(), maximize=False)
    if cert is None:
        raise BadK(f"no subpartition with {k} nonempty blocks")
    return cert


# the single-constant oracles by name; functionals.Problem.oracle names one
ORACLES = {
    "cheeger": cheeger,
    "maxcut": maxcut,
    "mincut": mincut,
    "dual_cheeger": dual_cheeger,
    "modified_dual_cheeger": modified_dual_cheeger,
    "anti_cheeger": anti_cheeger,
}


def ratio_oracle(problem_id: str, g: Graph, cap: Optional[int] = None) -> CutCertificate:
    """Combinatorial optimum of the continuous ratio objective: the cut
    constant itself, or 1 minus it for the two dual forms."""
    if problem_id not in PROBLEMS:
        raise UnknownProblem(f"no oracle registered for {problem_id!r}")
    problem = PROBLEMS[problem_id]
    fn = ORACLES[problem.oracle]
    cert = fn(g) if cap is None else fn(g, cap)
    if problem.dual:
        return CutCertificate(kind=cert.kind, sets=cert.sets, value=1 - cert.value)
    return cert
