"""Brute-force exact solvers for the cut constants.

Every oracle enumerates its search space exhaustively, returns an exact
rational optimum and a deterministic certificate: among optimal solutions
the lexicographically smallest serialized set list wins, and 2-cut
certificates are normalized so vertex 0 lies in the first set.  Exceeding
a cap raises TooLarge instead of degrading silently.  The subset and pair
oracles take their vertex cap as an argument.  The k-way caps live in this
module alone: k_way_dual_cheeger refuses (2k+1)^n, and minmax_k_cut
(k+1)^n·2^k (k^n·2^k for partitions), above DEFAULT_WORK_CAP; spectrum's
k-way reports call these oracles and skip a k they refuse.

The six single-constant oracles compute a graph's certificate once: after
their checks, which still run on every call, they return the one kept on
the graph's kernel (graph.Kernel.certificates) under their name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BadK, Disconnected, TooLarge, UnknownProblem, ZeroMeasure
from .functionals import PROBLEMS
from .graph import (
    Graph, is_connected, lazy_mask_tables, mask_members, mask_tables, require_degree_measure
)

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


def _best_ratio(candidates, maximize, key):
    """Optimum of num/den over candidates (num, den, item), compared by
    integer cross-multiplication; ties go to the item of smallest key(item),
    which is computed only when a tie occurs.  Returns (num, den, item).
    A zero denominator raises ZeroMeasure, and so does no candidate at all:
    the callers drop the candidates outside the ratio's domain first."""
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
    if best is None:
        raise ZeroMeasure("a ratio denominator is zero: some vertex set has measure zero")
    return best[0], best[1], best[2]


def _once(g: Graph, name: str, solve, *args, **kwargs) -> CutCertificate:
    """solve(g, *args, **kwargs), computed once per graph and kept on its
    kernel under name.  An error is not kept: the next call raises it
    again."""
    certs = g.kernel.certificates
    if name not in certs:
        certs[name] = solve(g, *args, **kwargs)
    return certs[name]


def _subset_oracle(g: Graph, ratio, maximize: bool) -> CutCertificate:
    """Optimum of ratio(cut(S), vol(S), vol(V - S)) = (num, den) over the
    bipartitions {S, V - S} with vertex 0 in S and S != V.  A bipartition
    of denominator 0 is skipped in a minimum: 0/0 is outside the ratio's
    domain and a positive numerator over 0 is +inf, never the minimum.  A
    maximum skips 0/0 and raises ZeroMeasure on +inf, as _pair_oracle
    does; either raises it when no bipartition is left."""
    _, cut, _, volm = mask_tables(g)
    full = (1 << g.n) - 1
    vol_v = volm[full]

    def candidates():
        for s in range(1, full, 2):
            num, den = ratio(cut[s], volm[s], vol_v - volm[s])
            if den or maximize and num:
                yield num, den, s

    num, den, s = _best_ratio(
        candidates(), maximize, key=lambda s: _members(s, g.n)
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
    return _once(g, "cheeger", _subset_oracle, lambda c, va, vc: (c, min(va, vc)), maximize=False)


def maxcut(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"maxcut oracle capped at n={cap}")
    return _once(g, "maxcut", _subset_oracle, lambda c, va, vc: (2 * c, va + vc), maximize=True)


def mincut(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"mincut oracle capped at n={cap}")
    return _once(g, "mincut", _subset_oracle, lambda c, va, vc: (2 * c, va + vc), maximize=False)


def anti_cheeger(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> CutCertificate:
    if g.n < 2:
        raise BadK("need at least two vertices")
    if g.n > cap:
        raise TooLarge(f"anti-Cheeger oracle capped at n={cap}")
    return _once(
        g, "anti_cheeger", _subset_oracle, lambda c, va, vc: (c, max(va, vc)), maximize=True
    )


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


def _best_splits(g: Graph) -> list:
    """_split_max of g's cut table, built once per graph and kept on its
    kernel."""
    k = g.kernel
    if k.split_max is None:
        k.split_max = _split_max(g.n, k.tables[1])
    return k.split_max


def _pair_oracle(g: Graph, modified: bool) -> CutCertificate:
    """max over disjoint (A, B), A ∪ B = U nonempty, of
    (2·w(A, B) + bnd) / (vol(U) + bnd), where bnd = cut(U) when modified
    and 0 otherwise.  With 2·w(A, B) = cut(A) + cut(B) - cut(U), every U
    is decided by its best split.  A U whose numerator and denominator are
    both 0 is a 0/0 pair, outside the ratio's domain, and is skipped, as
    Dinkelbach skips G = 0.  A positive numerator over 0 (two adjacent
    vertices of measure 0) is +inf and raises ZeroMeasure, as does a graph
    where every U is 0/0."""
    _, cut, _, volm = mask_tables(g)
    best_split = _best_splits(g)

    def candidates():
        for u in range(1, 1 << g.n):
            if modified:
                num, den = best_split[u], volm[u] + cut[u]
            else:
                num, den = best_split[u] - cut[u], volm[u]
            if den or num:
                yield num, den, u

    def key(u):  # smallest serialized (A, B) among U's best splits
        return min(
            (_members(a, g.n), _members(b, g.n))
            for a, b in _splits(u)
            if cut[a] + cut[b] == best_split[u]
        )

    num, den, u = _best_ratio(candidates(), maximize=True, key=key)
    a, b = key(u)
    return CutCertificate(
        kind="set_pair", sets=(frozenset(a), frozenset(b)), value=Fraction(num, den)
    )


def dual_cheeger(g: Graph, cap: int = DEFAULT_PAIR_CAP) -> CutCertificate:
    if g.n > cap:
        raise TooLarge(f"pair oracle capped at n={cap}")
    return _once(g, "dual_cheeger", _pair_oracle, modified=False)


def modified_dual_cheeger(g: Graph, cap: int = DEFAULT_PAIR_CAP) -> CutCertificate:
    if g.n > cap:
        raise TooLarge(f"pair oracle capped at n={cap}")
    return _once(g, "modified_dual_cheeger", _pair_oracle, modified=True)


def k_way_dual_cheeger(g: Graph, k: int) -> CutCertificate:
    """h+_k: max over k disjoint set pairs of the worst per-pair ratio
    2·w(A_j, B_j) / vol(A_j ∪ B_j).

    A pair's ratio with union U is at most r(U), that of U's best split.
    best[m][F] is the largest worst r over m disjoint nonempty unions inside
    F, so the optimum is best[k][V].  The levels best[m] depend on the
    graph alone and are kept on its kernel, so a call builds only those no
    earlier call built.  The certificate is then built pair by pair: each
    takes the smallest serialized (A_j, B_j) whose ratio reaches the
    optimum and whose remaining vertices still hold the other pairs.
    Unlike the pair oracles, it refuses any vertex of measure zero, whose
    singleton union is a 0/0 pair.
    """
    if k < 1 or k > g.n:
        raise BadK(f"k={k} outside [1, n]")
    states = 2 * k + 1
    if states**g.n > DEFAULT_WORK_CAP:
        raise TooLarge(f"(2k+1)^n = {states ** g.n} exceeds work cap {DEFAULT_WORK_CAP}")
    n = g.n
    _, cut, _, volm = mask_tables(g)
    if not all(volm[1 << i] for i in range(n)):
        raise ZeroMeasure("a vertex of measure zero makes a set-pair ratio 0/0")
    full = (1 << n) - 1
    split = _best_splits(g)
    r_num = [s - c for s, c in zip(split, cut)]  # r(U) = r_num / vol
    best = g.kernel.kway_levels
    while len(best) <= k:
        best.append(_kway_level(r_num, volm, best[-1]))
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


def _kway_level(r_num: list, volm: list, below) -> list:
    """best[m] of k_way_dual_cheeger from below = best[m - 1] (None for
    m = 1): for every mask F, the largest worst r over m disjoint nonempty
    unions inside F as (num, den), or None when F holds fewer than m."""
    size = len(r_num)
    cur = [None] * size
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
    return cur


def _blockings(u: int, k: int):
    """Every partition of mask u into k nonempty blocks, once each, as a
    tuple of block masks in order of their lowest vertex."""
    if k == 1:
        yield (u,)
        return
    for block, rest in _splits(u):
        if rest:
            for tail in _blockings(rest, k - 1):
                yield (block, *tail)


def minmax_k_cut(g: Graph, k: int, require_partition: bool = False) -> CutCertificate:
    """M_k over subpartitions with k nonempty blocks, or M'_k over
    partitions into k nonempty blocks when require_partition is set.

    The MC of a subpartition with union U is the largest 2·w(P, Q) + cut(U)
    over the bipartitions {P, Q} of its blocks, and that sum is cut(P) +
    cut(Q).  Each subpartition is enumerated once, its blocks in order of
    their lowest vertex, so ties go to the smallest serialized block list.
    The cut table comes from lazy_mask_tables, not the 2^n lists: the work
    gate admits a partition into one block at any n, and it reads cut(V)
    alone.
    """
    if k < 1 or k > g.n:
        raise BadK(f"k={k} outside [1, n]")
    states = k if require_partition else k + 1
    work = states**g.n * (1 << k)
    if work > DEFAULT_WORK_CAP:
        raise TooLarge(f"minmax {k}-cut work {work} exceeds cap {DEFAULT_WORK_CAP}")
    n = g.n
    d, cut, _, _ = lazy_mask_tables(g)
    full = (1 << n) - 1

    def candidates():
        for u in (full,) if require_partition else range(1, full + 1):
            for blocks in _blockings(u, k):
                sides = [blocks[0]]  # the unions P that hold the first block
                for b in blocks[1:]:
                    sides += [p | b for p in sides]
                yield max(cut[p] + cut[u ^ p] for p in sides), d, blocks

    num, den, blocks = _best_ratio(
        candidates(),
        maximize=False,
        key=lambda blocks: tuple(_members(b, n) for b in blocks),
    )
    return CutCertificate(
        kind="partition" if require_partition else "subpartition",
        sets=tuple(frozenset(_members(b, n)) for b in blocks),
        value=Fraction(num, den),
    )


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
    constant itself, or 1 minus it for the two dual forms, whose optimum is
    1 - h+ for the degree measure only."""
    if problem_id not in PROBLEMS:
        raise UnknownProblem(f"no oracle registered for {problem_id!r}")
    problem = PROBLEMS[problem_id]
    if problem.dual:
        require_degree_measure(g, f"ratio:{problem_id}")
    fn = ORACLES[problem.oracle]
    cert = fn(g) if cap is None else fn(g, cap)
    if problem.dual:
        return CutCertificate(kind=cert.kind, sets=cert.sets, value=1 - cert.value)
    return cert
