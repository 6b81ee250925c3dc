"""Exact weighted graph representation and combinatorial primitives.

Vertices are integers in [0, n).  Edge weights and vertex measures are
`fractions.Fraction` throughout, so every volume, boundary and cut value
computed downstream is an exact rational.  The default vertex measure is
the weighted degree.

The exhaustive loops read a graph through its integer kernel (see the
section comment at Kernel).  The ternary vectors 1_A - 1_B are read in
columns: TernaryColumns builds one list per integer term over a sequence
of pairs (A, B), each by one list comprehension, and a ratio's form
(functionals.Problem.ternary) builds only the columns it reads.  The
median distance column uses the identity
md = min(vol(A ∪ B), vol(V) - |vol(A) - vol(B)|), the least of the costs
of the levels 0, 1 and -1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    BadK,
    NegativeWeight,
    ParseError,
    SelfLoop,
    UsageError,
)

VertexSet = frozenset  # sets of vertex ids in [0, n)


def parse_rational(token: str) -> Fraction:
    """Parse an integer, decimal or 'p/q' token into an exact Fraction."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}") from exc


@dataclass(frozen=True)
class Graph:
    """Undirected graph with rational edge weights and vertex measures.

    Parallel edges are merged at construction by summing their weights;
    self-loops are rejected.  `mu` defaults to the weighted degree.
    """

    n: int
    edges: tuple  # tuple of (u, v, w) with u < v, w > 0
    mu: tuple     # per-vertex measure, Fraction >= 0

    @staticmethod
    def build(n: int, edges: Iterable[tuple], mu: Optional[Sequence[Fraction]] = None) -> "Graph":
        merged = {}
        for u, v, *rest in edges:
            w = Fraction(rest[0]) if rest else Fraction(1)
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range: ({u},{v}) with n={n}")
            if w <= 0:
                raise NegativeWeight(f"edge ({u},{v}) has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, Fraction(0)) + w
        edge_tuple = tuple(sorted((u, v, w) for (u, v), w in merged.items()))
        if mu is None:
            mu = weighted_degrees(n, edge_tuple)
        else:
            mu = [Fraction(x) for x in mu]
            if len(mu) != n:
                raise ParseError(f"measure vector has length {len(mu)}, expected {n}")
            if any(m < 0 for m in mu):
                raise NegativeWeight("negative vertex measure")
        return Graph(n=n, edges=edge_tuple, mu=tuple(mu))

    # -- basic quantities ---------------------------------------------------

    def adjacency(self):
        """Neighbour lists as {u: [(v, w), ...]} built once per call."""
        adj = {i: [] for i in range(self.n)}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def total_edge_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), Fraction(0))

    def two_e(self) -> Fraction:
        """Twice the total edge weight (equals vol(V) when mu is the degree)."""
        return 2 * self.total_edge_weight()

    def vertices(self) -> VertexSet:
        return frozenset(range(self.n))

    @functools.cached_property
    def kernel(self) -> "Kernel":
        """The graph's integer kernel, built on first read and kept in the
        instance __dict__ (dataclass eq and hash ignore it), so it lives and
        dies with the graph."""
        return Kernel(self)


def weighted_degrees(n: int, edges: Iterable[tuple]) -> list:
    """The weighted degree of every vertex, from (u, v, w) edges."""
    deg = [Fraction(0)] * n
    for u, v, w in edges:
        deg[u] += w
        deg[v] += w
    return deg


def require_degree_measure(g: Graph, what: str):
    """Raise UsageError unless mu is the weighted degree, the one measure
    for which `what` (a spectral command or a dual ratio oracle) holds."""
    if list(g.mu) != weighted_degrees(g.n, g.edges):
        raise UsageError(
            f"{what} needs the degree measure: --measure differs from the weighted degree"
        )


def vol(g: Graph, s: Iterable[int]) -> Fraction:
    return sum((g.mu[i] for i in s), Fraction(0))


def connected_components(g: Graph, s: Optional[Iterable[int]] = None) -> list:
    """Components of the subgraph induced by s, ordered by smallest member."""
    s = frozenset(range(g.n)) if s is None else frozenset(s)
    adj = g.adjacency()
    seen = set()
    comps = []
    for start in sorted(s):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            for v, _ in adj[u]:
                if v in s and v not in comp:
                    stack.append(v)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


# -- bitmask kernel ---------------------------------------------------------
#
# Every exact oracle, scan, eigenpair system and Dinkelbach step reads a
# graph's weights and measures as ints scaled by one D, and most read the
# cut, degree and volume of vertex bitmasks.  Graph.kernel builds them once
# per graph and holds them as long as the graph lives: D, the scaled weights,
# measures, neighbour lists and degrees from the start, the 2^n mask tables
# on first read, and what the oracles compute once per graph as they first
# need it: the single-constant oracles' certificates, the pair-split table
# and the k-way levels.  The mask tables grow a vertex block at a time: for
# t = 0, ..., n - 1, the entries of the masks in [2^t, 2^(t+1)) come from
# those of the masks below 2^t, one list comprehension per table
# (_block_tables).  The kernel holds no reference to its graph, so a
# graph and its kernel are freed together, without a cycle.  Its lists are
# shared by every reader, and none may change them, but for the k-way
# oracle, which appends a level to kway_levels.
#
# What depends on n alone is built once per n and kept for the process: the
# sorted members of every mask, the masks in member order with their ranks,
# the ternary representatives of each domain kind and the Dinkelbach
# multipliers L/|A ∪ B| that follow them.  The representatives are the
# (3^n - 1)/2 pairs (A, B) that come before their mirror (B, A) in
# certificate order; every ternary form is even, so they are all that the
# ternary scans and exact Dinkelbach read.  All 3^n - 1 pairs are built
# only for the public ternary_pairs.  The "nonconstant_2cut" tuples share
# their pair objects with the "nonzero" ones.  A kept pair costs about
# 90 bytes: the representatives take 0.7 MB at n = 9 and 24 MB at n = 12,
# the multipliers 8 bytes a pair.  The tables for n have 2^n or 3^n
# entries, so those kept for every n up to the largest hold under 2x
# (members, order) and 1.5x (pairs) the tables of the largest n, which the
# first call at that n builds anyway.  The public functions return fresh
# lists, which a caller may change.


class Kernel:
    """A graph's integer data (see the section comment above).

    d is the least common multiple of the weight and measure denominators;
    wts[e] = D·w_e in the order of g.edges; mu[i] = D·mu_i; nbrs[i] lists
    (1 << j, D·w_ij) for every neighbour j of i; deg[i] is D times the
    weighted degree of i.  tables is mask_tables(g), built on first read by
    _block_tables, and certificates maps an oracle's name to its certificate
    on g.  The pair oracles keep their tables here too, each built on first
    use: split_max is oracles._split_max of the cut table, and
    kway_levels[m] is the level best[m] of k_way_dual_cheeger's recursion,
    from kway_levels[0] = None up to the largest k asked for so far."""

    def __init__(self, g: Graph):
        # lcm is called pairwise, as in simplex._lcm
        d = 1
        for _, _, w in g.edges:
            d = lcm(d, w.denominator)
        for m in g.mu:
            d = lcm(d, m.denominator)
        self.n = g.n
        self.d = d
        self.wts = [w.numerator * (d // w.denominator) for _, _, w in g.edges]
        self.mu = [m.numerator * (d // m.denominator) for m in g.mu]
        self.nbrs = [[] for _ in range(g.n)]
        self.deg = [0] * g.n
        for (u, v, _), wi in zip(g.edges, self.wts):
            self.nbrs[u].append((1 << v, wi))
            self.nbrs[v].append((1 << u, wi))
            self.deg[u] += wi
            self.deg[v] += wi
        self.certificates = {}
        self.split_max = None
        self.kway_levels = [None]

    @functools.cached_property
    def tables(self):
        return (self.d, *_block_tables(self.nbrs, self.deg, self.mu))


def _scaled_weights(g: Graph):
    """(D, wts, mu) of g's kernel: D is the least common multiple of g's
    weight and measure denominators, wts[e] = D·w_e in the order of g.edges
    and mu[i] = D·mu_i."""
    k = g.kernel
    return k.d, k.wts, k.mu


def scaled_graph(g: Graph):
    """g's weights and measures as ints, scaled by D, the least common
    multiple of their denominators.  Returns (D, nbrs, deg, mu): nbrs[i]
    lists (1 << j, D·w_ij) for every neighbour j of i, deg[i] is D times the
    weighted degree of i and mu[i] = D·mu_i."""
    k = g.kernel
    return k.d, k.nbrs, k.deg, k.mu


def mask_tables(g: Graph):
    """Integer cut, degree and volume of every vertex bitmask.

    With D from scaled_graph, for the vertex set S of mask m: cut[m] =
    D·|∂S|, deg[m] = D·(sum of weighted degrees over S) and vol[m] = D·mu(S),
    all exact ints.  The lists grow a vertex block at a time: the masks
    r | 2^t with r < 2^t extend the masks r by their highest vertex t
    (see _block_tables).  Returns (D, cut, deg, vol), built once per graph.
    """
    return g.kernel.tables


def _block_tables(nbrs, deg1, mu1):
    """The cut, degree and volume lists of every mask over the vertices of
    nbrs, deg1 and mu1 (as scaled_graph gives them), a vertex block at a
    time: for t = 0, ..., n - 1 the masks r | 2^t, r < 2^t, follow the
    masks r, and cut(r | 2^t) = cut(r) + deg(t) - 2·w(t, r).  The steps
    deg(t) - 2·w(t, r) over r < 2^t double in the same way, once per
    vertex below t."""
    cut, deg, vol = [0], [0], [0]
    for t, (deg_t, mu_t) in enumerate(zip(deg1, mu1)):
        twice_w = [0] * t  # 2·w(t, j) for j < t
        for bit, wi in nbrs[t]:
            if bit >> t == 0:
                twice_w[bit.bit_length() - 1] = 2 * wi
        step = [deg_t]
        for wj in twice_w:  # a j not adjacent to t repeats the steps
            step += [s - wj for s in step] if wj else step
        cut += [c + s for c, s in zip(cut, step)]
        deg += [x + deg_t for x in deg]
        vol += [x + mu_t for x in vol]
    return cut, deg, vol


class _LazyTable(dict):
    """One of the cut, deg and vol tables of lazy_mask_tables: a mask's
    entry is computed when first read, by step(entry, i, prev) from the
    entry of prev, the mask without its lowest vertex i, and kept.  Each
    table fills itself, so none refers to another, and each is freed when
    its last reader drops it, without the cyclic collector."""

    def __init__(self, step):
        super().__init__()
        self.step = step
        self[0] = 0

    def __missing__(self, m):
        chain = []
        while m not in self:
            chain.append(m)
            m &= m - 1
        value = self[m]
        for m in reversed(chain):
            low = m & -m
            value = self.step(value, low.bit_length() - 1, m ^ low)
            self[m] = value
        return value


def lazy_mask_tables(g: Graph):
    """mask_tables(g) for any n: cut, deg and vol are dicts that compute a
    mask's entry on first read from the entry of the mask without its
    lowest vertex, which gives the ints of mask_tables, and keep it.  Key -1
    holds the whole vertex set, as the last entry of the 2^n lists does.
    Returns (D, cut, deg, vol)."""
    d, nbrs, deg1, mu1 = scaled_graph(g)
    cut = _LazyTable(
        lambda c, i, prev: c + deg1[i] - 2 * sum(wi for bit, wi in nbrs[i] if prev & bit)
    )
    deg = _LazyTable(lambda c, i, prev: c + deg1[i])
    vol = _LazyTable(lambda c, i, prev: c + mu1[i])
    full = (1 << g.n) - 1
    deg[-1], vol[-1] = deg[full], vol[full]
    return d, cut, deg, vol


def mask_members(n: int) -> list:
    """Sorted vertex tuple of every bitmask over n vertices.  Comparing
    these tuples is the serialized order that breaks certificate ties."""
    return list(_mask_members(n))


@functools.cache
def _mask_members(n: int) -> tuple:
    # by vertex blocks, as _block_tables: the members of r | 2^t, r < 2^t,
    # are the members of r followed by t
    members = [()]
    for t in range(n):
        members += [m + (t,) for m in members]
    return tuple(members)


@functools.cache
def _member_order(n: int):
    """(order, rank): every mask over n vertices in ascending order of its
    sorted members, and each mask's place in that order."""
    order = tuple(sorted(range(1 << n), key=_mask_members(n).__getitem__))
    rank = [0] * (1 << n)
    for i, m in enumerate(order):
        rank[m] = i
    return order, tuple(rank)


def ternary_pairs(n: int, domain_kind: str = "nonzero") -> list:
    """Disjoint bitmask pairs (A, B), the supports of the ternary vectors
    1_A - 1_B, in ascending order of the serialized pair (sorted A, sorted B):
    the first pair of an optimum is its certificate.

    "nonzero" keeps every pair but (∅, ∅), "nonconstant_2cut" the pairs with
    A and B both nonempty.
    """
    return list(_ternary_pairs(n, domain_kind))


@functools.cache
def _ternary_pairs(n: int, domain_kind: str) -> tuple:
    if domain_kind == "nonconstant_2cut":
        # the "nonzero" pairs with A and B nonempty, in the same order: the
        # two tuples share their pair objects
        return tuple(ab for ab in _ternary_pairs(n, "nonzero") if ab[0] and ab[1])
    return _in_certificate_order(n, _disjoint_pairs(n))


@functools.cache
def _ternary_representatives(n: int, domain_kind: str) -> tuple:
    """The pairs (A, B) of _ternary_pairs(n, domain_kind) that come before
    their mirror (B, A), in the same order: those whose sorted A is below
    their sorted B.  Every ternary form is even, so a pair and its mirror
    have one ratio and one eigenpair verdict, and a scan or a solve that
    keeps the first pair of each value reads only these."""
    if domain_kind == "nonconstant_2cut":
        reps = _ternary_representatives(n, "nonzero")
        return tuple(ab for ab in reps if ab[0] and ab[1])
    _, rank = _member_order(n)
    return _in_certificate_order(
        n, (ab for ab in _disjoint_pairs(n) if rank[ab[0]] < rank[ab[1]])
    )


def _disjoint_pairs(n: int):
    """Every disjoint bitmask pair (A, B) over n vertices but (∅, ∅)."""
    full = (1 << n) - 1
    for mask_a in range(1 << n):
        rest = ~mask_a & full
        mask_b = rest
        while True:
            if mask_a or mask_b:
                yield mask_a, mask_b
            if mask_b == 0:
                break
            mask_b = (mask_b - 1) & rest


def _in_certificate_order(n: int, pairs) -> tuple:
    _, rank = _member_order(n)
    return tuple(sorted(pairs, key=lambda ab: rank[ab[0]] << n | rank[ab[1]]))


@functools.cache
def _ternary_multipliers(n: int, domain_kind: str) -> tuple:
    """L // |A ∪ B| for every pair (A, B) of
    _ternary_representatives(n, domain_kind), with L = lcm(1..n): the factor
    that takes the terms of 1_A - 1_B to those of the candidate
    (1_A - 1_B)/|A ∪ B| of norm 1, times L."""
    big_l = lcm(*range(1, n + 1))
    per_size = [0] + [big_l // s for s in range(1, n + 1)]
    return tuple(
        per_size[(a | b).bit_count()] for a, b in _ternary_representatives(n, domain_kind)
    )


class TernaryColumns:
    """The integer terms of the ternary vectors 1_A - 1_B over pairs, one
    list per term in the order of pairs, all scaled by the D of tables =
    mask_tables(g) or lazy_mask_tables(g).  Each method builds its list
    anew, so a ratio's form builds only the terms it reads, and reads each
    once:

      tv      total variation, cut(A) + cut(B)
      tv_plus signless total variation, deg(A ∪ B) - tv + cut(A ∪ B)
      vol_u   vol(A ∪ B)
      md      median distance, the least mu-weighted distance to a level
              -1, 0 or 1: min(vol(A ∪ B), vol(V) - |vol(A) - vol(B)|), since
              the levels -1 and 1 cost vol(V) - vol(B) + vol(A) and
              vol(V) - vol(A) + vol(B), and the level 0 costs vol(A ∪ B)

    vol_v = vol(V) and two_e = 2|E| (D times the total weighted degree) are
    ints."""

    def __init__(self, tables, pairs):
        self.tables = tables
        self.pairs = pairs

    @property
    def vol_v(self) -> int:
        return self.tables[3][-1]

    @property
    def two_e(self) -> int:
        return self.tables[2][-1]

    def tv(self) -> list:
        cut = self.tables[1]
        return [cut[a] + cut[b] for a, b in self.pairs]

    def tv_plus(self) -> list:
        _, cut, deg, _ = self.tables
        return [deg[a | b] + cut[a | b] - cut[a] - cut[b] for a, b in self.pairs]

    def vol_u(self) -> list:
        vol = self.tables[3]
        return [vol[a | b] for a, b in self.pairs]

    def md(self) -> list:
        # at most one of A and B holds more than half of vol(V), and md is
        # vol(V) - |vol(A) - vol(B)| exactly when one does
        vol = self.tables[3]
        vol_v = vol[-1]
        return [
            vol_v - vol[a] + vol[b] if 2 * vol[a] > vol_v
            else vol_v - vol[b] + vol[a] if 2 * vol[b] > vol_v
            else vol[a] + vol[b]
            for a, b in self.pairs
        ]


def ternary_ratios(tables, pairs, form):
    """form(TernaryColumns(tables, pairs)): a ratio's integer numerators and
    denominators at 1_A - 1_B, as two lists in the order of pairs."""
    return _ternary_ratios(tables, pairs, form)


def _ternary_ratios(tables, pairs, form):
    # ternary_ratios for callers that score a few pairs at a time, as the
    # Dinkelbach flip step does per vertex: a private name, so the layer
    # spans of perfbench/spans.py do not record every call
    return form(TernaryColumns(tables, pairs))


# -- small graph parameters -------------------------------------------------

PARAM_CAP = 24  # vertex cap of the exact independence number and matching


def independence_number(g: Graph):
    """Exact independence number by branch and bound, with a witness set."""
    if g.n > PARAM_CAP:
        raise BadK(f"independence number capped at n={PARAM_CAP}")
    adj_mask = [0] * g.n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = [0, 0]
    _grow_independent(adj_mask, best, 0, 0, (1 << g.n) - 1)
    witness = frozenset(i for i in range(g.n) if best[1] >> i & 1)
    return best[0], witness


def _grow_independent(adj_mask, best, chosen: int, size: int, candidates: int):
    """Branch and bound below the independent set chosen (of size size)
    with the vertices candidates still free; best = [size, set] of the
    largest found so far.  A module function, not a closure that names
    itself, so a call leaves no reference cycle behind."""
    if size + candidates.bit_count() <= best[0]:
        return
    if candidates == 0:
        if size > best[0]:
            best[0], best[1] = size, chosen
        return
    v = (candidates & -candidates).bit_length() - 1
    # branch: take v, or drop it
    _grow_independent(
        adj_mask, best, chosen | (1 << v), size + 1, candidates & ~((1 << v) | adj_mask[v])
    )
    _grow_independent(adj_mask, best, chosen, size, candidates & ~(1 << v))


def maximum_matching(g: Graph) -> int:
    """Exact maximum matching size (cardinality) by branching on vertices."""
    if g.n > PARAM_CAP:
        raise BadK(f"matching capped at n={PARAM_CAP}")
    adj = {i: sorted(v for v, _ in nb) for i, nb in g.adjacency().items()}
    return _matching(adj, {}, (1 << g.n) - 1)


def _matching(adj, memo, free_mask: int) -> int:
    """Maximum matching among the vertices of free_mask, memoized in memo;
    a module function for the reason given at _grow_independent."""
    if free_mask == 0:
        return 0
    if free_mask in memo:
        return memo[free_mask]
    u = (free_mask & -free_mask).bit_length() - 1
    rest = free_mask & ~(1 << u)
    best = _matching(adj, memo, rest)  # leave u unmatched
    for v in adj[u]:
        if rest >> v & 1:
            best = max(best, 1 + _matching(adj, memo, rest & ~(1 << v)))
    memo[free_mask] = best
    return best


def is_bipartite(g: Graph):
    """2-colourability test; returns (flag, colour list or None)."""
    adj = g.adjacency()
    colour = [None] * g.n
    for start in range(g.n):
        if colour[start] is not None:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v, _ in adj[u]:
                if colour[v] is None:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False, None
    return True, colour


def is_forest(g: Graph) -> bool:
    return len(g.edges) == g.n - len(connected_components(g))


def graph_params(g: Graph) -> dict:
    """Independence number, matching, edge cover, bipartiteness, forest test."""
    alpha, _ = independence_number(g)
    beta = maximum_matching(g)
    deg_count = [0] * g.n
    for u, v, _ in g.edges:
        deg_count[u] += 1
        deg_count[v] += 1
    if any(d == 0 for d in deg_count):
        edge_cover = None
    else:
        edge_cover = g.n - beta  # Gallai identity
    bip, _ = is_bipartite(g)
    return {
        "alpha": alpha,
        "matching": beta,
        "edge_cover": edge_cover,
        "is_bipartite": bip,
        "is_forest": is_forest(g),
    }


# -- generators -------------------------------------------------------------

def _need(name: str, k: int, least: int):
    if k < least:
        raise BadK(f"{name} needs k >= {least}, got {k}")


def path(k: int) -> Graph:
    _need("path", k, 1)
    return Graph.build(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    _need("cycle", k, 3)
    return Graph.build(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k: int) -> Graph:
    _need("complete", k, 1)
    return Graph.build(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def star(k: int) -> Graph:
    _need("star", k, 1)
    return Graph.build(k, [(0, i) for i in range(1, k)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.build(10, outer + spokes + inner)


def star_triangle(k: int) -> Graph:
    """k triangles (a_i, b_i, c) sharing the hub c; n = 2k + 1.

    Vertices: a_i = i, b_i = k + i for i in [0, k), hub c = 2k.
    """
    c = 2 * k
    edges = []
    for i in range(k):
        edges += [(i, c), (k + i, c), (i, k + i)]
    return Graph.build(2 * k + 1, edges)


GENERATORS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "petersen": lambda: petersen(),
    "star_triangle": star_triangle,
}


# -- file I/O ---------------------------------------------------------------

def parse_graph(text: str, measure_text: Optional[str] = None) -> Graph:
    """Parse an edge-list file: lines "u v [w]", '#' comments, optional
    header "n <count>" declaring the vertex count (for isolated vertices)."""
    declared_n = None
    raw_edges = []
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("bad header, expected 'n <count>'", line=lineno)
            declared_n = int(parts[1])
            continue
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'u v [w]', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad vertex ids in {line!r}", line=lineno)
        w = parse_rational(parts[2]) if len(parts) == 3 else Fraction(1)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u} (line {lineno})")
        if w <= 0:
            raise NegativeWeight(f"non-positive weight on line {lineno}")
        raw_edges.append((u, v, w))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if n == 0:
        raise ParseError("graph has no vertices")
    if max_id >= n:
        raise ParseError(f"vertex id {max_id} exceeds declared n={n}")
    mu = None
    if measure_text is not None:
        mu_map = {}
        for lineno, line in enumerate(measure_text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'i mu_i', got {line!r}", line=lineno)
            try:
                i = int(parts[0])
            except ValueError:
                raise ParseError(f"bad vertex id in {line!r}", line=lineno)
            if not 0 <= i < n:
                raise ParseError(f"vertex id {i} out of range with n={n}", line=lineno)
            mu_map[i] = parse_rational(parts[1])
        # default unspecified vertices to weighted degree
        deg = weighted_degrees(n, raw_edges)
        mu = [mu_map.get(i, deg[i]) for i in range(n)]
    return Graph.build(n, raw_edges, mu=mu)


def emit_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"

