"""Exact weighted graph representation and combinatorial primitives.

Vertices are integers in [0, n).  Edge weights and vertex measures are
`fractions.Fraction` throughout, so every volume, boundary and cut value
computed downstream is an exact rational.  The default vertex measure is
the weighted degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    BadK,
    IsolatedVertex,
    NegativeWeight,
    OverlappingSets,
    ParseError,
    SelfLoop,
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
            deg = [Fraction(0)] * n
            for u, v, w in edge_tuple:
                deg[u] += w
                deg[v] += w
            mu = deg
        else:
            mu = [Fraction(x) for x in mu]
            if len(mu) != n:
                raise ParseError(f"measure vector has length {len(mu)}, expected {n}")
            if any(m < 0 for m in mu):
                raise NegativeWeight("negative vertex measure")
        return Graph(n=n, edges=edge_tuple, mu=tuple(mu))

    # -- basic quantities ---------------------------------------------------

    def degree(self, i: int) -> Fraction:
        return sum((w for u, v, w in self.edges if i in (u, v)), Fraction(0))

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


def vol(g: Graph, s: Iterable[int]) -> Fraction:
    return sum((g.mu[i] for i in s), Fraction(0))


def cut_weight(g: Graph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Total weight of edges with one endpoint in a and the other in b."""
    a, b = frozenset(a), frozenset(b)
    if a & b:
        raise OverlappingSets(f"sets overlap on {sorted(a & b)}")
    total = Fraction(0)
    for u, v, w in g.edges:
        if (u in a and v in b) or (u in b and v in a):
            total += w
    return total


def boundary(g: Graph, s: Iterable[int]) -> Fraction:
    """|∂S| = cut weight between s and its complement."""
    s = frozenset(s)
    return cut_weight(g, s, g.vertices() - s)


def intra_weight(g: Graph, s: Iterable[int]) -> Fraction:
    s = frozenset(s)
    return sum((w for u, v, w in g.edges if u in s and v in s), Fraction(0))


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

def scaled_graph(g: Graph):
    """g's weights and measures as ints, scaled by D, the least common
    multiple of their denominators.  Returns (D, nbrs, deg, mu): nbrs[i]
    lists (1 << j, D·w_ij) for every neighbour j of i, deg[i] is D times the
    weighted degree of i and mu[i] = D·mu_i."""
    d = lcm(*(w.denominator for _, _, w in g.edges), *(m.denominator for m in g.mu))
    nbrs = [[] for _ in range(g.n)]
    deg = [0] * g.n
    for u, v, w in g.edges:
        wi = w.numerator * (d // w.denominator)
        nbrs[u].append((1 << v, wi))
        nbrs[v].append((1 << u, wi))
        deg[u] += wi
        deg[v] += wi
    return d, nbrs, deg, [m.numerator * (d // m.denominator) for m in g.mu]


def mask_tables(g: Graph):
    """Integer cut, degree and volume of every vertex bitmask.

    With D from scaled_graph, for the vertex set S of mask m: cut[m] =
    D·|∂S|, deg[m] = D·(sum of weighted degrees over S) and vol[m] = D·mu(S),
    all exact ints.  Each entry extends the entry without its lowest vertex.
    Returns (D, cut, deg, vol).
    """
    d, nbrs, deg1, mu1 = scaled_graph(g)
    size = 1 << g.n
    cut, deg, vol = [0] * size, [0] * size, [0] * size
    _extend(cut, deg, vol, range(1, size), nbrs, deg1, mu1)
    return d, cut, deg, vol


def _extend(cut, deg, vol, masks, nbrs, deg1, mu1):
    """Set the cut, degree and volume of each mask, in order, from the
    entries of the mask without its lowest vertex, which must be set."""
    for m in masks:
        low = m & -m
        i = low.bit_length() - 1
        prev = m ^ low
        inner = sum(wi for bit, wi in nbrs[i] if prev & bit)
        cut[m] = cut[prev] + deg1[i] - 2 * inner
        deg[m] = deg[prev] + deg1[i]
        vol[m] = vol[prev] + mu1[i]


class _LazyTable(dict):
    """One of the cut, deg and vol tables of lazy_mask_tables: a mask's
    entry is computed, for all three tables, when first read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, m):
        self.fill(m)
        return self[m]


def lazy_mask_tables(g: Graph):
    """mask_tables(g) for any n: cut, deg and vol are dicts that compute a
    mask's entries on first read, by the same lowest-vertex recurrence, and
    keep them.  Key -1 holds the whole vertex set, as the last entry of the
    2^n lists does.  Returns (D, cut, deg, vol)."""
    d, nbrs, deg1, mu1 = scaled_graph(g)

    def fill(m):
        chain = []
        while m not in vol:
            chain.append(m)
            m &= m - 1
        _extend(cut, deg, vol, reversed(chain), nbrs, deg1, mu1)

    cut, deg, vol = _LazyTable(fill), _LazyTable(fill), _LazyTable(fill)
    cut[0] = deg[0] = vol[0] = 0
    full = (1 << g.n) - 1
    deg[-1], vol[-1] = deg[full], vol[full]
    return d, cut, deg, vol


def mask_members(n: int) -> list:
    """Sorted vertex tuple of every bitmask over n vertices.  Comparing
    these tuples is the serialized order that breaks certificate ties."""
    members = [()] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        members[m] = (low.bit_length() - 1,) + members[m ^ low]
    return members


def ternary_pairs(n: int, domain_kind: str = "nonzero") -> list:
    """Disjoint bitmask pairs (A, B), the supports of the ternary vectors
    1_A - 1_B, in ascending order of the serialized pair (sorted A, sorted B):
    the first pair of an optimum is its certificate.

    "nonzero" keeps every pair but (∅, ∅), "nonconstant_2cut" the pairs with
    A and B both nonempty.
    """
    full = (1 << n) - 1
    two_cut = domain_kind == "nonconstant_2cut"
    out = []
    for mask_a in range(1 << n):
        rest = ~mask_a & full
        mask_b = rest
        while True:
            if (mask_a and mask_b) if two_cut else (mask_a or mask_b):
                out.append((mask_a, mask_b))
            if mask_b == 0:
                break
            mask_b = (mask_b - 1) & rest
    members = mask_members(n)
    rank = [0] * (1 << n)
    for i, m in enumerate(sorted(range(1 << n), key=members.__getitem__)):
        rank[m] = i
    out.sort(key=lambda ab: rank[ab[0]] << n | rank[ab[1]])
    return out


def ternary_ratios(tables, pairs, ratio) -> list:
    """ratio(tv, tv_plus, median distance, vol(A ∪ B), vol(V), 2|E|) of
    1_A - 1_B for every (A, B) in pairs, its terms ints scaled by the D of
    tables = mask_tables(g) or lazy_mask_tables(g): tv = cut(A) + cut(B),
    tv_plus = deg(A ∪ B) - tv + cut(A ∪ B), and the median distance is the
    least mu-weighted distance to a level -1, 0 or 1."""
    return _ternary_ratios(tables, pairs, ratio)


def _ternary_ratios(tables, pairs, ratio) -> list:
    # ternary_ratios for callers that score a few pairs at a time, as the
    # Dinkelbach flip step does per vertex: a private name, so the layer
    # spans of perfbench/spans.py do not record every call
    _, cut, deg, volm = tables
    vol_v, two_e = volm[-1], deg[-1]
    out = []
    for a, b in pairs:
        u = a | b
        tv = cut[a] + cut[b]
        rest = vol_v - volm[u]
        md = min(rest + 2 * volm[a], volm[a] + volm[b], 2 * volm[b] + rest)
        out.append(ratio(tv, deg[u] - tv + cut[u], md, volm[u], vol_v, two_e))
    return out


# -- small graph parameters -------------------------------------------------

def independence_number(g: Graph, cap: int = 24):
    """Exact independence number by branch and bound, with a witness set."""
    if g.n > cap:
        raise BadK(f"independence number capped at n={cap}")
    adj_mask = [0] * g.n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = [0, 0]

    def grow(chosen: int, size: int, candidates: int):
        if size + bin(candidates).count("1") <= best[0]:
            return
        if candidates == 0:
            if size > best[0]:
                best[0], best[1] = size, chosen
            return
        v = (candidates & -candidates).bit_length() - 1
        # branch: take v, or drop it
        grow(chosen | (1 << v), size + 1, candidates & ~((1 << v) | adj_mask[v]))
        grow(chosen, size, candidates & ~(1 << v))

    grow(0, 0, (1 << g.n) - 1)
    witness = frozenset(i for i in range(g.n) if best[1] >> i & 1)
    return best[0], witness


def maximum_matching(g: Graph, cap: int = 24) -> int:
    """Exact maximum matching size (cardinality) by branching on vertices."""
    if g.n > cap:
        raise BadK(f"matching capped at n={cap}")
    adj = {i: sorted(v for v, _ in nb) for i, nb in g.adjacency().items()}
    memo = {}

    def rec(free_mask: int) -> int:
        if free_mask == 0:
            return 0
        if free_mask in memo:
            return memo[free_mask]
        u = (free_mask & -free_mask).bit_length() - 1
        rest = free_mask & ~(1 << u)
        best = rec(rest)  # leave u unmatched
        for v in adj[u]:
            if rest >> v & 1:
                best = max(best, 1 + rec(rest & ~(1 << v)))
        memo[free_mask] = best
        return best

    return rec((1 << g.n) - 1)


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


def graph_params(g: Graph, cap: int = 24) -> dict:
    """Independence number, matching, edge cover, bipartiteness, forest test."""
    alpha, _ = independence_number(g, cap=cap)
    beta = maximum_matching(g, cap=cap)
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


def edge_cover_number(g: Graph, cap: int = 24) -> int:
    params = graph_params(g, cap=cap)
    if params["edge_cover"] is None:
        raise IsolatedVertex("edge cover undefined with isolated vertices")
    return params["edge_cover"]


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
            mu_map[int(parts[0])] = parse_rational(parts[1])
        # default unspecified vertices to weighted degree
        deg = [Fraction(0)] * n
        for u, v, w in raw_edges:
            deg[u] += w
            deg[v] += w
        mu = [mu_map.get(i, deg[i]) for i in range(n)]
    return Graph.build(n, raw_edges, mu=mu)


def emit_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"

