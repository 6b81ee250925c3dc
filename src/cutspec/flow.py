"""Exact integer circulations with lower and upper arc bounds.

A circulation on the nodes 0, ..., n - 1 puts a flow y_a on every arc
a = (u, v) with lo_a <= y_a <= hi_a, and at every node the flow in equals
the flow out.  By Hoffman's circulation theorem (1960) one exists iff,
for every node set S, the lower bounds of the arcs into S total at most
the upper bounds of the arcs out of S; with int bounds it then has an
int flow.  circulation_exists decides this by one maximum flow: every
arc first carries base, the point of [lo, hi] nearest 0, which leaves
room hi - base forward and base - lo backward; the imbalances that base
leaves at the nodes become arcs from a source and to a sink, and a
circulation exists iff a maximum flow saturates the source's arcs.  The
maximum flow is Dinic's (1970): augmenting along shortest paths, one
level graph at a time.  All arithmetic is in ints.
"""

from __future__ import annotations


def circulation_exists(n: int, arcs) -> bool:
    """Whether a circulation on the nodes 0, ..., n - 1 meets every arc's
    bounds; arcs is an iterable of int (u, v, lo, hi)."""
    excess = [0] * n
    out = [[] for _ in range(n + 2)]
    head = []  # arc 2k runs u -> v, arc 2k + 1 is its reverse v -> u
    cap = []

    def add(u, v, forward, backward):
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((forward, backward))

    for u, v, lo, hi in arcs:
        if lo > hi:
            return False
        base = lo if lo > 0 else hi if hi < 0 else 0
        excess[u] -= base
        excess[v] += base
        if lo < hi:
            add(u, v, hi - base, base - lo)
    source, sink = n, n + 1
    need = 0
    for i, e in enumerate(excess):
        if e > 0:
            add(source, i, e, 0)
            need += e
        elif e < 0:
            add(i, sink, -e, 0)
    return not need or _max_flow(out, head, cap, source, sink, need) == need


def _max_flow(out, head, cap, s, t, limit) -> int:
    """Dinic's maximum flow from s to t, stopped once it reaches limit; out
    lists each node's arcs, head[a] is arc a's end and cap[a] its residual
    capacity, and arc a ^ 1 is a's reverse.  Updates cap in place."""
    flow = 0
    nodes = len(out)
    while flow < limit:
        level = [-1] * nodes
        level[s] = 0
        queue = [s]
        for v in queue:
            for a in out[v]:
                w = head[a]
                if cap[a] and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        if level[t] < 0:
            break
        nxt = [0] * nodes  # each node's first arc not yet found blocked

        def push(v, f):
            # up to f from v to t along the level graph; the arcs before
            # nxt[v] are saturated or lead to blocked nodes
            if v == t:
                return f
            arcs = out[v]
            sent = 0
            while nxt[v] < len(arcs):
                a = arcs[nxt[v]]
                w = head[a]
                if cap[a] and level[w] == level[v] + 1:
                    d = push(w, min(f - sent, cap[a]))
                    if d:
                        cap[a] -= d
                        cap[a ^ 1] += d
                        sent += d
                        if sent == f:
                            return sent
                nxt[v] += 1
            return sent

        flow += push(s, limit - flow)
    return flow
