"""Frozen split search of route 3 (graphs that are not thin), kept as the
reference for the differential tests.

This is the search ``factorize._split_blind`` ran before it pruned
candidates by the degree law while they grow: every connected subset
through the anchor is tested for isometry first, and the degree and
edge-count laws run on the survivors.  Candidate pairs go to the package's
``factorize._try_extension``, looked up at call time, so both searches can
be compared by what they hand to it.
"""

from __future__ import annotations

import math
from typing import Iterator

from strongpfd import factorize


def legacy_split_blind(graph):
    n = graph.vertex_count
    degs = [graph.degree(v) for v in range(n)]
    top = max(degs)
    anchor = next(v for v in range(n) if degs[v] == top)
    dist = [graph.distances_from(v) for v in range(n)]
    for d in range(2, math.isqrt(n) + 1):
        if n % d:
            continue
        size_b = n // d
        for fa in connected_isometric_subsets(graph, anchor, d, frozenset(range(n)), dist):
            adj_a = {a: graph.adjacency_set(a) & fa for a in fa}
            quotient_deg = None
            ok = True
            for a in fa:
                inner = len(adj_a[a]) + 1
                if (degs[a] + 1) % inner:
                    ok = False
                    break
                q = (degs[a] + 1) // inner
                if quotient_deg is None:
                    quotient_deg = q
                elif quotient_deg != q:
                    ok = False
                    break
            if not ok:
                continue
            dwa = len(adj_a[anchor]) + 1
            pool = frozenset(
                v for v in range(n) if (degs[v] + 1) % dwa == 0 and (v == anchor or v not in fa)
            )
            if anchor not in pool or len(pool) < size_b:
                continue
            ma = sum(len(s) for s in adj_a.values()) // 2
            for fb in connected_isometric_subsets(graph, anchor, size_b, pool, dist):
                adj_b = {b: graph.adjacency_set(b) & fb for b in fb}
                if any((degs[b] + 1) != (len(adj_b[b]) + 1) * dwa for b in fb):
                    continue
                if quotient_deg != len(adj_b[anchor]) + 1:
                    continue
                mb = sum(len(s) for s in adj_b.values()) // 2
                if ((2 * ma + d) * (2 * mb + size_b) - d * size_b) // 2 != graph.edge_count:
                    continue
                phi = factorize._try_extension(graph, sorted(fa), sorted(fb), anchor)
                if phi is not None:
                    return sorted(fa), sorted(fb), phi
    return None


def connected_isometric_subsets(
    graph,
    root: int,
    size: int,
    allowed: frozenset[int],
    dist: list[list[int]],
) -> Iterator[frozenset[int]]:
    """Connected induced subsets through ``root`` whose internal distances
    match the host distances (a property every fiber has)."""
    if root not in allowed:
        return
    if size == 1:
        yield frozenset((root,))
        return
    seen: set[frozenset[int]] = set()

    def grow(current: frozenset[int]) -> Iterator[frozenset[int]]:
        if len(current) == size:
            if is_isometric(graph, current, dist):
                yield current
            return
        frontier: set[int] = set()
        for v in current:
            frontier.update(graph.adjacency_set(v))
        for v in sorted(frontier & allowed - current):
            nxt = current | {v}
            if nxt not in seen:
                seen.add(nxt)
                yield from grow(nxt)

    yield from grow(frozenset((root,)))


def is_isometric(graph, subset: frozenset[int], dist: list[list[int]]) -> bool:
    order = sorted(subset)
    index = {v: i for i, v in enumerate(order)}
    # BFS inside the induced subgraph, per source
    for src in order:
        local = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in graph.adjacency_set(u):
                    if w in index and w not in local:
                        local[w] = local[u] + 1
                        nxt.append(w)
            frontier = nxt
        for v in order:
            if local.get(v, -1) != dist[src][v]:
                return False
    return True
