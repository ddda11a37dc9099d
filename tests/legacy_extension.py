"""Frozen bijection extension of the split search, kept as the reference
for the differential tests.

This is ``factorize._try_extension`` as it was when each candidate vertex
was checked against every pair placed so far (``pair_adjacent`` over all of
``phi``).  The package checks a candidate only against the placed product
neighbors of its pair; on every call both must return the same mapping, or
both None.
"""

from __future__ import annotations


def _induced_bfs(v0: int, members: list[int], adj):
    """Distances and parents from v0 within the induced candidate fiber."""
    dist = {v0: 0}
    parent = {v0: v0}
    frontier = [v0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    if len(dist) != len(members):
        return None, None
    return dist, parent


def legacy_try_extension(graph, fa: list[int], fb: list[int], v0: int):
    """Try to realize the graph as <fa> box <fb> with both fibers through v0.

    Returns the complete pair-to-vertex bijection or None.  Adjacency and
    non-adjacency against every previously placed pair are enforced at each
    step, so a completed map is an isomorphism by construction.
    """
    seta, setb = frozenset(fa), frozenset(fb)
    adj_a = {a: graph.adjacency_set(a) & seta for a in fa}
    adj_b = {b: graph.adjacency_set(b) & setb for b in fb}
    da, parent_a = _induced_bfs(v0, fa, adj_a)
    if da is None:
        return None
    db, parent_b = _induced_bfs(v0, fb, adj_b)
    if db is None:
        return None

    near_a = adj_a[v0]
    near_b = adj_b[v0]
    for a in fa:
        if a == v0:
            continue
        row = graph.adjacency_set(a)
        for b in fb:
            if b == v0:
                continue
            if (b in row) != (a in near_a and b in near_b):
                return None

    phi: dict[tuple[int, int], int] = {}
    for a in fa:
        phi[(a, v0)] = a
    for b in fb:
        phi[(v0, b)] = b
    used = set(fa) | set(fb)

    pairs = [(a, b) for a in fa if a != v0 for b in fb if b != v0]
    pairs.sort(key=lambda p: (da[p[0]] + db[p[1]], p[0], p[1]))
    masks = graph.closed_masks

    def pair_adjacent(p: tuple[int, int], q: tuple[int, int]) -> bool:
        if p == q:
            return False
        pa, pb = p
        qa, qb = q
        return (pa == qa or qa in adj_a[pa]) and (pb == qb or qb in adj_b[pb])

    # depth-first over the pairs in order; left[i] holds the candidates
    # pairs[i] has not tried yet
    left = [0] * len(pairs)
    depth = 0
    while depth < len(pairs):
        pair = pairs[depth]
        a, b = pair
        if pair in phi:
            used.discard(phi.pop(pair))
        else:
            left[depth] = masks[phi[(parent_a[a], b)]] & masks[phi[(a, parent_b[b])]]
        m = left[depth]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if u in used:
                continue
            row = graph.adjacency_set(u)
            if all(pair_adjacent(pair, q) == (placed in row) for q, placed in phi.items()):
                phi[pair] = u
                used.add(u)
                break
        left[depth] = m
        if pair in phi:
            depth += 1
        elif depth == 0:
            return None
        else:
            depth -= 1
    return phi
