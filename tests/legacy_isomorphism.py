"""Frozen isomorphism search, kept as the reference for the differential
test of ``isomorphism.find_isomorphism``.

This is ``find_isomorphism`` as it was when each vertex scanned every
candidate of its profile in ascending id order, used ones included, which
makes about n²/2 candidate steps on a long path.  The package may take
the candidates of a vertex with a placed neighbor from the neighbors of
that neighbor's image; on every pair both must return the same mapping,
or both None.
"""

from __future__ import annotations

from strongpfd.graph import Graph


def _profiles(graph: Graph) -> list[tuple[int, tuple[int, ...]]]:
    return [
        (graph.degree(v), tuple(sorted(graph.degree(u) for u in graph.neighbors(v))))
        for v in graph.vertices()
    ]


def legacy_find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """Vertex bijection g1 -> g2 preserving adjacency exactly, or None."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    p1, p2 = _profiles(g1), _profiles(g2)
    if sorted(p1) != sorted(p2):
        return None
    if n == 0:
        return {}

    # candidate targets per source vertex, filtered by local profile
    targets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for u in range(n):
        targets.setdefault(p2[u], []).append(u)
    cands = [targets[p1[v]] for v in range(n)]

    # order the source vertices: rarest profile first, then expand by adjacency
    # so every later vertex has a mapped neighbor where possible
    remaining = set(range(n))
    attached: set[int] = set()  # the remaining vertices next to a placed one
    order: list[int] = []
    while remaining:
        v = min(attached or remaining, key=lambda x: (len(cands[x]), x))
        order.append(v)
        remaining.discard(v)
        attached.discard(v)
        attached.update(w for w in g1.neighbors(v) if w in remaining)

    # depth-first search with an explicit stack: tried[i] counts the
    # candidates of order[i] tried so far, and a candidate u of v fits when
    # the placed neighbors of v map exactly onto the used neighbors of u
    adj1, adj2 = g1.adjacency_sets, g2.adjacency_sets
    mapping: dict[int, int] = {}
    used = [False] * n
    tried = [0] * n
    depth = 0
    while depth < n:
        v = order[depth]
        image = {mapping[w] for w in adj1[v] if w in mapping}
        cand = cands[v]
        while tried[depth] < len(cand):
            u = cand[tried[depth]]
            tried[depth] += 1
            if used[u]:
                continue
            if image == {t for t in adj2[u] if used[t]}:
                mapping[v] = u
                used[u] = True
                depth += 1
                break
        else:
            if depth == 0:
                return None
            tried[depth] = 0
            depth -= 1
            used[mapping.pop(order[depth])] = False
    return dict(mapping)
