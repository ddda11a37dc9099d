"""Exact graph isomorphism for small graphs.

Two routes: a canonical form built by color refinement with backtracking
individualization (equal byte strings iff isomorphic), and a direct
backtracking isomorphism search that also produces a witness bijection.
Both keep their own stacks.  Both are exponential in the worst case;
intended for graphs up to a few dozen vertices.  The canonical search
branches once per twin class of a cell, not once per member.
"""

from __future__ import annotations

from .graph import Graph


def _refine(graph: Graph, colors: list[int]) -> list[int]:
    """Iterate (color, sorted neighbor colors) re-ranking until stable."""
    n = graph.vertex_count
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in graph.neighbors(v))))
            for v in range(n)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[keys[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def _adjacency_code(graph: Graph, order: list[int]) -> bytes:
    """Upper-triangle adjacency bits of the graph relabeled by ``order``."""
    n = graph.vertex_count
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = 0
    idx = 0
    for i in range(n):
        u = order[i]
        adj = graph.adjacency_set(u)
        for j in range(i + 1, n):
            if order[j] in adj:
                bits |= 1 << idx
            idx += 1
    return bits.to_bytes((idx + 7) // 8 or 1, "big")


def canonical_form(graph: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic.

    The least adjacency code over the leaves of the individualization
    search, which keeps its own stack.  A node branches on one vertex per
    twin class of its target cell (same open or same closed neighborhood):
    swapping two twins is an automorphism that fixes the node's coloring,
    so their subtrees hold the same codes.
    """
    n = graph.vertex_count
    if n == 0:
        return b"\x00"
    twin_class = list(range(n))
    firsts: dict[int, int] = {}
    for v, mask in enumerate(graph.closed_masks):
        for key in (mask, mask ^ 1 << v):
            twin_class[v] = firsts.setdefault(key, twin_class[v])
    best: bytes | None = None
    stack = [[graph.degree(v) for v in range(n)]]
    while stack:
        colors = _refine(graph, stack.pop())
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            code = _adjacency_code(graph, sorted(range(n), key=colors.__getitem__))
            if best is None or code < best:
                best = code
            continue
        # each twin class by its least member; the order of the leaves
        # does not move the minimum
        for v in {twin_class[v]: v for v in reversed(target)}.values():
            branched = list(colors)
            branched[v] = -1
            stack.append(branched)
    assert best is not None
    return n.to_bytes(4, "big") + best


def _profiles(graph: Graph) -> list[tuple[int, tuple[int, ...]]]:
    return [
        (graph.degree(v), tuple(sorted(graph.degree(u) for u in graph.neighbors(v))))
        for v in graph.vertices()
    ]


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
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
    # the remaining vertices next to a placed one, each with the first of
    # its neighbors placed, which each vertex keeps in placed_before
    attached: dict[int, int] = {}
    order: list[int] = []
    placed_before: list[int | None] = []
    while remaining:
        v = min(attached or remaining, key=lambda x: (len(cands[x]), x))
        order.append(v)
        placed_before.append(attached.pop(v, None))
        remaining.discard(v)
        for w in g1.neighbors(v):
            if w in remaining:
                attached.setdefault(w, v)

    # depth-first search with an explicit stack: tried[i] counts the
    # candidates of order[i] tried so far, and a candidate u of v fits when
    # the placed neighbors of v map exactly onto the used neighbors of u.
    # A v placed after a neighbor w may take its candidates from the
    # neighbors of w's image, ascending, with v's profile: every fit is
    # adjacent to that image, so that list holds the fits of v's profile
    # list in the same order, and the search returns the same mapping from
    # either.  It scans the list the image's degree says is shorter, so a
    # long path costs about 2n steps, not n²/2.  w is fixed by the order,
    # and its image moves only when the search backtracks past it, after
    # which v's counter restarts from 0; only then is v's list rebuilt.
    adj1, adj2 = g1.adjacency_sets, g2.adjacency_sets
    mapping: dict[int, int] = {}
    used = [False] * n
    tried = [0] * n
    lists: list[list[int]] = [[] for _ in range(n)]
    depth = 0
    while depth < n:
        v = order[depth]
        if tried[depth] == 0:
            w = placed_before[depth]
            lists[depth] = cands[v]
            if w is not None and g2.degree(mapping[w]) < len(cands[v]):
                lists[depth] = [u for u in g2.neighbors(mapping[w]) if p2[u] == p1[v]]
        image = {mapping[w] for w in adj1[v] if w in mapping}
        cand = lists[depth]
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


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None
