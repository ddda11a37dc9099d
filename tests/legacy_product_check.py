"""Frozen transport product check, kept as the reference for the
differential tests.

This is the ``product_coordinates`` the package used before it read
coordinates off layers: each color's fibers are carried onto the reference
fiber by parallel transport along edges of the other colors, visiting each
vertex's colored neighbors in ascending order.  ``edges_follow_coordinates``
is the separate check the skeleton assembly ran next to it, that every edge
of color c changes exactly coordinate c.  Only public strongpfd functions
are called; the private helper it needs is copied here so later refactors
of the package cannot move the reference.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from strongpfd.factorize import rebuilds_strong_product
from strongpfd.skeleton import fiber_components


def _first_mismatch(graph, coords, factors):
    index = {c: v for v, c in enumerate(coords)}
    closed = [[(x,) + f.neighbors(x) for x in f.vertices()] for f in factors]
    for u, cu in enumerate(coords):
        near = {index[c] for c in itertools.product(*(closed[i][x] for i, x in enumerate(cu)))}
        near.discard(u)
        later = [v for v in near.symmetric_difference(graph.adjacency_set(u)) if v > u]
        if later:
            return u, min(later)
    raise ValueError("the coordinates rebuild the graph")


def product_coordinates(graph, edge_color, n_colors):
    """(ok, coords, factors, diagnostics) by fiber transport."""
    n = graph.vertex_count
    if n_colors == 0:
        if n == 1 and graph.edge_count == 0:
            return True, [()], [], []
        return False, None, None, ["no colors but the graph is larger than one vertex"]

    comp_of, comps_of, nbrs = fiber_components(graph, edge_color, n_colors)
    ref_sets = [comps[0] for comps in comps_of]
    for c, comps in enumerate(comps_of):
        sizes = {len(members) for members in comps}
        if sizes != {len(ref_sets[c])}:
            return False, None, None, [f"color {c} has fibers of unequal sizes {sorted(sizes)}"]
    if math.prod(len(r) for r in ref_sets) != n:
        return False, None, None, ["reference fiber sizes do not multiply to the vertex count"]

    incident = [
        sorted((v, d) for d, adj in enumerate(nbrs) for v in adj[u]) for u in graph.vertices()
    ]
    position = []
    for c in range(n_colors):
        comp = comp_of[c]
        comps = comps_of[c]
        psi = {v: i for i, v in enumerate(ref_sets[c])}
        known = {0}
        queue = deque([0])
        while queue:
            k = queue.popleft()
            for u in comps[k]:
                for v, d in incident[u]:
                    if d == c:
                        continue
                    k2 = comp[v]
                    if k2 in known:
                        continue
                    mapped = {}
                    ok = True
                    for w in comps[k2]:
                        back = [t for t in nbrs[d][w] if comp[t] == k]
                        if len(back) != 1 or back[0] not in psi:
                            ok = False
                            break
                        mapped[w] = psi[back[0]]
                    if not ok:
                        return False, None, None, [
                            f"fiber transport failed between components of color {c}"
                        ]
                    psi.update(mapped)
                    known.add(k2)
                    queue.append(k2)
        if len(known) != len(comps):
            return False, None, None, [f"fibers of color {c} are not connected by other colors"]
        position.append(psi)

    coords = [tuple(position[c][v] for c in range(n_colors)) for v in range(n)]
    if len(set(coords)) != n:
        return False, None, None, ["coordinate map is not a bijection"]

    factors = [graph.induced_subgraph(ref)[0] for ref in ref_sets]
    if not rebuilds_strong_product(graph, coords, factors):
        u, v = _first_mismatch(graph, coords, factors)
        return False, None, None, [f"edge-exact reconstruction failed at pair ({u}, {v})"]
    return True, coords, factors, []


def edges_follow_coordinates(edge_color, coords):
    """Whether every edge of color c joins two vertices whose coordinates
    differ in position c and nowhere else."""
    for (u, v), c in edge_color.items():
        cu, cv = coords[u], coords[v]
        if cu[c] == cv[c] or cu[:c] != cv[:c] or cu[c + 1 :] != cv[c + 1 :]:
            return False
    return True


def old_verdict(graph, edge_color, n_colors):
    """The transport result, and whether the assembly took it as settled:
    it verified and every edge followed the coordinates."""
    result = product_coordinates(graph, edge_color, n_colors)
    settled = result[0] and edges_follow_coordinates(edge_color, result[1])
    return result, settled
