"""Frozen route-1 split search, kept as the reference for the differential
tests.

This is ``factorize._split_via_containment`` as it was when it built each
down-set as a frozenset by subset tests, one per neighbor, and extended its
pairs through the extension that reads adjacency sets
(``legacy_extension``).  The package reads the down-sets as masks off
``factorize._down_sets``; on every call both must return the same split, or
both None.
"""

from __future__ import annotations

from legacy_extension import legacy_try_extension as _try_extension


def legacy_split_via_containment(graph):
    """Candidate fibers from the closed-neighborhood containment order.

    In a thin product with a universal vertex, the set of vertices whose
    closed neighborhood lies inside N[u] is, for suitable u, exactly one
    fiber through one vertex; trying all pairs of such down-sets covers
    every factorization.  The down-sets of a thin graph are distinct, so a
    pair recurs only in the other order, and ``_try_extension`` is
    exhaustive, so a pair fails in both orders or in neither; the retry of
    a failed pair changes no result.
    """
    n = graph.vertex_count
    masks = graph.closed_masks
    down: list[frozenset[int]] = []
    for u in range(n):
        # only a member of N[u] can have its closed neighborhood inside N[u]
        mu = masks[u]
        down.append(frozenset([u, *(v for v in graph.neighbors(u) if masks[v] | mu == mu)]))
    for u1 in range(n):
        p1 = down[u1]
        if len(p1) < 2 or n % len(p1):
            continue
        for u2 in range(n):
            p2 = down[u2]
            if len(p2) < 2 or len(p1) * len(p2) != n:
                continue
            inter = p1 & p2
            if len(inter) != 1:
                continue
            v0 = next(iter(inter))
            phi = _try_extension(graph, sorted(p2), sorted(p1), v0)
            if phi is not None:
                return sorted(p2), sorted(p1), phi
    return None
