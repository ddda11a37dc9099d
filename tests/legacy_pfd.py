"""Frozen graph path of the exact factorizer, kept as the reference for the
differential tests.

This is ``factorize._factor_verified`` and ``_pfd`` as they were when they
factored a ``Graph``: a split built each fiber as an induced subgraph, a
graph that is not thin went through the quotient graph of ``quotient``,
and the factor graphs were verified by ``rebuilds_strong_product``.  Route 1
and the extension are the frozen ones (``legacy_containment`` and
``legacy_extension``).  Route 2 grows its candidates through the package's
``_box`` and ``_grow_fiber_candidates``, which read no graph but its order,
and factors its balls through the cache it is given.  The package factors
closed masks and renumbers each fiber by rank; on every graph both must
return the same rows, and the package's factors must be the closed masks of
these factor graphs.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product

from strongpfd import Graph, complete_graph
from strongpfd.factorize import _box, _grow_fiber_candidates, _least_prime_factor
from strongpfd.factorize import rebuilds_strong_product
from strongpfd.products import strong_product
from strongpfd.sclasses import backbone, is_thin, quotient

from legacy_containment import legacy_split_via_containment
from legacy_extension import legacy_try_extension


def legacy_factor_verified(graph, cache):
    """The prime factor graphs of ``graph`` in the order they were found and
    each vertex's coordinate row, verified against ``graph``."""
    factors, rows = legacy_pfd(graph, cache)
    if not rebuilds_strong_product(graph, rows, factors):
        raise RuntimeError("internal error: factorization failed verification")
    return factors, rows


def legacy_pfd(graph, cache):
    """Prime factors and coordinates, split by split; a graph that is not
    thin goes through its quotient."""
    n = graph.vertex_count
    if n == 1:
        return [], [()]
    composite = _least_prime_factor(n) < n
    if composite and not is_thin(graph):
        return _factor_through_quotient(graph, cache)
    split = None
    if composite:
        universal = (1 << n) - 1 in graph.closed_masks
        split = legacy_split_via_containment(graph) if universal else _split_grown(graph, cache)
    if split is None:
        return [graph], [(v,) for v in range(n)]
    fa, fb, phi = split
    ga, map_a = graph.induced_subgraph(fa)
    gb, map_b = graph.induced_subgraph(fb)
    factors_a, coords_a = legacy_pfd(ga, cache)
    factors_b, coords_b = legacy_pfd(gb, cache)
    coords = [None] * n
    for (a, b), vertex in phi.items():
        coords[vertex] = coords_a[map_a[a]] + coords_b[map_b[b]]
    return factors_a + factors_b, coords


def _factor_through_quotient(graph, cache):
    """Prime factors and coordinates of a graph that is not thin, read off
    the prime factors of its thin quotient and its class sizes."""
    q = quotient(graph)
    factors, rows = legacy_pfd(q.quotient, cache)
    sizes = [len(members) for members in q.class_members]
    at = {row: x for x, row in enumerate(rows)}
    base = rows[0]

    def size_at(row, reset):
        kept = dict(enumerate(row))
        kept.update((i, base[i]) for i in reset)
        return sizes[at[tuple(kept.values())]]

    k = len(factors)
    label = list(range(k))
    for i, j in combinations(range(k), 2):
        if label[i] != label[j] and any(
            s * size_at(row, (i, j)) != size_at(row, (i,)) * size_at(row, (j,))
            for row, s in zip(rows, sizes)
        ):
            old = label[j]
            label = [label[i] if g == old else g for g in label]
    blown, groups = [], []
    for g in dict.fromkeys(label):
        members = [i for i in range(k) if label[i] == g]
        outside = [i for i in range(k) if label[i] != g]
        core, cells = strong_product([factors[i] for i in members])
        weights = [0] * core.vertex_count
        for row, s in zip(rows, sizes):
            if all(row[i] == base[i] for i in outside):
                weights[cells.vertex_at(tuple(row[i] for i in members))] = s
        common = math.gcd(*weights)
        weights = [w // common for w in weights]
        starts = [0, *accumulate(weights)]
        blown.append(_blow_up(core, starts))
        groups.append((members, cells, weights, starts))
    primes = []
    rest = math.gcd(*sizes)
    while rest > 1:
        primes.append(_least_prime_factor(rest))
        rest //= primes[-1]
    if len(blown) + len(primes) == 1:
        return [graph], [(v,) for v in range(graph.vertex_count)]
    coords = []
    for v, x in enumerate(q.class_map):
        rank = q.class_members[x].index(v)
        row = []
        for members, cells, weights, starts in groups:
            y = cells.vertex_at(tuple(rows[x][i] for i in members))
            rank, digit = divmod(rank, weights[y])
            row.append(starts[y] + digit)
        for p in primes:
            rank, digit = divmod(rank, p)
            row.append(digit)
        coords.append(tuple(row))
    return blown + [complete_graph(p) for p in primes], coords


def _blow_up(core, starts):
    """``core`` with each vertex y replaced by a clique on the vertices
    starts[y] to starts[y + 1] - 1."""
    if starts[-1] == core.vertex_count:
        return core
    blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = [e for block in blocks for e in combinations(block, 2)]
    for y, z in core.edges():
        edges.extend(product(blocks[y], blocks[z]))
    return Graph(starts[-1], edges)


def _split_grown(graph, cache):
    """Split search for thin graphs without a universal vertex: boxes of
    the anchor's factored neighborhood grown into fiber candidates along
    the backbone and verified by extension."""
    n = graph.vertex_count
    degs = [graph.degree(v) for v in range(n)]
    anchor = max(range(n), key=lambda v: (degs[v], -v))
    balls = cache.on(graph)
    local = {}

    def neighborhood(v):
        coords = local.get(v)
        if coords is None:
            members, _, class_map, entry = balls.factor_ball(v, 1)
            coords = local[v] = {u: entry.rows[c] for u, c in zip(members, class_map)}
        return coords

    around = neighborhood(anchor)
    m = len(around[anchor])
    if m < 2:
        return None
    backbone_set = frozenset(backbone(graph))
    all_dirs = frozenset(range(m))
    for pick in range(1, 1 << (m - 1)):
        side = frozenset(i for i in range(m) if pick >> i & 1)
        seed_a = _box(around, anchor, side)
        seed_b = _box(around, anchor, all_dirs - side)
        cands_a = _grow_fiber_candidates(n, seed_a, len(seed_b), backbone_set, neighborhood)
        cands_b = _grow_fiber_candidates(n, seed_b, len(seed_a), backbone_set, neighborhood)
        for fa in cands_a:
            if n % len(fa):
                continue
            for fb in cands_b:
                if len(fa) * len(fb) != n or fa & fb != {anchor}:
                    continue
                phi = legacy_try_extension(graph, sorted(fa), sorted(fb), anchor)
                if phi is not None:
                    return sorted(fa), sorted(fb), phi
    return None
