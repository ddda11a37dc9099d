"""Exact prime factorization of small graphs under the strong product,
plus the neighborhood factorizer that feeds the coloring pipeline.

The split search fixes candidate fiber pairs through an anchor vertex and
tries to extend them to a full product bijection by constraint propagation
with backtracking; a verified extension is a factorization by construction.
Candidate generation has two routes:

* graphs that are thin and own a universal vertex (every closed neighborhood
  and every quotient of one is of this kind): candidate fibers are read off
  the neighborhood-containment order, giving a quadratic candidate set;
* everything else: enumeration of connected, isometric vertex subsets
  through a max-degree anchor, pruned by degree and edge-count laws.

Both routes are exact; the size cap only bounds running time.

Neighborhood factorization never builds a subgraph of the host: the classes
of N[v] and the key of its quotient come from ``sclasses.relative_quotient``
on the host's bitmasks, and ``factor_quotient`` builds and factors the
quotient graph only when its memo has no entry under that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import DisconnectedError, Edge, Graph, GraphError, VertexSet, edge_key
from .isomorphism import canonical_form
from .products import Coordinatization
from .sclasses import (
    NotThinError,
    QuotientResult,
    backbone,
    is_thin,
    quotient_graph,
    relative_quotient,
)

DEFAULT_SIZE_CAP = 24


class FactorSizeError(GraphError):
    """Input exceeds the configured factorization size cap."""


@dataclass(frozen=True)
class LocalFactorization:
    """Prime factors plus a coordinatization of the factored graph.

    Trivial one-vertex factors are omitted, so a one-vertex input yields an
    empty factor list.  ``coords`` is None only when a caller constructed
    the factorization without full coordinate information.
    """

    factors: tuple[Graph, ...]
    coords: Coordinatization | None

    @property
    def prime_count(self) -> int:
        return len(self.factors)


def rebuilds_strong_product(
    graph: Graph, coords: Sequence[tuple[int, ...]], factors: Sequence[Graph]
) -> bool:
    """Whether ``coords`` is an isomorphism from ``graph`` onto the strong
    product of ``factors``, in O(n·k + m·k).

    Once the coordinates are a bijection onto the product's vertices, every
    edge obeying the strong rule and every degree matching the product
    degree prod(deg_i + 1) - 1 leave no room for a missing or extra edge.
    """
    n = graph.vertex_count
    sizes = [f.vertex_count for f in factors]
    if len(coords) != n or math.prod(sizes) != n or len(set(coords)) != n:
        return False
    if any(
        len(c) != len(sizes) or not all(0 <= x < s for x, s in zip(c, sizes)) for c in coords
    ):
        return False
    masks = [f.closed_masks for f in factors]
    span = range(len(factors))
    for u, v in graph.edges():
        cu, cv = coords[u], coords[v]
        if not all(masks[i][cu[i]] >> cv[i] & 1 for i in span):
            return False
    degrees = [[f.degree(x) + 1 for x in f.vertices()] for f in factors]
    return all(
        math.prod(degrees[i][c[i]] for i in span) - 1 == graph.degree(u)
        for u, c in enumerate(coords)
    )


def reconstructs(graph: Graph, factorization: LocalFactorization) -> bool:
    """Edge-exact check that the factorization rebuilds ``graph``."""
    coords = factorization.coords
    if coords is None:
        return False
    return rebuilds_strong_product(graph, coords.coords, factorization.factors)


def factor_exact(graph: Graph, size_cap: int | None = DEFAULT_SIZE_CAP) -> LocalFactorization:
    """Complete prime factor decomposition of a connected graph.

    Factor order is normalized by (vertex count, canonical form); a result
    with fewer than two factors has nothing to order.  Raises
    FactorSizeError above ``size_cap`` and DisconnectedError on
    disconnected input.
    """
    n = graph.vertex_count
    if n == 0:
        raise GraphError("cannot factor an empty graph")
    if size_cap is not None and n > size_cap:
        raise FactorSizeError(f"graph has {n} vertices, size cap is {size_cap}")
    if not graph.is_connected():
        raise DisconnectedError("prime factorization requires a connected graph")
    factors, coords_rows = _pfd(graph)
    if len(factors) > 1:
        order = sorted(
            range(len(factors)),
            key=lambda i: (factors[i].vertex_count, canonical_form(factors[i])),
        )
        factors = [factors[i] for i in order]
        coords_rows = [tuple(row[i] for i in order) for row in coords_rows]
    coords = Coordinatization(tuple(f.vertex_count for f in factors), tuple(coords_rows))
    result = LocalFactorization(tuple(factors), coords)
    if not reconstructs(graph, result):
        raise RuntimeError("internal error: factorization failed verification")
    return result


def _pfd(graph: Graph) -> tuple[list[Graph], list[tuple[int, ...]]]:
    n = graph.vertex_count
    if n == 1:
        return [], [()]
    split = _find_split(graph)
    if split is None:
        return [graph], [(v,) for v in range(n)]
    fa, fb, phi = split
    ga, map_a = graph.induced_subgraph(fa)
    gb, map_b = graph.induced_subgraph(fb)
    factors_a, coords_a = _pfd(ga)
    factors_b, coords_b = _pfd(gb)
    coords: list[tuple[int, ...] | None] = [None] * n
    for (a, b), vertex in phi.items():
        coords[vertex] = coords_a[map_a[a]] + coords_b[map_b[b]]
    assert all(row is not None for row in coords)
    return factors_a + factors_b, coords  # type: ignore[return-value]


def _find_split(graph: Graph):
    n = graph.vertex_count
    if not any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        return None
    if is_thin(graph):
        if any(graph.degree(v) == n - 1 for v in graph.vertices()):
            return _split_via_containment(graph)
        return _split_grown(graph)
    return _split_blind(graph)


# -- candidate route 1: thin graphs with a universal vertex ------------------


def _split_via_containment(graph: Graph):
    """Candidate fibers from the closed-neighborhood containment order.

    In a thin product with a universal vertex, the set of vertices whose
    closed neighborhood lies inside N[u] is, for suitable u, exactly one
    fiber through one vertex; trying all pairs of such down-sets covers
    every factorization.
    """
    n = graph.vertex_count
    masks = graph.closed_masks
    down: list[frozenset[int]] = []
    for u in range(n):
        mu = masks[u]
        down.append(frozenset(v for v in range(n) if masks[v] | mu == mu))
    tried: set[frozenset[frozenset[int]]] = set()
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
            key = frozenset((p1, p2))
            if key in tried:
                continue
            tried.add(key)
            v0 = next(iter(inter))
            phi = _try_extension(graph, sorted(p2), sorted(p1), v0)
            if phi is not None:
                return sorted(p2), sorted(p1), phi
    return None


# -- candidate route 2: thin graphs without a universal vertex ----------------


def _local_box_data(graph: Graph, v: int, memo: dict[tuple[int, ...], FactoredQuotient]):
    """Quotient-factorization coordinates for the members of <N[v]>.

    Returns (member set, coords per member, local factor count).  Every
    member of one quotient class shares its coordinate tuple.  Only called
    for vertices whose own class is a singleton.
    """
    nf = factor_neighborhood(graph, v, memo=memo)
    rows = nf.factorization.coords.coords
    coords = {g: rows[nf.quotient.class_map[h]] for h, g in enumerate(nf.vertices)}
    return frozenset(nf.vertices), coords, nf.prime_count


def _box(members, coords, center, inside: frozenset[int]):
    """Members whose local coordinates agree with the center outside ``inside``."""
    cv = coords[center]
    span = range(len(cv))
    return frozenset(
        u
        for u in members
        if all(coords[u][i] == cv[i] for i in span if i not in inside)
    )


def _grow_fiber_candidates(
    graph: Graph,
    anchor: int,
    seed: frozenset[int],
    cross_box_size: int,
    backbone_set: frozenset[int],
    local_data,
) -> list[frozenset[int]]:
    """Grow fiber candidates from a seed box through the anchor.

    Backbone vertices of the growing set are expanded one by one: the local
    factor directions of their neighborhood that point along the fiber are
    inferred from already-known members, with branching over the directions
    that remain ambiguous.  The box complementary to a valid choice must
    have the same size as the seed's complementary box, which prunes almost
    every wrong branch.
    """
    results: set[frozenset[int]] = set()
    seen_states: set[tuple[frozenset[int], tuple[int, ...]]] = set()
    n = graph.vertex_count

    def rec(current: frozenset[int], pending: tuple[int, ...]) -> None:
        state = (current, pending)
        if state in seen_states:
            return
        seen_states.add(state)
        if not pending:
            results.add(current)
            return
        v, rest = pending[0], pending[1:]
        members, coords, m_v = local_data(v)
        cv = coords[v]
        forced: set[int] = set()
        for u in current & members:
            forced.update(i for i in range(m_v) if coords[u][i] != cv[i])
        free = [i for i in range(m_v) if i not in forced]
        for pick in range(1 << len(free)):
            inside = frozenset(forced | {free[j] for j in range(len(free)) if pick >> j & 1})
            if not inside or len(inside) == m_v:
                continue
            if len(_box(members, coords, v, frozenset(range(m_v)) - inside)) != cross_box_size:
                continue
            grown = current | _box(members, coords, v, inside)
            if len(grown) * 2 > n:
                continue
            fresh = sorted((grown & backbone_set) - current - set(rest) - {v})
            rec(grown, rest + tuple(fresh))

    rec(seed, tuple(sorted(seed & backbone_set)))
    return sorted(results, key=lambda s: (len(s), sorted(s)))


def _split_grown(graph: Graph):
    """Split search for thin graphs without a universal vertex.

    The anchor neighborhood is factored; every bipartition of its local
    factors seeds a pair of boxes through the anchor, which are grown into
    full fiber candidates along the backbone and verified by extension.
    """
    n = graph.vertex_count
    degs = [graph.degree(v) for v in range(n)]
    anchor = max(range(n), key=lambda v: (degs[v], -v))
    local_cache: dict[int, tuple] = {}
    quotients: dict[tuple[int, ...], FactoredQuotient] = {}

    def local_data(v: int):
        data = local_cache.get(v)
        if data is None:
            data = _local_box_data(graph, v, quotients)
            local_cache[v] = data
        return data

    members, coords, m = local_data(anchor)
    if m < 2:
        return None
    backbone_set = frozenset(backbone(graph))
    all_dirs = frozenset(range(m))
    for pick in range(1, 1 << (m - 1)):
        side = frozenset(i for i in range(m) if pick >> i & 1)
        seed_a = _box(members, coords, anchor, side)
        seed_b = _box(members, coords, anchor, all_dirs - side)
        cands_a = _grow_fiber_candidates(
            graph, anchor, seed_a, len(seed_b), backbone_set, local_data
        )
        cands_b = _grow_fiber_candidates(
            graph, anchor, seed_b, len(seed_a), backbone_set, local_data
        )
        for fa in cands_a:
            if n % len(fa):
                continue
            for fb in cands_b:
                if len(fa) * len(fb) != n or fa & fb != {anchor}:
                    continue
                phi = _try_extension(graph, sorted(fa), sorted(fb), anchor)
                if phi is not None:
                    return sorted(fa), sorted(fb), phi
    return None


# -- candidate route 3: blind anchored subset search (non-thin inputs) --------


def _split_blind(graph: Graph):
    n = graph.vertex_count
    degs = [graph.degree(v) for v in range(n)]
    top = max(degs)
    anchor = next(v for v in range(n) if degs[v] == top)
    dist = [graph.distances_from(v) for v in range(n)]
    for d in range(2, math.isqrt(n) + 1):
        if n % d:
            continue
        size_b = n // d
        for fa in _connected_isometric_subsets(graph, anchor, d, frozenset(range(n)), dist):
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
            for fb in _connected_isometric_subsets(graph, anchor, size_b, pool, dist):
                adj_b = {b: graph.adjacency_set(b) & fb for b in fb}
                if any((degs[b] + 1) != (len(adj_b[b]) + 1) * dwa for b in fb):
                    continue
                if quotient_deg != len(adj_b[anchor]) + 1:
                    continue
                mb = sum(len(s) for s in adj_b.values()) // 2
                if ((2 * ma + d) * (2 * mb + size_b) - d * size_b) // 2 != graph.edge_count:
                    continue
                phi = _try_extension(graph, sorted(fa), sorted(fb), anchor)
                if phi is not None:
                    return sorted(fa), sorted(fb), phi
    return None


def _connected_isometric_subsets(
    graph: Graph,
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
            if _is_isometric(graph, current, dist):
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


def _is_isometric(graph: Graph, subset: frozenset[int], dist: list[list[int]]) -> bool:
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


# -- bijection extension ------------------------------------------------------


def _induced_bfs(v0: int, members: list[int], adj: dict[int, frozenset[int]]):
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


def _try_extension(graph: Graph, fa: list[int], fb: list[int], v0: int):
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
        for b in fb:
            if b == v0:
                continue
            if graph.adjacent(a, b) != (a in near_a and b in near_b):
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

    def backtrack(idx: int) -> bool:
        if idx == len(pairs):
            return True
        pair = pairs[idx]
        a, b = pair
        u1 = phi[(parent_a[a], b)]
        u2 = phi[(a, parent_b[b])]
        cand_mask = masks[u1] & masks[u2]
        m = cand_mask
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if u in used:
                continue
            ok = True
            for q, placed in phi.items():
                if pair_adjacent(pair, q) != graph.adjacent(u, placed):
                    ok = False
                    break
            if ok:
                phi[pair] = u
                used.add(u)
                if backtrack(idx + 1):
                    return True
                del phi[pair]
                used.discard(u)
        return False

    if backtrack(0):
        return dict(phi)
    return None


# -- neighborhood factorization ----------------------------------------------


@dataclass(frozen=True)
class FactoredQuotient:
    """A quotient graph, its factorization and its Cartesian edges, listed
    as (qa, qb, factor index) in the order of ``graph.edges()``."""

    graph: Graph
    factorization: LocalFactorization
    cartesian_edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class NeighborhoodFactorization:
    """Factored quotient of one closed neighborhood plus the lifted edges.

    ``quotient`` numbers the members of N[center] by their position in
    ``vertices``.  ``lifted`` maps host-graph edges inside N[center] to a
    local factor index; an edge is lifted when its quotient image changes
    exactly one local coordinate and at least one endpoint class is a
    singleton.
    """

    center: int
    vertices: VertexSet
    quotient: QuotientResult
    factorization: LocalFactorization
    lifted: dict[Edge, int]

    @property
    def prime_count(self) -> int:
        return self.factorization.prime_count


def factor_quotient(
    masks: tuple[int, ...],
    size_cap: int | None = None,
    memo: dict[tuple[int, ...], FactoredQuotient] | None = None,
) -> FactoredQuotient:
    """``factor_exact`` of the quotient whose ``closed_masks`` are ``masks``,
    plus its Cartesian edges.

    ``masks`` fix the labelled quotient, as ``relative_quotient`` returns
    them; the graph is built only when the memo misses.  With ``memo`` the
    result is kept under ``masks``, so a labelled-equal quotient is neither
    built nor factored again.  Above ``size_cap`` the memo is bypassed, so
    the cap raises as it would without one.
    """
    capped = size_cap is not None and len(masks) > size_cap
    if memo is not None and not capped:
        entry = memo.get(masks)
        if entry is not None:
            return entry
    qgraph = quotient_graph(masks)
    fact = factor_exact(qgraph, size_cap=size_cap)
    edges: tuple[tuple[int, int, int], ...] = ()
    if len(fact.factors) == 1:  # the one coordinate changes along every edge
        edges = tuple((qa, qb, 0) for qa, qb in qgraph.edges())
    elif fact.factors:
        assert fact.coords is not None
        rows = fact.coords.coords
        found = []
        for qa, qb in qgraph.edges():
            changed = [i for i, (x, y) in enumerate(zip(rows[qa], rows[qb])) if x != y]
            if len(changed) == 1:
                found.append((qa, qb, changed[0]))
        edges = tuple(found)
    entry = FactoredQuotient(qgraph, fact, edges)
    if memo is not None:
        memo[masks] = entry
    return entry


def factor_neighborhood(
    graph: Graph,
    v: int,
    size_cap: int | None = None,
    memo: dict[tuple[int, ...], FactoredQuotient] | None = None,
) -> NeighborhoodFactorization:
    """Factor the quotient of <N[v]> and lift its identifiable product edges.

    The classes and the quotient's key come from ``relative_quotient`` on
    the host's bitmasks; no subgraph of the host is built.  ``memo`` is
    passed to ``factor_quotient``; the lifting always goes through this
    neighborhood's own classes and host ids.
    """
    if not is_thin(graph):
        raise NotThinError("neighborhood factorization requires a thin host graph")
    members = graph.closed_neighborhood(v)
    classes, class_map, masks = relative_quotient(graph, members)
    entry = factor_quotient(masks, size_cap, memo)
    lifted: dict[Edge, int] = {}
    for qa, qb, idx in entry.cartesian_edges:
        side_a = classes[qa]
        side_b = classes[qb]
        if len(side_a) != 1 and len(side_b) != 1:
            continue
        for ha in side_a:
            for hb in side_b:
                lifted[edge_key(members[ha], members[hb])] = idx
    quot = QuotientResult(entry.graph, class_map, classes)
    return NeighborhoodFactorization(v, members, quot, entry.factorization, lifted)
