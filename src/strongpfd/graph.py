"""Immutable simple-graph type with the neighborhood and traversal primitives.

Vertices are dense integers ``0..n-1``.  Adjacency is stored both as frozen
sets (membership tests) and sorted tuples (deterministic iteration).  Facts
derived from the immutable graph are computed at most once per instance: the
bitmask per closed neighborhood, connectivity and thinness.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Iterator

#: Ordered collection of vertex ids, always sorted ascending.
VertexSet = tuple[int, ...]

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph input: bad vertex ids, self-loops, broken format."""


class DisconnectedError(GraphError):
    """Raised by operations that require a connected graph."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph, immutable after construction.

    Duplicate edges in the input are collapsed; self-loops are rejected.
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._sorted = tuple(tuple(sorted(s)) for s in adj)

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    def vertices(self) -> range:
        return range(self._n)

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return self._sorted[v]

    def adjacency_set(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        if self._n == 0:
            return 0
        return max(len(s) for s in self._adj)

    def edges(self) -> Iterator[Edge]:
        for u in range(self._n):
            for v in self._sorted[u]:
                if v > u:
                    yield (u, v)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"invalid vertex id {v} for n={self._n}")

    # -- neighborhoods ---------------------------------------------------

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of the closed neighborhood N[v]."""
        masks = []
        for v in range(self._n):
            m = 1 << v
            for u in self._adj[v]:
                m |= 1 << u
            masks.append(m)
        return tuple(masks)

    @cached_property
    def thin(self) -> bool:
        """True iff no two vertices share a closed neighborhood."""
        return len(set(self.closed_masks)) == self._n

    def closed_neighborhood(self, v: int) -> VertexSet:
        """N[v] = N(v) together with v itself, ascending."""
        self._check_vertex(v)
        return tuple(sorted(self._adj[v] | {v}))

    def n_neighborhood(self, v: int, radius: int) -> VertexSet:
        """All vertices at distance at most ``radius`` from v, ascending."""
        self._check_vertex(v)
        if radius < 0:
            raise GraphError(f"radius must be nonnegative, got {radius}")
        seen = {v}
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        return tuple(sorted(seen))

    # -- distances and connectivity ---------------------------------------

    def distances_from(self, source: int) -> list[int]:
        """BFS distances from ``source``; unreachable vertices get -1."""
        self._check_vertex(source)
        dist = [-1] * self._n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance; raises if v is unreachable from u."""
        d = self.distances_from(u)[v]
        if d < 0:
            raise DisconnectedError(f"vertex {v} unreachable from {u}")
        return d

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        return self._n == 0 or self.distances_from(0).count(-1) == 0

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph induced by ``vertices``.

        Returns the new graph together with the old-to-new id mapping; new
        ids follow ascending old ids.
        """
        order = sorted(set(vertices))
        if not order:
            raise GraphError("induced subgraph of an empty vertex set")
        mapping = {}
        for new, old in enumerate(order):
            self._check_vertex(old)
            mapping[old] = new
        edges = []
        for old in order:
            for w in self._adj[old]:
                if w in mapping and w > old:
                    edges.append((mapping[old], mapping[w]))
        return Graph(len(order), edges), mapping

    def relabeled(self, perm: list[int]) -> "Graph":
        """Graph with vertex v renamed to perm[v]; perm must be a bijection."""
        if sorted(perm) != list(range(self._n)):
            raise GraphError("relabeling is not a permutation")
        return Graph(self._n, ((perm[u], perm[v]) for u, v in self.edges()))

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, tuple(frozenset(e) for e in self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.edge_count})"


# -- small named constructors used by tests, the CLI and the benchmark -----


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
