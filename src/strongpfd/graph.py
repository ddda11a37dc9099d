"""Immutable simple-graph type with the neighborhood and traversal primitives.

Vertices are dense integers ``0..n-1``.  Adjacency is stored both as frozen
sets (membership tests) and sorted tuples (deterministic iteration).  A graph
is built from an edge list or, with ``Graph.from_closed_masks``, straight
from its closed-neighborhood bitmasks.  Facts derived from the immutable
graph are computed at most once per instance: connectivity, thinness, the
vertices whose closed neighborhood is maximal and, on demand only, the
bitmask per closed neighborhood.  Thinness and the maximal vertices come
from one pass over the adjacency sets, which tests each vertex against its
neighbors alone, so an edge-built graph never pays for n-bit masks unless a
caller reads ``closed_masks``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Iterator

#: Ordered collection of vertex ids, always sorted ascending.
VertexSet = tuple[int, ...]

Edge = tuple[int, int]

# the digits of ``bin`` reversed, as 0/1 bytes that select vertex ids
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of the nonnegative ``mask``, ascending."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


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
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a nonnegative int, got {n!r}")
        adj: list[set[int]] = [set() for _ in range(n)]
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise GraphError(f"self-loop at vertex {u}")
                adj[u].add(v)
                adj[v].add(u)
        except TypeError as exc:
            # a vertex id that is not an int fails the range test or the
            # index, so valid input pays no per-edge type check
            raise GraphError(f"an edge is not a pair of int vertex ids: {exc}") from exc
        self._n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._sorted = tuple(tuple(sorted(s)) for s in adj)

    @classmethod
    def from_closed_masks(cls, masks: tuple[int, ...]) -> "Graph":
        """The graph whose closed neighborhoods are the bitmasks ``masks``.

        Each row is read straight off its mask, with no edge list, and
        ``masks`` becomes the graph's ``closed_masks``.  The masks must be
        symmetric and hold each vertex's own bit; they are not checked.
        """
        rows = tuple(tuple(mask_bits(m ^ 1 << v)) for v, m in enumerate(masks))
        graph = cls.__new__(cls)
        graph._n = len(masks)
        graph._adj = tuple(map(frozenset, rows))
        graph._sorted = rows
        graph.__dict__["closed_masks"] = masks
        return graph

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

    @property
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        """Every vertex's adjacency set, indexed by vertex id."""
        return self._adj

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

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
        """True iff no two vertices share a closed neighborhood.

        Read off ``closed_masks`` when the graph holds them already, else off
        the closed sets of the backbone pass.
        """
        masks = self.__dict__.get("closed_masks")
        if masks is not None:
            return len(set(masks)) == self._n
        return self._containment[0]

    @cached_property
    def maximal_vertices(self) -> VertexSet:
        """Vertices whose closed neighborhood lies inside no other vertex's.

        ``sclasses.backbone`` is this set on the graphs where the backbone
        is defined.
        """
        return self._containment[1]

    @cached_property
    def _containment(self) -> tuple[bool, VertexSet]:
        """Thinness and the maximal vertices, from one pass over the closed
        neighborhoods as sets, with no n-bit mask.

        Only a neighbor's closed neighborhood can contain N[v], since only
        it contains v, so each vertex is tested against its neighbors alone,
        by the early-exit subset test, and leaves at the first that covers
        it.  Twins are equal closed sets.
        """
        closed = [row | {v} for v, row in enumerate(self._adj)]
        maximal = []
        for v, row in enumerate(self._adj):
            own = closed[v]
            for u in row:
                if own <= closed[u]:
                    break
            else:
                maximal.append(v)
        return len(set(closed)) == self._n, tuple(maximal)

    def closed_neighborhood(self, v: int) -> VertexSet:
        """N[v] = N(v) together with v itself, ascending."""
        self._check_vertex(v)
        return tuple(sorted(self._adj[v] | {v}))

    def n_neighborhood(self, v: int, radius: int) -> VertexSet:
        """All vertices at distance at most ``radius`` from v, ascending."""
        self._check_vertex(v)
        if type(radius) is not int or radius < 0:
            raise GraphError(f"radius must be a nonnegative int, got {radius!r}")
        seen = {v}
        frontier = (v,)
        for _ in range(radius):
            nxt = set()
            for u in frontier:
                nxt |= self._adj[u]
            nxt -= seen
            if not nxt:
                break
            seen |= nxt
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
