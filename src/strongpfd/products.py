"""Strong and Cartesian graph products and their coordinatizations.

A coordinatization assigns every vertex of a product a tuple of factor
vertices.  Constructed products use row-major ranking: the last factor's
coordinate varies fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .graph import Graph, GraphError


@dataclass(frozen=True)
class Coordinatization:
    """Per-vertex factor coordinates for a (sub)product view of a graph."""

    factor_sizes: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {c: v for v, c in enumerate(self.coords)}
        if len(index) != len(self.coords):
            raise GraphError("coordinates are not distinct")
        for c in self.coords:
            if len(c) != len(self.factor_sizes):
                raise GraphError("coordinate tuple length does not match factor count")
            for x, size in zip(c, self.factor_sizes):
                if not (0 <= x < size):
                    raise GraphError(f"coordinate {c} out of range")
        object.__setattr__(self, "_index", index)

    @property
    def factor_count(self) -> int:
        return len(self.factor_sizes)

    def vertex_at(self, coord: tuple[int, ...]) -> int:
        return self._index[coord]


def _product_base(factors: Sequence[Graph]) -> tuple[tuple[int, ...], list[tuple[int, ...]], dict]:
    if not factors:
        raise GraphError("product of an empty factor list")
    sizes = tuple(f.vertex_count for f in factors)
    if any(s == 0 for s in sizes):
        raise GraphError("product factors must be nonempty")
    coords = list(itertools.product(*(range(s) for s in sizes)))
    index = {c: v for v, c in enumerate(coords)}
    return sizes, coords, index


def strong_product(factors: Sequence[Graph]) -> tuple[Graph, Coordinatization]:
    """Strong product: vertices adjacent iff every coordinate pair is equal or adjacent."""
    sizes, coords, index = _product_base(factors)
    closed = [
        [tuple(sorted(f.adjacency_set(x) | {x})) for x in f.vertices()] for f in factors
    ]
    edges = []
    for vid, c in enumerate(coords):
        for nb in itertools.product(*(closed[i][c[i]] for i in range(len(factors)))):
            uid = index[nb]
            if uid > vid:
                edges.append((vid, uid))
    graph = Graph(len(coords), edges)
    return graph, Coordinatization(sizes, tuple(coords))


def cartesian_product(factors: Sequence[Graph]) -> tuple[Graph, Coordinatization]:
    """Cartesian product: edges change exactly one coordinate to a neighbor."""
    sizes, coords, index = _product_base(factors)
    edges = []
    for vid, c in enumerate(coords):
        for i, f in enumerate(factors):
            for y in f.neighbors(c[i]):
                nb = c[:i] + (y,) + c[i + 1 :]
                uid = index[nb]
                if uid > vid:
                    edges.append((vid, uid))
    graph = Graph(len(coords), edges)
    return graph, Coordinatization(sizes, tuple(coords))


def cartesian_index(graph: Graph, coords: Coordinatization, u: int, v: int) -> int | None:
    """Factor index in which the edge (u, v) changes, or None if non-Cartesian.

    Cartesian means the endpoints differ in exactly one coordinate.
    """
    if not graph.adjacent(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    cu, cv = coords.coords[u], coords.coords[v]
    differing = [i for i in range(coords.factor_count) if cu[i] != cv[i]]
    if len(differing) == 1:
        return differing[0]
    return None


def cartesian_edge_set(graph: Graph, coords: Coordinatization) -> set[tuple[int, int]]:
    """All Cartesian edges of ``graph`` under ``coords``, as (min, max) pairs."""
    return {
        (u, v) for u, v in graph.edges() if cartesian_index(graph, coords, u, v) is not None
    }
