"""Neighborhood-equivalence machinery: relative classes, thinness, quotient,
backbone, witnesses for the singleton-class edge condition, and the validity
gate of the backbone pipeline.

Two vertices are equivalent relative to a vertex subset H when their closed
neighborhoods intersected with H coincide.  The backbone is the set of
vertices whose closed neighborhood is strictly maximal; on thin connected
graphs it induces a connected dominating set.

``relative_quotient`` is the one quotient routine: it splits a vertex set
into its relative classes by the host's closed-neighborhood bitmasks and
returns the quotient's own closed masks, which fix the quotient as a
labelled graph, without building any graph.  ``quotient`` is that routine
over all vertices, and ``quotient_graph`` builds the graph from the masks.

``require_thin_connected`` is the one validity gate of the pipeline, whose
backbone is defined only on nonempty, connected, thin graphs; both facts are
memoized on the ``Graph``, so each entry point may call it at O(1) cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import DisconnectedError, Graph, GraphError, VertexSet


class NotThinError(GraphError):
    """Operation requires a thin graph (all global classes singletons)."""


@dataclass(frozen=True)
class SPartition:
    """Partition of ``host`` by the fingerprint N[x] intersected with host."""

    host: VertexSet
    classes: tuple[VertexSet, ...]
    class_index: dict[int, int] = field(compare=False)

    def class_of(self, v: int) -> VertexSet:
        return self.classes[self.class_index[v]]


@dataclass(frozen=True)
class QuotientResult:
    quotient: Graph
    class_map: tuple[int, ...]
    class_members: tuple[VertexSet, ...]


def relative_quotient(
    graph: Graph, members: VertexSet
) -> tuple[tuple[VertexSet, ...], tuple[int, ...], tuple[int, ...]]:
    """Classes of the sorted vertex set ``members`` relative to itself, read
    straight off the host's closed-neighborhood bitmasks.

    Two members share a class when N[u] intersected with ``members``
    coincides.  Returns (classes, class_map, masks): the classes as
    ascending positions in ``members``, numbered by their least position;
    each position's class; and the quotient's ``closed_masks``, which fix
    the quotient as a labelled graph.  No graph is built.
    """
    host_mask = 0
    for v in members:
        host_mask |= 1 << v
    masks = graph.closed_masks
    index: dict[int, int] = {}
    groups: list[list[int]] = []
    reps: list[int] = []
    class_map = []
    for pos, v in enumerate(members):
        key = masks[v] & host_mask
        c = index.get(key)
        if c is None:
            c = index[key] = len(groups)
            groups.append([pos])
            reps.append(v)
        else:
            groups[c].append(pos)
        class_map.append(c)
    # members of two classes are all adjacent or all apart, so the
    # representatives' adjacency decides the quotient's edges
    class_at = {r: c for c, r in enumerate(reps)}
    qmasks = []
    for c, r in enumerate(reps):
        qmask = 1 << c
        for w in graph.adjacency_set(r):
            d = class_at.get(w)
            if d is not None:
                qmask |= 1 << d
        qmasks.append(qmask)
    return tuple(tuple(g) for g in groups), tuple(class_map), tuple(qmasks)


def quotient_graph(masks: tuple[int, ...]) -> Graph:
    """The graph whose closed neighborhoods are ``masks``."""
    edges = []
    for u, m in enumerate(masks):
        m >>= u + 1
        while m:
            low = m & -m
            edges.append((u, u + low.bit_length()))
            m ^= low
    return Graph(len(masks), edges)


def relative_s_partition(graph: Graph, host: Iterable[int]) -> SPartition:
    """Group the vertices of ``host`` by their closed neighborhood within it."""
    members = tuple(sorted(set(host)))
    if not members:
        raise GraphError("relative partition of an empty host set")
    positions, _, _ = relative_quotient(graph, members)
    classes = tuple(tuple(members[p] for p in cls) for cls in positions)
    class_index = {v: i for i, cls in enumerate(classes) for v in cls}
    return SPartition(host=members, classes=classes, class_index=class_index)


def s_class_size(graph: Graph, z: int, x: int) -> int:
    """Size of the class of x relative to the closed neighborhood of z."""
    masks = graph.closed_masks
    zmask = masks[z]
    if not (zmask >> x) & 1:
        raise GraphError(f"vertex {x} is not in the closed neighborhood of {z}")
    target = masks[x] & zmask
    count = 0
    m = zmask
    while m:
        low = m & -m
        w = low.bit_length() - 1
        if masks[w] & zmask == target:
            count += 1
        m ^= low
    return count


def is_thin(graph: Graph) -> bool:
    """True iff no two vertices share a closed neighborhood (memoized)."""
    return graph.thin


def require_thin_connected(graph: Graph, purpose: str) -> None:
    """Raise unless ``graph`` is a valid input of the backbone pipeline.

    An empty graph raises GraphError, a disconnected one DisconnectedError
    and a non-thin one NotThinError, each saying what ``purpose`` requires.
    """
    if graph.vertex_count == 0:
        raise GraphError(f"{purpose} requires a nonempty graph")
    if not graph.is_connected():
        raise DisconnectedError(f"{purpose} requires a connected graph")
    if not is_thin(graph):
        raise NotThinError(f"{purpose} requires a thin graph; run the quotient first")


def quotient(graph: Graph) -> QuotientResult:
    """Collapse every global class to one vertex; the result is thin."""
    classes, class_map, masks = relative_quotient(graph, tuple(graph.vertices()))
    return QuotientResult(quotient_graph(masks), class_map, classes)


def backbone(graph: Graph) -> VertexSet:
    """Vertices whose closed neighborhood is strictly maximal.

    Equivalently the vertices whose own class relative to their neighborhood
    is a singleton.  Requires a nonempty thin connected graph.
    """
    require_thin_connected(graph, "backbone")
    masks = graph.closed_masks
    result = []
    for v in graph.vertices():
        mv = masks[v]
        if all(mv | masks[u] != masks[u] for u in graph.neighbors(v)):
            result.append(v)
    return tuple(result)


def s1_witness(
    graph: Graph,
    u: int,
    v: int,
    backbone_vertices: VertexSet | None = None,
) -> int | None:
    """Witness z with u, v in N[z] and a singleton class at u or v, if any.

    Backbone vertices are searched first in ascending order, then the rest,
    so a backbone witness is returned whenever one exists.
    """
    if not graph.adjacent(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    if not is_thin(graph):
        raise NotThinError("the singleton-class condition is defined on thin graphs")
    if backbone_vertices is None:
        backbone_vertices = backbone(graph)
    bset = set(backbone_vertices)
    masks = graph.closed_masks
    common = masks[u] & masks[v]
    candidates = []
    m = common
    while m:
        low = m & -m
        candidates.append(low.bit_length() - 1)
        m ^= low
    ordered = [z for z in candidates if z in bset] + [z for z in candidates if z not in bset]
    for z in ordered:
        if s_class_size(graph, z, u) == 1 or s_class_size(graph, z, v) == 1:
            return z
    return None
