"""Neighborhood-equivalence machinery: relative classes, thinness, quotient,
backbone, and the validity gate of the backbone pipeline.

Two vertices are equivalent relative to a vertex subset H when their closed
neighborhoods intersected with H coincide.  The backbone is the set of
vertices whose closed neighborhood is strictly maximal; on thin connected
graphs it induces a connected dominating set.  Thinness and the backbone
are read off the ``Graph``, which finds both in one pass over its
adjacency sets, so neither builds the host's n-bit closed masks.

``classes_of`` is the one class routine: it splits vertices into classes by
their keys and returns the quotient's own closed masks, which fix the
quotient as a labelled graph, without building any graph.
``relative_quotient`` reads a vertex set's keys in the set's own positions,
once off each member's adjacency set, and passes them on, so no key is
wider than the set, whatever the host's size; the exact factorizer passes
a graph's closed masks.  ``quotient`` is ``relative_quotient`` over all
vertices and the one public door to the classes, whose quotient graph is
built straight off the masks.

``require_thin_connected`` is the one validity gate of the pipeline, whose
backbone is defined only on nonempty, connected, thin graphs; both facts are
memoized on the ``Graph``, so each entry point may call it at O(1) cost.
The backbone itself is memoized there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .graph import DisconnectedError, Graph, GraphError, VertexSet


class NotThinError(GraphError):
    """Operation requires a thin graph (all global classes singletons)."""


@dataclass(frozen=True)
class QuotientResult:
    quotient: Graph
    class_map: tuple[int, ...]
    class_members: tuple[VertexSet, ...]


def relative_quotient(
    graph: Graph, members: VertexSet
) -> tuple[tuple[VertexSet, ...], tuple[int, ...], tuple[int, ...]]:
    """Classes of the sorted vertex set ``members`` relative to itself, read
    in position space: each member is keyed by the bitmask of the positions
    in ``members`` of its closed neighborhood, taken from its adjacency set
    once, so a key has at most ``len(members)`` bits whatever the host's
    size.

    Two members share a class when N[u] intersected with ``members``
    coincides.  Returns (classes, class_map, masks): the classes as
    ascending positions in ``members``, numbered by their least position;
    each position's class; and the quotient's ``closed_masks``, which fix
    the quotient as a labelled graph, from ``classes_of``.  No graph is
    built, and the members, which must be vertex ids of ``graph``, are not
    checked.
    """
    bits = {v: 1 << pos for pos, v in enumerate(members)}
    bit_of, zeros, rows = bits.get, repeat(0), graph.adjacency_sets
    return classes_of([sum(map(bit_of, rows[v], zeros), bit) for v, bit in bits.items()])


def classes_of(
    keys: Sequence[int],
) -> tuple[tuple[VertexSet, ...], tuple[int, ...], tuple[int, ...]]:
    """The classes of the graph with closed masks ``keys``, the one class
    routine: vertices share a class when their keys coincide.

    Returns (classes, class_map, masks) as ``relative_quotient`` does: the
    classes as ascending positions, numbered by their least position; each
    position's class; and the quotient's closed masks.  The keys of a
    vertex set in its own positions are the closed masks of the subgraph
    it induces.

    When the keys are pairwise distinct, as on every 1-ball of a thin
    bounded-degree host, each class is a singleton numbered by its
    position and the keys are the masks, so they are returned at once,
    with no class loop; the loop would return exactly the same.
    """
    n = len(keys)
    if len(set(keys)) == n:
        # every class is a singleton, numbered by its position, and the
        # keys are the quotient's masks; zip makes the 1-tuples (pos,)
        return tuple(zip(range(n))), tuple(range(n)), tuple(keys)
    index: dict[int, int] = {}
    groups: list[list[int]] = []
    class_map = []
    for pos, key in enumerate(keys):
        c = index.get(key)
        if c is None:
            c = index[key] = len(groups)
            groups.append([pos])
        else:
            groups[c].append(pos)
        class_map.append(c)
    # members of two classes are all adjacent or all apart, so a class's
    # quotient mask is read off the least members in its least member's key
    least = sum(1 << group[0] for group in groups)
    masks = []
    for group in groups:
        key = keys[group[0]] & least
        mask = 0
        while key:
            low = key & -key
            mask |= 1 << class_map[low.bit_length() - 1]
            key ^= low
        masks.append(mask)
    return tuple(map(tuple, groups)), tuple(class_map), tuple(masks)


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
    return QuotientResult(Graph.from_closed_masks(masks), class_map, classes)


def backbone(graph: Graph) -> VertexSet:
    """Vertices whose closed neighborhood is strictly maximal.

    Equivalently the vertices whose own class relative to their neighborhood
    is a singleton.  Requires a nonempty thin connected graph.  Memoized on
    the ``Graph``, so all callers on one graph share one pass.
    """
    require_thin_connected(graph, "backbone")
    return graph.maximal_vertices
