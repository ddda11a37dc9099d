"""Fiber coloring from a backbone anchor: covering BFS, color continuation,
and the completion sweep.

Starting from an anchor on the backbone, each local factor of the anchor's
neighborhood opens one color.  A restricted BFS walks backbone vertices
along same-colored product edges; every visited neighborhood is factored
and its lifted edges join the color through the edge back to the BFS
parent.  A final sweep colors fiber edges that no neighborhood could
identify directly but that are pinched between two same-colored edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graph import Edge, Graph, GraphError, VertexSet, edge_key
from .factorize import FactoredQuotient, NeighborhoodFactorization, factor_neighborhood
from .sclasses import backbone, require_thin_connected

STAGE_LIFT = "S1-local"
STAGE_COMPLETION = "completion"
STAGE_N2 = "N2-sweep"


class ColoringError(RuntimeError):
    """Color continuation or local factor structure broke down.

    This signals that the input is not locally unrefined; callers in the
    recognition pipeline turn it into a negative verdict.
    """


@dataclass
class NeighborhoodCache:
    """Memoized neighborhood factorizations of one graph, shared across
    anchors and colors.

    ``entries`` holds the factorization of each center's neighborhood.
    ``quotients`` is the memo of ``factor_quotient``: it maps a quotient's
    ``closed_masks``, which fix the labelled graph, to the quotient graph,
    its factorization and its Cartesian edges.  On bounded-degree products
    most neighborhoods have labelled-equal quotients, so each distinct one
    is built and factored once, and a hit builds no graph at all; every
    neighborhood still lifts through its own classes and host ids.  The N2
    sweep of ``build_skeleton`` shares the memo.  It lives as long as the
    cache, which serves one graph.
    """

    graph: Graph
    size_cap: int | None = None
    entries: dict[int, NeighborhoodFactorization] = field(default_factory=dict)
    quotients: dict[tuple[int, ...], FactoredQuotient] = field(default_factory=dict)

    def get(self, v: int) -> NeighborhoodFactorization:
        nf = self.entries.get(v)
        if nf is None:
            nf = factor_neighborhood(self.graph, v, size_cap=self.size_cap, memo=self.quotients)
            self.entries[v] = nf
        return nf


@dataclass(frozen=True)
class ColorInfo:
    anchor: int
    local_index: int


@dataclass
class PartialProductColoring:
    """Edge colors discovered so far, with per-color provenance and stages."""

    colors: dict[Edge, int] = field(default_factory=dict)
    palette: list[ColorInfo] = field(default_factory=list)
    stages: dict[Edge, str] = field(default_factory=dict)

    def new_color(self, anchor: int, local_index: int) -> int:
        self.palette.append(ColorInfo(anchor, local_index))
        return len(self.palette) - 1

    def assign(self, edge: Edge, color: int, stage: str) -> None:
        existing = self.colors.get(edge)
        if existing is None:
            self.colors[edge] = color
            self.stages[edge] = stage
        elif existing != color:
            raise ColoringError(
                f"edge {edge} assigned conflicting colors {existing} and {color}; "
                "local factorizations are inconsistent"
            )


@dataclass(frozen=True)
class CoveringSequence:
    """Backbone BFS order covering one fiber, with recorded parents."""

    anchor: int
    local_color: int
    vertices: VertexSet
    parents: dict[int, int]


def _bfs_one_color(
    graph: Graph,
    anchor: int,
    local_color: int,
    raw_color: int,
    cache: NeighborhoodCache,
    backbone_set: frozenset[int],
    coloring: PartialProductColoring,
    expected_count: int,
) -> CoveringSequence:
    """Run the color-restricted backbone BFS for one local color of the anchor.

    Seeds the anchor's lifted edges of that color, then walks backbone
    neighbors along edges already carrying the color, aligning each visited
    neighborhood's local factor through the parent edge.
    """
    nf_anchor = cache.get(anchor)
    for edge, idx in nf_anchor.lifted.items():
        if idx == local_color:
            coloring.assign(edge, raw_color, STAGE_LIFT)

    parents: dict[int, int] = {}
    visited = {anchor}
    sequence = [anchor]
    queue: deque[int] = deque()
    for w in graph.neighbors(anchor):
        if w in backbone_set and coloring.colors.get(edge_key(anchor, w)) == raw_color:
            parents.setdefault(w, anchor)
            queue.append(w)
    while queue:
        v = queue.popleft()
        if v in visited:
            continue
        visited.add(v)
        sequence.append(v)
        nf = cache.get(v)
        if nf.prime_count != expected_count:
            raise ColoringError(
                f"neighborhood of {v} has {nf.prime_count} local factors, "
                f"anchor {anchor} has {expected_count}"
            )
        continuation = nf.lifted.get(edge_key(parents[v], v))
        if continuation is None:
            raise ColoringError(
                f"no color continuation into the neighborhood of {v} "
                f"through edge {edge_key(parents[v], v)}"
            )
        for edge, idx in nf.lifted.items():
            if idx == continuation:
                coloring.assign(edge, raw_color, STAGE_LIFT)
        for w in graph.neighbors(v):
            if (
                w in backbone_set
                and w not in visited
                and coloring.colors.get(edge_key(v, w)) == raw_color
            ):
                parents.setdefault(w, v)
                queue.append(w)
    return CoveringSequence(anchor, local_color, tuple(sequence), parents)


def completion_sweep(
    graph: Graph,
    coloring: PartialProductColoring,
    colors: set[int] | None = None,
    stage: str = STAGE_COMPLETION,
) -> int:
    """Color uncolored edges pinched between two same-colored edges.

    An edge (v, w) joins color c when some z carries colored edges (z, v)
    and (z, w) of color c.  Runs to a fixpoint; returns how many edges were
    added.
    """
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.vertices()}
    worklist: deque[Edge] = deque()
    for edge in sorted(coloring.colors):
        c = coloring.colors[edge]
        if colors is not None and c not in colors:
            continue
        u, v = edge
        incident[u].append((v, c))
        incident[v].append((u, c))
        worklist.append(edge)
    added = 0
    while worklist:
        u, v = worklist.popleft()
        c = coloring.colors[(u, v)]
        for z, other in ((u, v), (v, u)):
            near = graph.adjacency_set(other)
            # appends below go to other's and w's lists, never to z's
            for w, cw in incident[z]:
                if cw != c or w == other:
                    continue
                edge = edge_key(other, w)
                if edge in coloring.colors or w not in near:
                    continue
                coloring.assign(edge, c, stage)
                incident[other].append((w, c))
                incident[w].append((other, c))
                worklist.append(edge)
                added += 1
    return added


def color_fibers_from(
    graph: Graph,
    anchor: int,
    backbone_vertices: VertexSet | None = None,
    cache: NeighborhoodCache | None = None,
    size_cap: int | None = None,
) -> PartialProductColoring:
    """Color every fiber through a backbone anchor, one color per local factor.

    Follows the anchored coloring procedure: factor the anchor neighborhood,
    open one color per local factor, run the color-restricted backbone BFS,
    and finish with the completion sweep.  Raises ColoringError when the
    continuation or the local factor counts break down, which means the
    graph is not locally unrefined.
    """
    require_thin_connected(graph, "fiber coloring")
    if backbone_vertices is None:
        backbone_vertices = backbone(graph)
    backbone_set = frozenset(backbone_vertices)
    if anchor not in backbone_set:
        raise GraphError(f"anchor {anchor} is not a backbone vertex")
    if cache is None:
        cache = NeighborhoodCache(graph, size_cap)

    coloring = PartialProductColoring()
    count = cache.get(anchor).prime_count
    for local_color in range(count):
        raw = coloring.new_color(anchor, local_color)
        _bfs_one_color(
            graph, anchor, local_color, raw, cache, backbone_set, coloring, count
        )
        completion_sweep(graph, coloring, colors={raw})
    return coloring


def backbone_bfs(
    graph: Graph,
    backbone_vertices: VertexSet,
    anchor: int,
    local_color: int,
    cache: NeighborhoodCache | None = None,
) -> CoveringSequence:
    """The covering BFS for one local color, exposed on its own.

    Runs against a throwaway coloring; the sequence lists the backbone
    vertices of the anchor's fiber in visiting order.
    """
    if cache is None:
        cache = NeighborhoodCache(graph)
    backbone_set = frozenset(backbone_vertices)
    if anchor not in backbone_set:
        raise GraphError(f"anchor {anchor} is not a backbone vertex")
    nf = cache.get(anchor)
    if not (0 <= local_color < nf.prime_count):
        raise GraphError(
            f"local color {local_color} out of range for anchor {anchor} "
            f"({nf.prime_count} local factors)"
        )
    coloring = PartialProductColoring()
    raw = coloring.new_color(anchor, local_color)
    return _bfs_one_color(
        graph, anchor, local_color, raw, cache, backbone_set, coloring, nf.prime_count
    )
