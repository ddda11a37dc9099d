"""Colored Cartesian skeleton assembly: single-pass stitching of the lifted
edges of every backbone neighborhood, square merging of parallel fiber
colors, and the 2-neighborhood sweep for product edges that no
1-neighborhood can certify.

Every backbone neighborhood is factored once.  Each (center, local factor)
pair opens one raw color in a union-find; a lifted edge joins the raw colors
of all centers that lift it, and a diagonal-free square joins the colors of
its opposite edges.  The expensive 2-neighborhood sweep runs only when the
colored structure does not already verify as a product; on locally
unrefined inputs whose fibers are all witnessed it is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Edge, Graph, GraphError, edge_key
from .coloring import (
    STAGE_COMPLETION,
    STAGE_LIFT,
    STAGE_N2,
    NeighborhoodCache,
    PartialProductColoring,
    completion_sweep,
)
from .factorize import FactoredQuotient, FactorSizeError, factor_quotient
from .sclasses import NotThinError, backbone, is_thin, quotient


class SkeletonError(RuntimeError):
    """Skeleton construction failed; carries the originating diagnostic."""


class UnionFind:
    """Disjoint sets over dense integer ids, path compression + union by size."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.size: list[int] = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        self.size.append(1)
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


@dataclass
class ColoredSkeleton:
    """Final product coloring: every identified Cartesian edge with its color."""

    graph: Graph
    edge_color: dict[Edge, int]
    n_colors: int
    stage_of: dict[Edge, str]
    local_prime_counts: dict[int, int]
    n2_prime_counts: dict[int, int] = field(default_factory=dict)
    n2_ran: bool = False
    diagnostics: list[str] = field(default_factory=list)
    # product_coordinates(graph, edge_color, n_colors), computed during assembly
    verification: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def cartesian_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edge_color))

    def stage_counts(self) -> dict[str, int]:
        counts = {STAGE_LIFT: 0, STAGE_COMPLETION: 0, STAGE_N2: 0}
        for stage in self.stage_of.values():
            counts[stage] += 1
        return counts


def find_square(graph: Graph, e: Edge, f: Edge) -> tuple[int, int, int, int] | None:
    """The unique diagonal-free 4-cycle through two incident edges, if any.

    Returns (u, p, d, q) walking the cycle, where u is the shared endpoint;
    None when no such square exists or it is not unique.  Diagonals are
    checked against the edges of ``graph`` itself, so pass the skeleton
    subgraph when searching within identified product edges.
    """
    shared = set(e) & set(f)
    if len(shared) != 1:
        raise GraphError(f"edges {e} and {f} are not incident at one vertex")
    u = shared.pop()
    p = e[0] if e[1] == u else e[1]
    q = f[0] if f[1] == u else f[1]
    if graph.adjacent(p, q):
        return None
    candidates = [
        d
        for d in graph.adjacency_set(p) & graph.adjacency_set(q)
        if d != u and not graph.adjacent(d, u)
    ]
    if len(candidates) != 1:
        return None
    return (u, p, candidates[0], q)


def merge_parallel_colors(
    graph: Graph, edge_color: dict[Edge, int], uf: UnionFind
) -> int:
    """Union colors of opposite edges over every diagonal-free skeleton square.

    Iterates incident differently-colored edge pairs (ordered by shared
    vertex, then neighbor ids) until no merge fires.  Returns the number of
    unions performed.
    """
    skeleton = Graph(graph.vertex_count, edge_color.keys())
    merged_total = 0
    while True:
        merged = 0
        for u in skeleton.vertices():
            nbrs = skeleton.neighbors(u)
            for i, p in enumerate(nbrs):
                for q in nbrs[i + 1 :]:
                    ep, eq = edge_key(u, p), edge_key(u, q)
                    if uf.find(edge_color[ep]) == uf.find(edge_color[eq]):
                        continue
                    square = find_square(skeleton, ep, eq)
                    if square is None:
                        continue
                    _, sp, d, sq = square
                    if uf.union(edge_color[ep], edge_color[edge_key(sq, d)]):
                        merged += 1
                    if uf.union(edge_color[eq], edge_color[edge_key(sp, d)]):
                        merged += 1
        merged_total += merged
        if not merged:
            return merged_total


def n2_sweep(
    graph: Graph,
    edge_color: dict[Edge, int],
    uf: UnionFind,
    stage_of: dict[Edge, str],
    size_cap: int | None = None,
    targets: list[int] | None = None,
    memo: dict[tuple[int, ...], FactoredQuotient] | None = None,
) -> dict[int, int]:
    """Identify product edges inside 2-neighborhoods of under-colored vertices.

    For each target vertex (default: every vertex with an uncolored incident
    edge), the 2-neighborhood is factored through its quotient; the center's
    class is a singleton in a thin graph, so every product edge at the
    center is identified and gets a fresh raw color.  ``memo`` is passed to
    ``factor_quotient``.  Returns the per-vertex prime counts observed.
    """
    if targets is None:
        targets = [
            v
            for v in graph.vertices()
            if any(edge_key(v, w) not in edge_color for w in graph.neighbors(v))
        ]
    targets = sorted(targets)
    counts: dict[int, int] = {}
    fresh: dict[tuple[int, int], int] = {}
    for x in targets:
        members = graph.n_neighborhood(x, 2)
        sub, to_sub = graph.induced_subgraph(members)
        quot = quotient(sub)
        if size_cap is not None and quot.quotient.vertex_count > size_cap:
            raise SkeletonError(
                f"N2 sweep infeasible at this degree: quotient of the "
                f"2-neighborhood of {x} has {quot.quotient.vertex_count} vertices, "
                f"cap is {size_cap}"
            )
        try:
            fact, cartesian_edges = factor_quotient(quot.quotient, size_cap, memo)
        except FactorSizeError as exc:
            raise SkeletonError(f"N2 sweep infeasible at this degree: {exc}") from exc
        counts[x] = fact.prime_count
        qx = quot.class_map[to_sub[x]]
        if len(quot.class_members[qx]) != 1:
            raise SkeletonError(
                f"2-neighborhood class of {x} is not a singleton; host graph is not thin"
            )
        # edges come sorted, so the far ends of those at qx ascend
        for qa, qb, idx in cartesian_edges:
            if qx not in (qa, qb):
                continue
            for hy in quot.class_members[qb if qa == qx else qa]:
                edge = edge_key(x, members[hy])
                if edge in edge_color:
                    continue
                key = (x, idx)
                color = fresh.get(key)
                if color is None:
                    color = uf.add()
                    fresh[key] = color
                edge_color[edge] = color
                stage_of[edge] = STAGE_N2
    return counts


def _renumber(edge_color: dict[Edge, int], uf: UnionFind) -> tuple[dict[Edge, int], int]:
    final: dict[Edge, int] = {}
    relabel: dict[int, int] = {}
    for edge in sorted(edge_color):
        root = uf.find(edge_color[edge])
        if root not in relabel:
            relabel[root] = len(relabel)
        final[edge] = relabel[root]
    return final, len(relabel)


def _stitch_lifted_edges(
    graph: Graph,
    cache: NeighborhoodCache,
    uf: UnionFind,
    edge_color: dict[Edge, int],
    stage_of: dict[Edge, str],
) -> dict[int, int]:
    """Color the lifted edges of every backbone neighborhood in one pass and
    return the local prime counts.

    Local factor i of center v opens raw color ``first + i``; an edge takes
    the raw color of the first center that lifts it and is unioned with
    those of the later ones.  A lifted edge between two backbone vertices
    must also be lifted by the far neighborhood, which must have as many
    local factors, and no two local factors of one center may share a class.
    """
    anchors = backbone(graph)
    backbone_set = frozenset(anchors)
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    for v in anchors:
        nf = cache.get(v)
        count = counts[v] = nf.prime_count
        steps = [w for w in graph.neighbors(v) if w in backbone_set]
        steps = [w for w in steps if edge_key(v, w) in nf.lifted]
        for w in sorted(steps, key=lambda w: nf.lifted[edge_key(v, w)]):
            nw = cache.get(w)
            if nw.prime_count != count:
                raise SkeletonError(
                    f"neighborhood of {w} has {nw.prime_count} local factors, "
                    f"anchor {v} has {count}"
                )
            if edge_key(v, w) not in nw.lifted:
                raise SkeletonError(
                    f"no color continuation into the neighborhood of {w} "
                    f"through edge {edge_key(v, w)}"
                )
        first[v] = len(uf.parent)
        for _ in range(count):
            uf.add()
        for edge, idx in nf.lifted.items():
            color = first[v] + idx
            if edge_color.setdefault(edge, color) == color:
                stage_of[edge] = STAGE_LIFT
            else:
                uf.union(edge_color[edge], color)
    for v, base in first.items():
        if len({uf.find(base + i) for i in range(counts[v])}) != counts[v]:
            raise SkeletonError(
                f"two local factors of the neighborhood of {v} share one color; "
                "local factorizations are inconsistent"
            )
    return counts


def build_skeleton(
    graph: Graph,
    size_cap: int | None = None,
    cache: NeighborhoodCache | None = None,
) -> ColoredSkeleton:
    """Assemble the full colored skeleton of a thin connected graph.

    Factors every backbone neighborhood once and stitches their lifted edges
    in one pass, colors the edges pinched between two same-colored edges,
    merges colors across diagonal-free squares, and falls back to the
    2-neighborhood sweep when the result does not already verify as a
    product coloring.
    """
    if not graph.is_connected():
        raise GraphError("skeleton construction requires a connected graph")
    if not is_thin(graph):
        raise NotThinError("skeleton construction requires a thin graph")
    from .recognize import product_coordinates  # local import; recognizer uses us too

    if cache is None:
        cache = NeighborhoodCache(graph, size_cap)
    uf = UnionFind()
    edge_color: dict[Edge, int] = {}
    stage_of: dict[Edge, str] = {}
    counts = _stitch_lifted_edges(graph, cache, uf, edge_color, stage_of)
    coloring = PartialProductColoring(
        colors={edge: uf.find(c) for edge, c in edge_color.items()}, stages=stage_of
    )
    completion_sweep(graph, coloring)
    edge_color = coloring.colors
    merge_parallel_colors(graph, edge_color, uf)
    final, n_colors = _renumber(edge_color, uf)
    verification = product_coordinates(graph, final, n_colors)
    n2_ran = not verification[0]

    # The colored structure is not yet a product coloring: hunt for product
    # edges that have no witness in any 1-neighborhood.  Vertices sitting in
    # undersized fibers of some color are swept first; if that does not
    # repair the coloring, every under-colored vertex is swept.
    n2_counts: dict[int, int] = {}
    swept: set[int] = set()
    for attempt in range(2 if n2_ran else 0):
        if attempt == 0:
            targets = _undersized_fiber_vertices(graph, final, n_colors)
        else:
            targets = [
                v
                for v in graph.vertices()
                if any(edge_key(v, w) not in edge_color for w in graph.neighbors(v))
            ]
        targets = [v for v in targets if v not in swept]
        swept.update(targets)
        if targets:
            n2_counts.update(
                n2_sweep(
                    graph,
                    edge_color,
                    uf,
                    stage_of,
                    size_cap=size_cap,
                    targets=targets,
                    memo=cache.quotients,
                )
            )
            completion_sweep(graph, coloring, stage=STAGE_N2)
            merge_parallel_colors(graph, edge_color, uf)
            final, n_colors = _renumber(edge_color, uf)
        verification = product_coordinates(graph, final, n_colors)
        if verification[0]:
            break
    ok, _, _, diag = verification
    return ColoredSkeleton(
        graph=graph,
        edge_color=final,
        n_colors=n_colors,
        stage_of=dict(stage_of),
        local_prime_counts=counts,
        n2_prime_counts=n2_counts,
        n2_ran=n2_ran,
        diagnostics=[] if ok else list(diag),
        verification=verification,
    )


def _undersized_fiber_vertices(
    graph: Graph, edge_color: dict[Edge, int], n_colors: int
) -> list[int]:
    """Vertices lying in a smaller-than-maximal fiber of some color."""
    from .recognize import _color_components  # local import; recognizer uses us too

    targets: set[int] = set()
    for color in range(n_colors):
        comp, comps = _color_components(graph, edge_color, color)
        top = max(len(members) for members in comps)
        targets.update(v for v in graph.vertices() if len(comps[comp[v]]) < top)
    return sorted(targets)
