"""Colored Cartesian skeleton assembly and product verification:
single-pass stitching of the lifted edges of every backbone neighborhood,
square merging of parallel fiber colors, the 2-neighborhood sweep for
product edges that no 1-neighborhood can certify, and the per-color fiber
components whose coordinates must rebuild the graph.

Every backbone neighborhood is factored once.  Each (center, local factor)
pair opens one raw color in a union-find; a lifted edge joins the raw colors
of all centers that lift it, and a diagonal-free square joins the colors of
its opposite edges.  The expensive 2-neighborhood sweep runs only when the
colored structure does not already verify as a product; on locally
unrefined inputs whose fibers are all witnessed it is skipped.
``fiber_components`` is the one routine that splits a coloring into its
fibers; ``product_coordinates`` reads the factors and coordinates off them.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
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
from .factorize import (
    FactoredQuotient,
    FactorSizeError,
    factor_quotient,
    rebuilds_strong_product,
)
from .sclasses import backbone, relative_quotient, require_thin_connected


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
    adj = graph.adjacency_set
    d = _far_corner(u, q, adj(u), adj(p), adj(q))
    return None if d is None else (u, p, d, q)


def _far_corner(
    u: int, q: int, near_u: frozenset[int], near_p: frozenset[int], near_q: frozenset[int]
) -> int | None:
    """The corner d of the unique diagonal-free square u-p-d-q, given the
    neighborhoods of u, p and q, or None."""
    if q in near_p:
        return None
    candidates = [d for d in near_p & near_q if d != u and d not in near_u]
    return candidates[0] if len(candidates) == 1 else None


def merge_parallel_colors(
    graph: Graph, edge_color: dict[Edge, int], uf: UnionFind
) -> int:
    """Union colors of opposite edges over every diagonal-free skeleton square.

    Iterates incident differently-colored edge pairs (ordered by shared
    vertex, then neighbor ids) until no merge fires.  Returns the number of
    unions performed; with one root left there is nothing to merge.
    """
    if len({uf.find(c) for c in set(edge_color.values())}) < 2:
        return 0
    skeleton = Graph(graph.vertex_count, edge_color.keys())
    adj = [skeleton.adjacency_set(v) for v in skeleton.vertices()]
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
                    d = _far_corner(u, q, adj[u], adj[p], adj[q])
                    if d is None:
                        continue
                    if uf.union(edge_color[ep], edge_color[edge_key(q, d)]):
                        merged += 1
                    if uf.union(edge_color[eq], edge_color[edge_key(p, d)]):
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
    edge), the 2-neighborhood is factored through its quotient, read off the
    host's bitmasks by ``relative_quotient``; the center's class is a
    singleton in a thin graph, so every product edge at the center is
    identified and gets a fresh raw color.  ``memo`` is passed to
    ``factor_quotient``.  Returns the per-vertex prime counts observed.
    """
    if targets is None:
        targets = _undercolored_vertices(graph, edge_color)
    targets = sorted(targets)
    counts: dict[int, int] = {}
    fresh: dict[tuple[int, int], int] = {}
    for x in targets:
        members = graph.n_neighborhood(x, 2)
        classes, class_map, masks = relative_quotient(graph, members)
        if size_cap is not None and len(masks) > size_cap:
            raise SkeletonError(
                f"N2 sweep infeasible at this degree: quotient of the "
                f"2-neighborhood of {x} has {len(masks)} vertices, "
                f"cap is {size_cap}"
            )
        try:
            entry = factor_quotient(masks, size_cap, memo)
        except FactorSizeError as exc:
            raise SkeletonError(f"N2 sweep infeasible at this degree: {exc}") from exc
        counts[x] = entry.factorization.prime_count
        qx = class_map[members.index(x)]
        if len(classes[qx]) != 1:
            raise SkeletonError(
                f"2-neighborhood class of {x} is not a singleton; host graph is not thin"
            )
        # edges come sorted, so the far ends of those at qx ascend
        for qa, qb, idx in entry.cartesian_edges:
            if qx not in (qa, qb):
                continue
            for hy in classes[qb if qa == qx else qa]:
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
    require_thin_connected(graph, "skeleton construction")
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
            targets = _undercolored_vertices(graph, edge_color)
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
    _, comps_of, _ = fiber_components(graph, edge_color, n_colors)
    targets: set[int] = set()
    for comps in comps_of:
        top = max(len(members) for members in comps)
        targets.update(v for members in comps if len(members) < top for v in members)
    return sorted(targets)


def _undercolored_vertices(graph: Graph, edge_color: dict[Edge, int]) -> list[int]:
    """Vertices with an uncolored incident edge, ascending."""
    return [
        v
        for v in graph.vertices()
        if any(edge_key(v, w) not in edge_color for w in graph.neighbors(v))
    ]


# -- product verification --------------------------------------------------------


def fiber_components(
    graph: Graph, edge_color: dict[Edge, int], n_colors: int
) -> tuple[list[list[int]], list[list[list[int]]], list[list[list[int]]]]:
    """The fibers of colors 0..n_colors-1: the connected components of each
    color's edges, isolated vertices becoming singletons.

    Returns (comp, comps, nbrs), each indexed by color first: ``comp[c][v]``
    is the id of the c-fiber through v, ``comps[c][k]`` the ascending
    members of c-fiber k, and ``nbrs[c][v]`` the neighbors of v along
    c-colored edges.  Fibers are numbered by their least vertex.  One pass
    over ``edge_color`` fills every color; edges of other colors are
    ignored.
    """
    n = graph.vertex_count
    adjacency: dict[int, list[list[int]]] = {c: [[] for _ in range(n)] for c in range(n_colors)}
    for (u, v), c in edge_color.items():
        adj = adjacency.get(c)
        if adj is not None:
            adj[u].append(v)
            adj[v].append(u)
    nbrs = list(adjacency.values())
    comp_of: list[list[int]] = []
    comps_of: list[list[list[int]]] = []
    for adj in nbrs:
        comp = [-1] * n
        comps: list[list[int]] = []
        for v in range(n):
            if comp[v] >= 0:
                continue
            k = comp[v] = len(comps)
            members = [v]
            for u in members:  # grows while it is read: a breadth-first search
                for w in adj[u]:
                    if comp[w] < 0:
                        comp[w] = k
                        members.append(w)
            members.sort()
            comps.append(members)
        comp_of.append(comp)
        comps_of.append(comps)
    return comp_of, comps_of, nbrs


def product_coordinates(
    graph: Graph, edge_color: dict[Edge, int], n_colors: int
) -> tuple[bool, list[tuple[int, ...]] | None, list[Graph] | None, list[str]]:
    """Derive per-vertex factor coordinates from a product coloring.

    For every color the fibers are its edge components; the fiber through
    vertex 0 is the reference factor, and coordinates of other fibers are
    carried over by parallel transport along edges of the other colors,
    visiting each vertex's colored neighbors in ascending order.  Returns
    (ok, coords, factors, diagnostics); when ok, the coordinates rebuild the
    graph edge-exactly.
    """
    n = graph.vertex_count
    if n_colors == 0:
        if n == 1 and graph.edge_count == 0:
            return True, [()], [], []
        return False, None, None, ["no colors but the graph is larger than one vertex"]

    comp_of, comps_of, nbrs = fiber_components(graph, edge_color, n_colors)
    # fiber 0 of every color passes through vertex 0
    ref_sets = [comps[0] for comps in comps_of]
    for c, comps in enumerate(comps_of):
        sizes = {len(members) for members in comps}
        if sizes != {len(ref_sets[c])}:
            return False, None, None, [f"color {c} has fibers of unequal sizes {sorted(sizes)}"]
    if math.prod(len(r) for r in ref_sets) != n:
        return False, None, None, ["reference fiber sizes do not multiply to the vertex count"]

    # On a coloring that is not a product, the path that first reaches a fiber
    # decides whether transport fails; a fixed neighbor order keeps the
    # verdict and the diagnostic independent of the order of ``edge_color``.
    incident = [
        sorted((v, d) for d, adj in enumerate(nbrs) for v in adj[u]) for u in graph.vertices()
    ]
    # parallel transport of each color's fiber onto the reference fiber
    position: list[dict[int, int]] = []
    for c in range(n_colors):
        comp = comp_of[c]
        comps = comps_of[c]
        psi: dict[int, int] = {v: i for i, v in enumerate(ref_sets[c])}
        known = {0}
        queue = deque([0])
        while queue:
            k = queue.popleft()
            for u in comps[k]:
                for v, d in incident[u]:
                    if d == c:
                        continue
                    k2 = comp[v]
                    if k2 in known:
                        continue
                    mapped: dict[int, int] = {}
                    ok = True
                    for w in comps[k2]:
                        back = [t for t in nbrs[d][w] if comp[t] == k]
                        if len(back) != 1 or back[0] not in psi:
                            ok = False
                            break
                        mapped[w] = psi[back[0]]
                    if not ok:
                        return False, None, None, [
                            f"fiber transport failed between components of color {c}"
                        ]
                    psi.update(mapped)
                    known.add(k2)
                    queue.append(k2)
        if len(known) != len(comps):
            return False, None, None, [f"fibers of color {c} are not connected by other colors"]
        position.append(psi)

    coords = [tuple(position[c][v] for c in range(n_colors)) for v in range(n)]
    if len(set(coords)) != n:
        return False, None, None, ["coordinate map is not a bijection"]

    factors = [graph.induced_subgraph(ref)[0] for ref in ref_sets]
    if not rebuilds_strong_product(graph, coords, factors):
        u, v = _first_mismatch(graph, coords, factors)
        return False, None, None, [f"edge-exact reconstruction failed at pair ({u}, {v})"]
    return True, coords, factors, []


def _first_mismatch(
    graph: Graph, coords: list[tuple[int, ...]], factors: list[Graph]
) -> tuple[int, int]:
    """The least pair u < v whose adjacency disagrees with the strong rule on
    its coordinates, which must be a bijection onto the product's vertices.

    Reads each vertex's product neighbors off its coordinates, so the cost
    is the product's edge count rather than n².
    """
    index = {c: v for v, c in enumerate(coords)}
    closed = [[(x,) + f.neighbors(x) for x in f.vertices()] for f in factors]
    for u, cu in enumerate(coords):
        near = {index[c] for c in itertools.product(*(closed[i][x] for i, x in enumerate(cu)))}
        near.discard(u)
        later = [v for v in near.symmetric_difference(graph.adjacency_set(u)) if v > u]
        if later:
            return u, min(later)
    raise ValueError("the coordinates rebuild the graph")
