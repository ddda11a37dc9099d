"""Colored Cartesian skeleton assembly and product verification:
single-pass stitching of the lifted edges of every backbone neighborhood,
square merging of parallel fiber colors as the fallback for a stitched
coloring that does not already verify, the 2-neighborhood sweep for
product edges that no 1-neighborhood can certify, and the per-color fiber
components whose coordinates must rebuild the graph.

All stages take the graph's ``NeighborhoodCache``: the backbone
neighborhoods and the 2-neighborhoods of the sweep are factored through it,
under its one size cap and quotient memo, so a cap overflow anywhere raises
the same FactorSizeError.  Every backbone neighborhood is factored once.
All stages work on one ``PartialProductColoring``: each (center, local
factor) pair opens one raw color in its parent list, a lifted edge joins the
raw colors of all centers that lift it, and a diagonal-free square joins the
colors of its opposite edges.  Lifted edges between backbone vertices pass
the same continuation check as the anchored coloring of ``pfd_fast``.  The
state stores no stage per edge; ``build_skeleton`` reads each edge's stage
off the order in which the edges were colored.

The local prime counts are read before anything is lifted, off the memo
entries' coordinate rows.  An entry walks its Cartesian edges, those whose
ends' rows differ in one coordinate, off the quotient's closed masks when
it is first lifted, so a prime quotient's are all its edges with index 0;
the N2 sweep lifts its 2-neighborhoods by the same rule, through
``factor_neighborhood``.  When
every backbone count is 1, the stitch provably gives one color on the union
of the lifted edges: a backbone center is a singleton class of its ball, so
every continuation check passes and adjacent backbone centers share their
edge, and the backbone induces a connected subgraph.  That union is then
stamped with one color and no ball is lifted (``_stitch_lifted_edges``).
The stitched coloring is verified before any square is merged: when it reads
as a product coloring, every edge already changes exactly its own color's
coordinate, so the unique-square property of the Cartesian skeleton leaves
the merge nothing to unite, and it is skipped on that verdict alone.  The
expensive 2-neighborhood sweep runs only when the colored structure does
not already verify as a product; on locally unrefined inputs whose fibers
are all witnessed it is skipped.  ``fiber_components`` is the one routine
that splits a whole coloring into its fibers (``pfd_fast`` walks only the
fibers through its anchor); ``product_coordinates`` takes the
factors off the reference fibers and reads each coordinate off a layer,
the component of a vertex among the edges of every other color.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .graph import Edge, Graph, edge_key
from .coloring import (
    STAGE_COMPLETION,
    STAGE_LIFT,
    STAGE_N2,
    NeighborhoodCache,
    PartialProductColoring,
    SkeletonError,
    color_continuation,
    completion_sweep,
)
from .factorize import FactorSizeError, factor_neighborhood, rebuilds_strong_product
from .sclasses import backbone, require_thin_connected


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

    def to_dict(self) -> dict:
        """The skeleton's JSON form: colored edges, color count, edges per
        stage and whether the N2 sweep ran."""
        return {
            "cartesian_edges": [[u, v, self.edge_color[(u, v)]] for u, v in self.cartesian_edges],
            "n_colors": self.n_colors,
            "stages": self.stage_counts(),
            "n2_ran": self.n2_ran,
        }


def _far_corner(
    u: int, q: int, near_u: frozenset[int], near_p: frozenset[int], near_q: frozenset[int]
) -> int | None:
    """The corner d of the unique diagonal-free square u-p-d-q, given the
    neighborhoods of u, p and q, or None."""
    if q in near_p:
        return None
    candidates = [d for d in near_p & near_q if d != u and d not in near_u]
    return candidates[0] if len(candidates) == 1 else None


def merge_parallel_colors(graph: Graph, coloring: PartialProductColoring) -> int:
    """Union colors of opposite edges over every diagonal-free square of the
    skeleton, the subgraph of the colored edges, in one pass.

    Visits incident differently-colored edge pairs (ordered by shared
    vertex, then neighbor ids) once.  Returns the number of unions
    performed; with one root left there is nothing to merge.  A second pass
    could unite nothing, so none runs: unions never split a set, so a pair
    skipped because its two edges share a root still shares it; a pair not
    skipped has already made both of its unions; and the far corner of a
    pair is read off the skeleton, which the call does not change.
    """
    edge_color = coloring.colors
    find, union = coloring.find, coloring.union
    if len({find(c) for c in set(edge_color.values())}) < 2:
        return 0
    skeleton = Graph(graph.vertex_count, edge_color.keys())
    adj = [skeleton.adjacency_set(v) for v in skeleton.vertices()]
    merged = 0
    for u in skeleton.vertices():
        nbrs = skeleton.neighbors(u)
        for i, p in enumerate(nbrs):
            for q in nbrs[i + 1 :]:
                ep, eq = edge_key(u, p), edge_key(u, q)
                if find(edge_color[ep]) == find(edge_color[eq]):
                    continue
                d = _far_corner(u, q, adj[u], adj[p], adj[q])
                if d is None:
                    continue
                merged += union(edge_color[ep], edge_color[edge_key(q, d)])
                merged += union(edge_color[eq], edge_color[edge_key(p, d)])
    return merged


def n2_sweep(
    coloring: PartialProductColoring,
    cache: NeighborhoodCache,
    targets: list[int],
) -> dict[int, int]:
    """Identify product edges inside 2-neighborhoods of under-colored vertices.

    For each target vertex x of ``cache.graph``, the 2-neighborhood is
    factored and lifted through ``factor_neighborhood``, under the cache's
    size cap and quotient memo, which refuses a host that is not thin
    (NotThinError).  x is a singleton class of its 2-ball, so every product
    edge at x is lifted; each one not yet colored gets a fresh raw color per
    local factor of x.  Returns the per-vertex prime counts observed.
    """
    edge_color = coloring.colors
    counts: dict[int, int] = {}
    for x in sorted(targets):
        nf = factor_neighborhood(cache, x, 2)
        counts[x] = nf.prime_count
        fresh: dict[int, int] = {}
        for w in cache.graph.neighbors(x):
            edge = edge_key(x, w)
            idx = nf.lifted.get(edge)
            if idx is not None and edge not in edge_color:
                if idx not in fresh:
                    fresh[idx] = coloring.new_color()
                edge_color[edge] = fresh[idx]
    return counts


def _renumber(coloring: PartialProductColoring) -> tuple[dict[Edge, int], int]:
    """Dense final colors: the roots numbered in order of their least edge."""
    edge_color, find = coloring.colors, coloring.find
    final: dict[Edge, int] = {}
    relabel: dict[int, int] = {}
    for edge in sorted(edge_color):
        root = find(edge_color[edge])
        if root not in relabel:
            relabel[root] = len(relabel)
        final[edge] = relabel[root]
    return final, len(relabel)


def _stitch_lifted_edges(
    cache: NeighborhoodCache, coloring: PartialProductColoring
) -> dict[int, int]:
    """Color the lifted edges of every backbone neighborhood in one pass and
    return the local prime counts.

    The counts are read first, off each backbone ball with no lifting
    (``NeighborhoodCache.count``).  When every count is 1 the stitched
    coloring is one color on the union of the lifted edges, so that union
    is stamped with one raw color (``_stitch_one_color``).  Any other count,
    or a FactorSizeError while they are read, sends the general loop
    (``_stitch_each_center``) over the balls already read, so no ball is
    classified twice and an error is raised where that loop meets it.

    Why one color when every count is 1.  A prime quotient lifts every
    edge at a singleton class with index 0, and a backbone center is a
    singleton class of its own ball, so it lifts every edge at itself.  So
    every continuation check passes, each center's lifted edges join its
    one raw color, and two adjacent backbone centers both lift the edge
    between them, which joins their raw colors.  The backbone B(G) of a
    thin connected graph induces a connected subgraph: each vertex u has
    N[u] inside N[b] for some b in B(G), as containment is a partial order
    on the closed neighborhoods of a thin graph.  Replace each vertex u_i
    of a path between two backbone vertices by such a b_i; since u_i lies
    in N[u_(i+1)], which lies inside N[b_(i+1)], b_(i+1) lies in N[u_i]
    and hence in N[b_i], so consecutive b_i are equal or adjacent and the
    b_i form a walk in <B(G)>.  So all raw colors are one, and the general
    loop would color that same union with one color.
    """
    anchors = backbone(cache.graph)
    try:
        prime = all(cache.count(v) == 1 for v in anchors)
    except FactorSizeError:
        prime = False
    if prime:
        _stitch_one_color(cache, coloring)
        return dict.fromkeys(anchors, 1)
    return _stitch_each_center(cache, coloring)


def _stitch_one_color(cache: NeighborhoodCache, coloring: PartialProductColoring) -> None:
    """Stamp the union of the lifted edges of the backbone balls, every one
    of them prime, with one raw color.

    A prime ball lifts exactly its edges at a singleton class.  A center is
    a singleton class of its own ball, so the union holds every edge at a
    backbone vertex, and beyond those only a singleton member a off the
    backbone adds anything: its neighbors inside the ball.  Each edge of the
    union is stamped once; no lifted-edge dict is built per center and no
    host-wide mask is read.  The balls were read by ``count`` and are
    dropped here; a ball lifted before is read again.
    """
    anchors = backbone(cache.graph)
    on_backbone = frozenset(anchors)
    rows = cache.graph.adjacency_sets
    near = {v: rows[v] for v in anchors}
    for v in anchors:
        members, classes, _, _ = cache.balls.pop(v, None) or cache.factor_ball(v, 1)
        for cls in classes:
            a = members[cls[0]]
            if len(cls) == 1 and a not in on_backbone:
                near[a] = near.get(a, frozenset()) | rows[a].intersection(members)
    lifted = {(a, b) if a < b else (b, a) for a, ends in near.items() for b in ends}
    color = coloring.new_color()
    coloring.colors.update(dict.fromkeys(lifted, color))


def _stitch_each_center(
    cache: NeighborhoodCache, coloring: PartialProductColoring
) -> dict[int, int]:
    """The general stitch: lift every backbone neighborhood and color its
    lifted edges, and return the local prime counts.

    Each local factor of center v opens one raw color; an edge takes the
    raw color of the first center that lifts it, and each later center that
    lifts it unions that raw color with its own.  A lifted edge between two
    backbone vertices must pass the continuation check into the far
    neighborhood, and no two local factors of one center may share a class.
    """
    graph = cache.graph
    anchors = backbone(graph)
    backbone_set = frozenset(anchors)
    edge_color = coloring.colors
    find, union, new_color = coloring.find, coloring.union, coloring.new_color
    counts: dict[int, int] = {}
    opened: dict[int, list[int]] = {}
    for v in anchors:
        nf = cache.get(v)
        count = counts[v] = nf.prime_count
        lifted = nf.lifted
        steps = [w for w in graph.neighbors(v) if w in backbone_set and edge_key(v, w) in lifted]
        for w in sorted(steps, key=lambda w: lifted[edge_key(v, w)]):
            color_continuation(cache, nf, v, w)
        raw = opened[v] = [new_color() for _ in range(count)]
        for edge, idx in lifted.items():
            color = raw[idx]
            first = edge_color.setdefault(edge, color)
            if first != color:
                union(first, color)
    for v, raw in opened.items():
        if len({find(c) for c in raw}) != len(raw):
            raise SkeletonError(
                f"two local factors of the neighborhood of {v} share one color; "
                "local factorizations are inconsistent"
            )
    return counts


def build_skeleton(cache: NeighborhoodCache) -> ColoredSkeleton:
    """Assemble the full colored skeleton of the thin connected graph
    ``cache.graph``, factoring every neighborhood through ``cache``.

    Factors every backbone neighborhood once and stitches their lifted edges
    in one pass, colors the edges pinched between two same-colored edges and
    verifies the result; colors are merged across diagonal-free squares
    only when that coloring does not already verify (``_settle``).  When
    the result is still not a product coloring, the 2-neighborhood sweep
    runs, and each of its rounds ends in the same verify-then-merge step.

    Each edge's stage is read off its place in ``coloring.colors``, given
    the two lengths recorded after the stitch and after the first sweep:
    the edges before the first mark are lifted, those up to the second are
    completed, and later ones are found by the N2 sweep.  This is exact
    because every write to the colors adds a key or leaves an equal one:
    ``assign`` adds an edge or raises, the general stitch uses
    ``setdefault``, the one-color stitch fills a fresh coloring, the N2
    sweep and ``completion_sweep`` color only uncolored edges, and the
    resolution to roots below rebuilds the dict in its order.  So an edge
    keeps the place where it was first colored, and the stages run in
    order.
    """
    graph = cache.graph
    require_thin_connected(graph, "skeleton construction")
    coloring = PartialProductColoring()
    counts = _stitch_lifted_edges(cache, coloring)
    find = coloring.find
    coloring.colors = {edge: find(c) for edge, c in coloring.colors.items()}
    lifted = len(coloring.colors)
    completion_sweep(graph, coloring)
    completed = len(coloring.colors)
    final, n_colors, verification = _settle(graph, coloring)
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
            targets = _undercolored_vertices(graph, coloring.colors)
        targets = [v for v in targets if v not in swept]
        swept.update(targets)
        if targets:
            n2_counts.update(n2_sweep(coloring, cache, targets=targets))
            completion_sweep(graph, coloring)
            final, n_colors, verification = _settle(graph, coloring)
        if verification[0]:
            break
    return ColoredSkeleton(
        graph=graph,
        edge_color=final,
        n_colors=n_colors,
        stage_of={
            edge: STAGE_LIFT if i < lifted else STAGE_COMPLETION if i < completed else STAGE_N2
            for i, edge in enumerate(coloring.colors)
        },
        local_prime_counts=counts,
        n2_prime_counts=n2_counts,
        n2_ran=n2_ran,
        diagnostics=list(verification[3]),
        verification=verification,
    )


def _settle(
    graph: Graph, coloring: PartialProductColoring
) -> tuple[dict[Edge, int], int, tuple]:
    """Renumber and verify the coloring, merging square-parallel colors only
    when the coloring does not already read as a product coloring.

    Returns (final colors, color count, ``product_coordinates`` result),
    the same as merging first.  The merge is skipped when the coloring
    verifies; then every colored edge of final color c changes exactly
    coordinate c, and the merge could unite nothing.  For every other color
    d, an edge of color c lies inside one layer for d, which fixes
    coordinate d, so the edge keeps every coordinate but c; its ends are
    two vertices and the coordinates are a bijection, so it changes
    coordinate c.  Take incident skeleton edges up of color A and uq of color B != A,
    so p is u with coordinate A changed and q is u with coordinate B
    changed.  A far corner d != u is joined to p by an edge of one color X
    and to q by one of color Y, so p and q, which differ in A and B, differ
    in at most X and Y: X = A and Y = B would give d = u, hence X = B and Y
    = A, and d is u with both coordinates changed.  So qd has color A, pd
    has color B, and both unions of the square join a color with itself.
    Otherwise the merge runs, and only a merge that united something is
    renumbered and verified again, as an unchanged partition keeps its
    verdict.
    """
    final, n_colors = _renumber(coloring)
    verification = product_coordinates(graph, final, n_colors)
    if verification[0]:
        return final, n_colors, verification
    if merge_parallel_colors(graph, coloring):
        final, n_colors = _renumber(coloring)
        verification = product_coordinates(graph, final, n_colors)
    return final, n_colors, verification


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

    For every color c the fibers are its edge components and the fiber
    through vertex 0 is the reference factor.  The layer of v for c is its
    component among the edges of every other color, and coordinate c of v
    is the position, in the reference c-fiber, of the one reference vertex
    in that layer; the check fails when a layer meets the reference fiber
    twice or not at all.  Returns (ok, coords, factors, diagnostics); when
    ok, the coordinates are a bijection and rebuild the graph edge-exactly.
    """
    n = graph.vertex_count
    if n_colors == 0:
        if n == 1 and graph.edge_count == 0:
            return True, [()], [], []
        return False, None, None, ["no colors but the graph is larger than one vertex"]

    _, comps_of, nbrs = fiber_components(graph, edge_color, n_colors)
    # fiber 0 of every color passes through vertex 0
    ref_sets = [comps[0] for comps in comps_of]
    for c, comps in enumerate(comps_of):
        sizes = {len(members) for members in comps}
        if sizes != {len(ref_sets[c])}:
            return False, None, None, [f"color {c} has fibers of unequal sizes {sorted(sizes)}"]
    if math.prod(len(r) for r in ref_sets) != n:
        return False, None, None, ["reference fiber sizes do not multiply to the vertex count"]

    # one breadth-first search from each reference vertex labels its layer
    columns: list[list[int]] = []
    for c, ref in enumerate(ref_sets):
        others = [adj for d, adj in enumerate(nbrs) if d != c]
        column = [-1] * n
        for i, r in enumerate(ref):
            if column[r] >= 0:
                return False, None, None, [f"a layer of color {c} meets its reference fiber twice"]
            column[r] = i
            layer = [r]
            for u in layer:  # grows while it is read: a breadth-first search
                for adj in others:
                    for w in adj[u]:
                        if column[w] < 0:
                            column[w] = i
                            layer.append(w)
        if -1 in column:
            return False, None, None, [f"fibers of color {c} are not connected by other colors"]
        columns.append(column)

    coords = list(zip(*columns))
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
