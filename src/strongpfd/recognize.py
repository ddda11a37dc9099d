"""Recognition of locally unrefined graphs and factor extraction.

A graph qualifies when the maximal local prime count over all decomposed
neighborhoods equals the number of final skeleton colors and the extracted
per-color components rebuild the graph edge-for-edge; the skeleton module
builds the coloring and runs that product check, whose diagnostics the
report lists once each.  A report keeps its factors in color order.  The
single-anchor fast path returns the graph as its one prime factor when the
anchor's neighborhood is prime, which proves the graph prime; otherwise it
reads the prime factors off the fibers through the anchor of one backbone
coloring, which its covering walks already fix, so it runs no completion
sweep, and walks only those fibers, one per color, from the anchor.
Either way it returns them in the factor order of
``factor_exact``.  ``verify_product`` checks a user's coloring, a plain
dict whose keys must be edges of the graph, against given factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import Edge, Graph, edge_key
from .coloring import (
    ColoringError,
    NeighborhoodCache,
    PartialProductColoring,
    color_fibers_from,
    require_anchor,
)
from .factorize import FactorSizeError, LocalFactorization, ordered_factorization, require_size_cap
from .io import graph_to_dict
from .isomorphism import is_isomorphic
from .sclasses import backbone, require_thin_connected
from .skeleton import (
    ColoredSkeleton,
    SkeletonError,
    build_skeleton,
    fiber_components,
    product_coordinates,
)


@dataclass
class RecognitionReport:
    in_upsilon: bool
    max_local_factors: int
    extracted_factors: tuple[Graph, ...]
    coloring: ColoredSkeleton | None
    reconstruction_ok: bool
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        data = {
            "in_upsilon": self.in_upsilon,
            "max_local_factors": self.max_local_factors,
            "n_factors": len(self.extracted_factors),
            "factors": [graph_to_dict(f) for f in self.extracted_factors],
            "reconstruction_ok": self.reconstruction_ok,
            "diagnostics": list(self.diagnostics),
        }
        if self.coloring is not None:
            data["skeleton"] = self.coloring.to_dict()
        return data


def verify_product(
    factors: tuple[Graph, ...] | list[Graph],
    coloring: ColoredSkeleton | dict[Edge, int],
    graph: Graph,
) -> bool:
    """Check that the coloring coordinatizes the graph as the product of
    ``factors``, edge-exactly.

    A skeleton is read through its ``edge_color``, and both forms take one
    path.  The color labels may be any hashable values; they are numbered
    densely in order of first appearance over the sorted edge keys, which
    leaves a skeleton's colors as they are, since it numbers its colors in
    order of their least edge.  A key that is not an edge of ``graph``,
    given as a pair of vertex ids in either order, colors no product, so it
    fails; a skeleton built on another graph may have such keys.
    ``factors`` are matched to the coloring's fibers as a multiset up to
    isomorphism, so their order does not matter.
    """
    if isinstance(coloring, ColoredSkeleton):
        coloring = coloring.edge_color
    n, rows = graph.vertex_count, graph.adjacency_sets
    pairs = [key for key in coloring if type(key) is tuple and list(map(type, key)) == [int, int]]
    if len(pairs) < len(coloring) or not all(0 <= u < n and v in rows[u] for u, v in pairs):
        return False
    dense: dict = {}
    for edge in sorted(coloring):
        dense.setdefault(coloring[edge], len(dense))
    edge_color = {edge: dense[c] for edge, c in coloring.items()}
    ok, _, ref_factors, _ = product_coordinates(graph, edge_color, len(dense))
    if not ok:
        return False
    assert ref_factors is not None
    if len(factors) != len(ref_factors):
        return False
    # isomorphism is an equivalence, so greedy matching finds a perfect one
    # whenever one exists
    unmatched = list(ref_factors)
    for f in factors:
        match = next((i for i, r in enumerate(unmatched) if is_isomorphic(f, r)), None)
        if match is None:
            return False
        del unmatched[match]
    return True


def recognize(graph: Graph, size_cap: int | None = None) -> RecognitionReport:
    """Decide local unrefinedness, extract factors, verify the product.

    ``size_cap`` must be None or an ``int`` (GraphError)."""
    require_size_cap(size_cap)
    require_thin_connected(graph, "recognition")
    cache = NeighborhoodCache(graph, size_cap)
    try:
        skeleton = build_skeleton(cache)
    except (SkeletonError, FactorSizeError) as exc:
        counts: dict[int, int] = {}
        diagnostics = [str(exc)]
        for v in backbone(graph):
            try:
                counts[v] = cache.count(v)
            except FactorSizeError as inner:
                diagnostics.append(f"neighborhood of {v} not decomposable: {inner}")
        return RecognitionReport(
            in_upsilon=False,
            max_local_factors=max(counts.values(), default=0),
            extracted_factors=(),
            coloring=None,
            reconstruction_ok=False,
            diagnostics=diagnostics,
        )
    all_counts = list(skeleton.local_prime_counts.values()) + list(
        skeleton.n2_prime_counts.values()
    )
    max_local = max(all_counts, default=0)
    ok, _, factors, _ = skeleton.verification
    if ok:
        assert factors is not None
        extracted = tuple(factors)
    else:
        # one fiber of each color for the diagnostic extraction: the one
        # through the least endpoint of that color's edges
        _, comps_of, _ = fiber_components(graph, skeleton.edge_color, skeleton.n_colors)
        extracted = tuple(
            graph.induced_subgraph(next((m for m in comps if len(m) > 1), [0]))[0]
            for comps in comps_of
        )
    diagnostics = list(skeleton.diagnostics)
    in_upsilon = ok and max_local == skeleton.n_colors
    if ok and max_local != skeleton.n_colors:
        diagnostics.append(
            f"local factor count {max_local} exceeds the {skeleton.n_colors} global colors"
        )
    return RecognitionReport(
        in_upsilon=in_upsilon,
        max_local_factors=max_local,
        extracted_factors=extracted,
        coloring=skeleton,
        reconstruction_ok=ok,
        diagnostics=diagnostics,
    )


def _anchor_fibers(graph: Graph, partial: PartialProductColoring, x: int) -> list[list[int]]:
    """The fiber through ``x`` of each raw color of ``partial``, in color
    order, each walked breadth-first from ``x`` along edges of that color.

    A walk reads only the edges at its own fiber's vertices, not every
    colored edge of the graph as ``fiber_components`` does.  The colors of
    the anchored coloring are never united, so each raw color is its own
    root and the walk returns the members of ``fiber_components``' fiber
    through ``x``, in the order reached.
    """
    colors, rows = partial.colors, graph.adjacency_sets
    fibers = []
    for c in range(len(partial.parent)):
        fiber, seen = [x], {x}
        for v in fiber:  # grows while it is read: a breadth-first search
            for w in rows[v]:
                if w not in seen and colors.get(edge_key(v, w)) == c:
                    seen.add(w)
                    fiber.append(w)
        fibers.append(fiber)
    return fibers


def pfd_fast(
    graph: Graph, size_cap: int | None = None, anchor: int | None = None
) -> LocalFactorization:
    """Prime factors through one backbone anchor (the quasi-linear path).

    The anchor defaults to the smallest backbone vertex; any other anchor
    must be an ``int`` vertex id on the backbone too, so a float or a bool
    equal to one is refused (GraphError), and so is a ``size_cap`` that is
    not None or an ``int``.  The caller asserts local
    unrefinedness.  Violations that derail the anchored coloring surface as
    ColoringError; violations that keep the coloring locally coherent
    produce factors that simply fail to rebuild the graph (run
    ``recognize`` to decide membership first).  The result carries no
    coordinates, only the factor graphs, in the one factor order of
    ``factorize.ordered_factorization``, which ``factor_exact`` shares.
    The factors are the fibers through the anchor as the covering walks of
    ``color_fibers_from`` leave them: the completion sweep of the skeleton
    only joins two vertices already in one fiber of the edge's color, so
    it could not change them, and none runs.  Each is walked from the
    anchor along its color's edges (``_anchor_fibers``), so no pass over
    every color's fibers in the whole graph runs either.

    A local prime count of 1 at the anchor proves the graph prime, so the
    graph is returned as its one factor without any coloring; the count is
    read off the anchor's factored ball, which is lifted only when the
    coloring runs.  Let
    G = G1 ⊠ G2 be thin and x a backbone vertex.  Then N[x] is
    N[x1] ⊠ N[x2], and the S-classes of a strong product are products of
    S-classes, so the quotient of N[x] is Q1 ⊠ Q2.  Neither Qi is trivial:
    if N[xi] were a clique on two or more vertices, then for any other yi
    in it N[xi] would lie strictly inside N[yi], Gi being thin, so N[x]
    would lie strictly inside N[(yi, xj)] and x would not be on the
    backbone.  So the count at any backbone vertex is at least the global
    one.  Two consequences: a graph whose anchor count is 1 is returned as
    its own factor even where another backbone count is 2 or more and the
    covering walk would break with ColoringError; and on that exit only the
    anchor's ball is checked against ``size_cap``, since no other ball is
    factored.
    """
    require_size_cap(size_cap)
    require_thin_connected(graph, "recognition")
    x = backbone(graph)[0] if anchor is None else anchor
    require_anchor(x, backbone(graph))
    cache = NeighborhoodCache(graph, size_cap)
    if cache.count(x) == 1:
        return ordered_factorization([graph], None)
    try:
        partial = color_fibers_from(cache, x)
    except ColoringError as exc:
        raise ColoringError(f"not locally unrefined: {exc}") from exc
    factors = [graph.induced_subgraph(fiber)[0] for fiber in _anchor_fibers(graph, partial, x)]
    if math.prod(f.vertex_count for f in factors) != graph.vertex_count:
        raise ColoringError(
            "not locally unrefined: fiber sizes through the anchor do not "
            "multiply to the vertex count"
        )
    return ordered_factorization(factors, None)

