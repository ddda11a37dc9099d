"""Recognition of locally unrefined graphs and factor extraction.

A graph qualifies when the maximal local prime count over all decomposed
neighborhoods equals the number of final skeleton colors and the extracted
per-color components rebuild the graph edge-for-edge; the skeleton module
builds the coloring and runs that product check.  The single-anchor fast
path extracts the prime factors directly from one backbone coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import Edge, Graph
from .coloring import ColoringError, NeighborhoodCache, color_fibers_from
from .factorize import FactorSizeError, LocalFactorization
from .io import graph_to_dict
from .isomorphism import canonical_form, is_isomorphic
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
            data["skeleton"] = {
                "cartesian_edges": [
                    [u, v, self.coloring.edge_color[(u, v)]]
                    for u, v in self.coloring.cartesian_edges
                ],
                "n_colors": self.coloring.n_colors,
                "stages": self.coloring.stage_counts(),
                "n2_ran": self.coloring.n2_ran,
            }
        return data


def verify_product(
    factors: tuple[Graph, ...] | list[Graph],
    coloring: ColoredSkeleton | dict[Edge, int],
    graph: Graph,
) -> bool:
    """Check that the coloring coordinatizes the graph as the product of
    ``factors``, edge-exactly.

    A plain dict may use any color labels; they are renumbered densely in
    ascending order.  ``factors`` are matched to the coloring's fibers as a
    multiset up to isomorphism, so their order does not matter.
    """
    if isinstance(coloring, ColoredSkeleton):
        edge_color = coloring.edge_color
        n_colors = coloring.n_colors
    else:
        dense = {c: i for i, c in enumerate(sorted(set(coloring.values())))}
        edge_color = {edge: dense[c] for edge, c in coloring.items()}
        n_colors = len(dense)
    ok, _, ref_factors, _ = product_coordinates(graph, edge_color, n_colors)
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
    """Decide local unrefinedness, extract factors, verify the product."""
    require_thin_connected(graph, "recognition")
    cache = NeighborhoodCache(graph, size_cap)
    try:
        skeleton = build_skeleton(graph, size_cap=size_cap, cache=cache)
    except (SkeletonError, FactorSizeError) as exc:
        counts: dict[int, int] = {}
        diagnostics = [str(exc)]
        for v in backbone(graph):
            try:
                counts[v] = cache.get(v).prime_count
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
    ok, _, factors, diag = skeleton.verification
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
    diagnostics = list(skeleton.diagnostics) + diag
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


def pfd_fast(
    graph: Graph, size_cap: int | None = None, anchor: int | None = None
) -> LocalFactorization:
    """Prime factors through one backbone anchor (the quasi-linear path).

    The anchor defaults to the smallest backbone vertex.  The caller asserts
    local unrefinedness.  Violations that derail the anchored coloring
    surface as ColoringError; violations that keep the coloring locally
    coherent produce factors that simply fail to rebuild the graph (run
    ``recognize`` to decide membership first).  The result carries no
    coordinates, only the factor graphs.
    """
    require_thin_connected(graph, "recognition")
    anchors = backbone(graph)
    x = anchors[0] if anchor is None else anchor
    try:
        partial = color_fibers_from(
            graph, x, backbone_vertices=anchors, size_cap=size_cap
        )
    except ColoringError as exc:
        raise ColoringError(f"not locally unrefined: {exc}") from exc
    comp_of, comps_of, _ = fiber_components(graph, partial.colors, len(partial.palette))
    factors = [
        graph.induced_subgraph(comps[comp[x]])[0] for comp, comps in zip(comp_of, comps_of)
    ]
    if math.prod(f.vertex_count for f in factors) != graph.vertex_count:
        raise ColoringError(
            "not locally unrefined: fiber sizes through the anchor do not "
            "multiply to the vertex count"
        )
    return LocalFactorization(tuple(_ordered_factors(factors)), None)


def _ordered_factors(factors: list[Graph]) -> list[Graph]:
    """Deterministic factor order; canonical forms break ties only among
    factors that cheap invariants cannot separate (keeps big easy factors
    out of the canonical labeling)."""

    def cheap(f: Graph) -> tuple:
        return (
            f.vertex_count,
            f.edge_count,
            tuple(sorted(f.degree(v) for v in f.vertices())),
        )

    groups: dict[tuple, list[Graph]] = {}
    for f in factors:
        groups.setdefault(cheap(f), []).append(f)
    ordered: list[Graph] = []
    for key in sorted(groups):
        group = groups[key]
        if len(group) > 1:
            group.sort(key=canonical_form)
        ordered.extend(group)
    return ordered
