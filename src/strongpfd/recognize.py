"""Recognition of locally unrefined graphs and factor extraction.

A graph qualifies when the maximal local prime count over all decomposed
neighborhoods equals the number of final skeleton colors and the extracted
per-color components rebuild the graph edge-for-edge.  The single-anchor
fast path extracts the prime factors directly from one backbone coloring.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from .graph import DisconnectedError, Edge, Graph, GraphError, edge_key
from .coloring import ColoringError, NeighborhoodCache, color_fibers_from
from .factorize import FactorSizeError, LocalFactorization, rebuilds_strong_product
from .isomorphism import canonical_form, is_isomorphic
from .sclasses import NotThinError, backbone, is_thin
from .skeleton import ColoredSkeleton, SkeletonError, build_skeleton


@dataclass
class RecognitionReport:
    in_upsilon: bool
    max_local_factors: int
    extracted_factors: tuple[Graph, ...]
    coloring: ColoredSkeleton | None
    reconstruction_ok: bool
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        from .io import graph_to_dict

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


def _color_components(
    graph: Graph, edge_color: dict[Edge, int], color: int
) -> tuple[list[int], list[list[int]]]:
    """Connected components over the edges of one color; isolated vertices
    become singleton components."""
    adj: dict[int, list[int]] = {v: [] for v in graph.vertices()}
    for (u, v), c in edge_color.items():
        if c == color:
            adj[u].append(v)
            adj[v].append(u)
    comp = [-1] * graph.vertex_count
    comps: list[list[int]] = []
    for v in graph.vertices():
        if comp[v] >= 0:
            continue
        members = [v]
        comp[v] = len(comps)
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if comp[w] < 0:
                    comp[w] = comp[v]
                    members.append(w)
                    queue.append(w)
        comps.append(sorted(members))
    return comp, comps


def product_coordinates(
    graph: Graph, edge_color: dict[Edge, int], n_colors: int
) -> tuple[bool, list[tuple[int, ...]] | None, list[Graph] | None, list[str]]:
    """Derive per-vertex factor coordinates from a product coloring.

    For every color the fibers are its edge components; the fiber through
    vertex 0 is the reference factor, and coordinates of other fibers are
    carried over by parallel transport along edges of the other colors.
    Returns (ok, coords, factors, diagnostics); when ok, the coordinates
    rebuild the graph edge-exactly.
    """
    n = graph.vertex_count
    if n_colors == 0:
        if n == 1 and graph.edge_count == 0:
            return True, [()], [], []
        return False, None, None, ["no colors but the graph is larger than one vertex"]

    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.vertices()}
    for (u, v), c in edge_color.items():
        incident[u].append((v, c))
        incident[v].append((u, c))

    comp_of: list[list[int]] = []
    comps_of: list[list[list[int]]] = []
    ref_sets: list[list[int]] = []
    for c in range(n_colors):
        comp, comps = _color_components(graph, edge_color, c)
        ref = comps[comp[0]]
        sizes = {len(members) for members in comps}
        if sizes != {len(ref)}:
            return False, None, None, [f"color {c} has fibers of unequal sizes {sorted(sizes)}"]
        comp_of.append(comp)
        comps_of.append(comps)
        ref_sets.append(ref)
    if math.prod(len(r) for r in ref_sets) != n:
        return False, None, None, ["reference fiber sizes do not multiply to the vertex count"]

    # parallel transport of each color's fiber onto the reference fiber
    position: list[dict[int, int]] = []
    for c in range(n_colors):
        comp = comp_of[c]
        comps = comps_of[c]
        ref_index = {v: i for i, v in enumerate(ref_sets[c])}
        psi: dict[int, int] = dict(ref_index)
        known = {comp[0]}
        queue = deque([comp[0]])
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
                        back = [t for t, dc in incident[w] if dc == d and comp[t] == k]
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

    factors = []
    for c in range(n_colors):
        sub, _ = graph.induced_subgraph(ref_sets[c])
        factors.append(sub)

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


def verify_product(
    factors: tuple[Graph, ...] | list[Graph],
    coloring: ColoredSkeleton | dict[Edge, int],
    graph: Graph,
) -> bool:
    """Check that the coloring coordinatizes the graph as the product of
    ``factors``, edge-exactly."""
    if isinstance(coloring, ColoredSkeleton):
        edge_color = coloring.edge_color
        n_colors = coloring.n_colors
    else:
        edge_color = coloring
        n_colors = len(set(edge_color.values())) if edge_color else 0
    ok, _, ref_factors, _ = product_coordinates(graph, edge_color, n_colors)
    if not ok:
        return False
    assert ref_factors is not None
    if len(factors) != len(ref_factors):
        return False
    return all(is_isomorphic(f, r) for f, r in zip(factors, ref_factors))


def _validate_input(graph: Graph) -> None:
    if not graph.is_connected():
        raise DisconnectedError("recognition requires a connected graph")
    if not is_thin(graph):
        raise NotThinError("recognition requires a thin graph; run the quotient first")


def recognize(graph: Graph, size_cap: int | None = None) -> RecognitionReport:
    """Decide local unrefinedness, extract factors, verify the product."""
    _validate_input(graph)
    cache = NeighborhoodCache(graph, size_cap)
    anchors = backbone(graph)
    try:
        skeleton = build_skeleton(graph, size_cap=size_cap, cache=cache)
    except (SkeletonError, FactorSizeError) as exc:
        counts: dict[int, int] = {}
        diagnostics = [str(exc)]
        for v in anchors:
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
        extracted = tuple(
            _component_factor(graph, skeleton.edge_color, c) for c in range(skeleton.n_colors)
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


def _component_factor(graph: Graph, edge_color: dict[Edge, int], color: int) -> Graph:
    """One representative component of a color, for diagnostic extraction."""
    comp, comps = _color_components(graph, edge_color, color)
    endpoints = sorted(
        w for edge, c in edge_color.items() if c == color for w in edge
    )
    members = comps[comp[endpoints[0]]] if endpoints else [0]
    sub, _ = graph.induced_subgraph(members)
    return sub


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
    _validate_input(graph)
    anchors = backbone(graph)
    x = anchors[0] if anchor is None else anchor
    if x not in anchors:
        raise GraphError(f"anchor {x} is not a backbone vertex")
    try:
        partial = color_fibers_from(
            graph, x, backbone_vertices=anchors, size_cap=size_cap
        )
    except ColoringError as exc:
        raise ColoringError(f"not locally unrefined: {exc}") from exc
    factors = []
    for raw in range(len(partial.palette)):
        members = _fiber_component(graph, partial.colors, raw, x)
        sub, _ = graph.induced_subgraph(members)
        factors.append(sub)
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


def _fiber_component(
    graph: Graph, colors: dict[Edge, int], color: int, start: int
) -> list[int]:
    members = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in members and colors.get(edge_key(u, w)) == color:
                members.add(w)
                queue.append(w)
    return sorted(members)
