"""Frozen per-anchor skeleton assembly, kept as the reference for the
differential tests.

This is the assembly ``build_skeleton`` used before it stitched lifted edges
in one pass: it runs ``color_fibers_from`` from every backbone anchor,
finishes each coloring with a ``completion_sweep`` as that function then
did, and unions the per-anchor colors through shared edges.  An edge's
stage is read off the order in which a coloring colored it: an anchor's
lifted edges come before those its sweep adds, each edge keeps the least
stage any anchor gave it, and the edges an N2 round adds are marked after
that round.
``legacy_recognize`` wraps it the way ``recognize`` did, recomputing the
product verification.
Only public strongpfd functions are called; the private helpers it needs
are copied here so later refactors of the package cannot move the
reference.
"""

from __future__ import annotations

from collections import deque

from strongpfd import (
    ColoredSkeleton,
    FactorSizeError,
    Graph,
    GraphError,
    NeighborhoodCache,
    NotThinError,
    PartialProductColoring,
    RecognitionReport,
    SkeletonError,
    backbone,
    color_fibers_from,
    edge_key,
    is_thin,
    merge_parallel_colors,
    n2_sweep,
    product_coordinates,
)
from strongpfd.coloring import (
    STAGE_COMPLETION,
    STAGE_LIFT,
    STAGE_N2,
    ColoringError,
    completion_sweep,
)

_STAGE_RANK = {STAGE_LIFT: 0, STAGE_COMPLETION: 1, STAGE_N2: 2}


def _renumber(edge_color, coloring):
    final = {}
    relabel = {}
    for edge in sorted(edge_color):
        root = coloring.find(edge_color[edge])
        if root not in relabel:
            relabel[root] = len(relabel)
        final[edge] = relabel[root]
    return final, len(relabel)


def _color_components(graph, edge_color, color):
    adj = {v: [] for v in graph.vertices()}
    for (u, v), c in edge_color.items():
        if c == color:
            adj[u].append(v)
            adj[v].append(u)
    comp = [-1] * graph.vertex_count
    comps = []
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


def _undersized_fiber_vertices(graph, edge_color, n_colors):
    targets = set()
    for color in range(n_colors):
        comp, comps = _color_components(graph, edge_color, color)
        top = max(len(members) for members in comps)
        targets.update(v for v in graph.vertices() if len(comps[comp[v]]) < top)
    return sorted(targets)


def _uncolored_vertices(graph, edge_color):
    return [
        v
        for v in graph.vertices()
        if any(edge_key(v, w) not in edge_color for w in graph.neighbors(v))
    ]


def legacy_build_skeleton(
    graph: Graph, size_cap: int | None = None, cache: NeighborhoodCache | None = None
) -> ColoredSkeleton:
    if not graph.is_connected():
        raise GraphError("skeleton construction requires a connected graph")
    if not is_thin(graph):
        raise NotThinError("skeleton construction requires a thin graph")
    anchors = backbone(graph)
    if cache is None:
        cache = NeighborhoodCache(graph, size_cap)
    coloring = PartialProductColoring()
    edge_color = coloring.colors
    stage_of = {}

    for anchor in anchors:
        try:
            partial = color_fibers_from(cache, anchor)
        except ColoringError as exc:
            raise SkeletonError(str(exc)) from exc
        lifted = len(partial.colors)
        completion_sweep(graph, partial)
        raw_to_global = [coloring.new_color() for _ in partial.parent]
        for i, (edge, raw) in enumerate(partial.colors.items()):
            color = raw_to_global[raw]
            existing = edge_color.get(edge)
            if existing is None:
                edge_color[edge] = color
            else:
                coloring.union(existing, color)
            old = stage_of.get(edge)
            stage = STAGE_LIFT if i < lifted else STAGE_COMPLETION
            if old is None or _STAGE_RANK[stage] < _STAGE_RANK[old]:
                stage_of[edge] = stage

    merge_parallel_colors(graph, coloring)
    counts = {v: cache.entries[v].prime_count for v in cache.entries}
    final, n_colors = _renumber(edge_color, coloring)
    ok, _, _, diag = product_coordinates(graph, final, n_colors)
    if ok:
        return ColoredSkeleton(graph, final, n_colors, dict(stage_of), counts)

    n2_counts = {}
    swept = set()
    for attempt in range(2):
        if attempt == 0:
            targets = _undersized_fiber_vertices(graph, final, n_colors)
        else:
            targets = _uncolored_vertices(graph, edge_color)
        targets = [v for v in targets if v not in swept]
        swept.update(targets)
        if targets:
            n2_counts.update(
                n2_sweep(coloring, cache, targets=targets)
            )
            completion_sweep(graph, coloring)
            stage_of.update((edge, STAGE_N2) for edge in edge_color if edge not in stage_of)
            merge_parallel_colors(graph, coloring)
            final, n_colors = _renumber(edge_color, coloring)
        ok, _, _, diag = product_coordinates(graph, final, n_colors)
        if ok:
            break
    diagnostics = [] if ok else list(diag)
    return ColoredSkeleton(
        graph,
        final,
        n_colors,
        dict(stage_of),
        counts,
        n2_prime_counts=n2_counts,
        n2_ran=True,
        diagnostics=diagnostics,
    )


def legacy_recognize(graph: Graph, size_cap: int | None = None) -> RecognitionReport:
    if not graph.is_connected():
        raise GraphError("recognition requires a connected graph")
    if not is_thin(graph):
        raise NotThinError("recognition requires a thin graph; run the quotient first")
    cache = NeighborhoodCache(graph, size_cap)
    anchors = backbone(graph)
    try:
        skeleton = legacy_build_skeleton(graph, size_cap=size_cap, cache=cache)
    except (SkeletonError, FactorSizeError) as exc:
        counts = {}
        diagnostics = [str(exc)]
        for v in anchors:
            try:
                counts[v] = cache.get(v).prime_count
            except FactorSizeError as inner:
                diagnostics.append(f"neighborhood of {v} not decomposable: {inner}")
        return RecognitionReport(
            False, max(counts.values(), default=0), (), None, False, diagnostics
        )
    all_counts = list(skeleton.local_prime_counts.values()) + list(
        skeleton.n2_prime_counts.values()
    )
    max_local = max(all_counts, default=0)
    ok, _, factors, _ = product_coordinates(graph, skeleton.edge_color, skeleton.n_colors)
    if ok:
        extracted = tuple(factors)
    else:
        extracted = []
        for c in range(skeleton.n_colors):
            comp, comps = _color_components(graph, skeleton.edge_color, c)
            endpoints = sorted(
                w for edge, col in skeleton.edge_color.items() if col == c for w in edge
            )
            members = comps[comp[endpoints[0]]] if endpoints else [0]
            extracted.append(graph.induced_subgraph(members)[0])
        extracted = tuple(extracted)
    # the skeleton's diagnostics are the product check's already
    diagnostics = list(skeleton.diagnostics)
    in_upsilon = ok and max_local == skeleton.n_colors
    if ok and max_local != skeleton.n_colors:
        diagnostics.append(
            f"local factor count {max_local} exceeds the {skeleton.n_colors} global colors"
        )
    return RecognitionReport(in_upsilon, max_local, extracted, skeleton, ok, diagnostics)
