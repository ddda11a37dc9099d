"""The square merge is the fallback of ``build_skeleton``'s first pass.

A stitched coloring that verifies as a product coloring skips
``merge_parallel_colors``: every edge of color c then changes exactly
coordinate c of the verified coordinates, and the merge can unite nothing.
A coloring that fails the check is merged, and the result must be the one
an assembly that always merges gives, frozen below.
``tests/test_skeleton_differential.py`` compares whole outputs on the
recovery corpus.
"""

from __future__ import annotations

import copy
import random

import pytest

from strongpfd import (
    Graph,
    NeighborhoodCache,
    SkeletonError,
    build_skeleton,
    edge_key,
    path_graph,
    random_product_instance,
    recognize,
    strong_product,
)
from strongpfd import skeleton
from strongpfd.coloring import (
    STAGE_COMPLETION,
    STAGE_LIFT,
    STAGE_N2,
    PartialProductColoring,
    completion_sweep,
)

from conftest import house_graph, recovery_corpus


def always_merge_skeleton(cache: NeighborhoodCache) -> skeleton.ColoredSkeleton:
    """``build_skeleton`` as it was while every pass merged square-parallel
    colors before it renumbered and verified."""
    graph = cache.graph
    coloring = PartialProductColoring()
    counts = skeleton._stitch_lifted_edges(cache, coloring)
    find = coloring.find
    coloring.colors = {edge: find(c) for edge, c in coloring.colors.items()}
    lifted = len(coloring.colors)
    completion_sweep(graph, coloring)
    completed = len(coloring.colors)
    skeleton.merge_parallel_colors(graph, coloring)
    final, n_colors = skeleton._renumber(coloring)
    verification = skeleton.product_coordinates(graph, final, n_colors)
    n2_ran = not verification[0]
    n2_counts: dict[int, int] = {}
    swept: set[int] = set()
    for attempt in range(2 if n2_ran else 0):
        if attempt == 0:
            targets = skeleton._undersized_fiber_vertices(graph, final, n_colors)
        else:
            targets = skeleton._undercolored_vertices(graph, coloring.colors)
        targets = [v for v in targets if v not in swept]
        swept.update(targets)
        if targets:
            n2_counts.update(skeleton.n2_sweep(coloring, cache, targets=targets))
            completion_sweep(graph, coloring)
            skeleton.merge_parallel_colors(graph, coloring)
            final, n_colors = skeleton._renumber(coloring)
        verification = skeleton.product_coordinates(graph, final, n_colors)
        if verification[0]:
            break
    ok, _, _, diag = verification
    return skeleton.ColoredSkeleton(
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
        diagnostics=[] if ok else list(diag),
        verification=verification,
    )


def count_unions(monkeypatch) -> list[int]:
    """Record the union count of every ``merge_parallel_colors`` call."""
    unions: list[int] = []
    merge = skeleton.merge_parallel_colors

    def counted(graph, coloring):
        unions.append(merge(graph, coloring))
        return unions[-1]

    monkeypatch.setattr(skeleton, "merge_parallel_colors", counted)
    return unions


@pytest.mark.parametrize("k", [3, 4, 7, 12])  # k = 3 is the p3xp3 fixture's graph
def test_products_of_paths_are_never_merged(k, monkeypatch):
    def refuse(graph, coloring):
        raise AssertionError("the stitched coloring already verifies")

    monkeypatch.setattr(skeleton, "merge_parallel_colors", refuse)
    graph, _ = strong_product([path_graph(k), path_graph(3)])
    report = recognize(graph)
    assert report.in_upsilon
    assert sorted(f.vertex_count for f in report.extracted_factors) == sorted([k, 3])


def test_a_coloring_that_fails_verification_is_merged(monkeypatch):
    graph = random_product_instance([3, 5], seed=2, edge_prob=0.35).graph
    expected = always_merge_skeleton(NeighborhoodCache(graph)).to_dict()
    unions = count_unions(monkeypatch)
    built = build_skeleton(NeighborhoodCache(graph))
    assert unions and unions[0] >= 1
    assert built.to_dict() == expected
    assert built.n2_ran and built.verification[0]


def seeded_products() -> list:
    rng = random.Random(5)
    graphs = [strong_product([path_graph(k), path_graph(3)])[0] for k in (3, 5, 9)]
    for seed in range(40):
        sizes = [rng.randint(3, 5) for _ in range(rng.choice((2, 2, 3)))]
        graphs.append(random_product_instance(sizes, seed=seed, edge_prob=0.4).graph)
    return graphs


def test_a_coloring_that_follows_its_coordinates_has_nothing_to_merge(monkeypatch):
    settle = skeleton._settle
    seen = {"follows": 0, "merged": 0}

    def checked(graph, coloring):
        final, n_colors = skeleton._renumber(coloring)
        if skeleton.product_coordinates(graph, final, n_colors)[0]:
            assert skeleton.merge_parallel_colors(graph, copy.deepcopy(coloring)) == 0
            seen["follows"] += 1
        else:
            seen["merged"] += 1
        return settle(graph, coloring)

    monkeypatch.setattr(skeleton, "_settle", checked)
    for graph in recovery_corpus() + seeded_products():
        try:
            build_skeleton(NeighborhoodCache(graph))
        except SkeletonError:
            continue
    assert seen["follows"] > 100 and seen["merged"] > 0


def fixpoint_merge(graph, coloring: PartialProductColoring) -> int:
    """``merge_parallel_colors`` as it was while it repeated its pass over
    the skeleton until a pass united nothing."""
    edge_color = coloring.colors
    find, union = coloring.find, coloring.union
    if len({find(c) for c in set(edge_color.values())}) < 2:
        return 0
    sk = Graph(graph.vertex_count, edge_color.keys())
    adj = [sk.adjacency_set(v) for v in sk.vertices()]
    merged_total = 0
    while True:
        merged = 0
        for u in sk.vertices():
            nbrs = sk.neighbors(u)
            for i, p in enumerate(nbrs):
                for q in nbrs[i + 1 :]:
                    ep, eq = edge_key(u, p), edge_key(u, q)
                    if find(edge_color[ep]) == find(edge_color[eq]):
                        continue
                    d = skeleton._far_corner(u, q, adj[u], adj[p], adj[q])
                    if d is None:
                        continue
                    if union(edge_color[ep], edge_color[edge_key(q, d)]):
                        merged += 1
                    if union(edge_color[eq], edge_color[edge_key(p, d)]):
                        merged += 1
        merged_total += merged
        if not merged:
            return merged_total


def root_partition(coloring: PartialProductColoring) -> set[frozenset[int]]:
    find = coloring.find
    groups: dict[int, set[int]] = {}
    for c in range(len(coloring.parent)):
        groups.setdefault(find(c), set()).add(c)
    return {frozenset(g) for g in groups.values()}


def test_one_merge_pass_unites_what_the_fixpoint_loop_does(monkeypatch):
    # every coloring build_skeleton hands to the merge, and each skeleton's
    # edges with one raw color per edge, which leaves all uniting to squares
    colorings = []
    merge = skeleton.merge_parallel_colors

    def captured(graph, coloring):
        colorings.append((graph, copy.deepcopy(coloring)))
        return merge(graph, coloring)

    monkeypatch.setattr(skeleton, "merge_parallel_colors", captured)
    graphs = seeded_products() + [strong_product([path_graph(k), house_graph()])[0] for k in range(3, 9)]
    for graph in graphs:
        try:
            built = build_skeleton(NeighborhoodCache(graph))
        except SkeletonError:
            continue
        raw = PartialProductColoring()
        for edge in built.edge_color:
            raw.colors[edge] = raw.new_color()
        colorings.append((graph, raw))
    united = 0
    for graph, coloring in colorings:
        once, looped = copy.deepcopy(coloring), copy.deepcopy(coloring)
        unions = merge(graph, once)
        assert unions == fixpoint_merge(graph, looped)
        assert root_partition(once) == root_partition(looped)
        united += unions > 0
    assert united > len(graphs)
