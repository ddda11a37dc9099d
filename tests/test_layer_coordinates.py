"""``product_coordinates`` reads coordinates off layers, against the fiber
transport it replaced (``tests/legacy_product_check.py``).

The skeleton assembly used to accept a coloring only when transport
verified it and every edge of color c changed exactly coordinate c.  On
every coloring ``build_skeleton`` checks, the layer check must give that
verdict, and the same coordinates, factors and diagnostics.  On skeletons
with a few edges dropped, whatever transport settled must still verify
with the same coordinates, and whatever verifies must rebuild the graph
with every colored edge changing exactly its own coordinate; some of those
partial colorings verify only now.
"""

from __future__ import annotations

import random

from strongpfd import (
    NeighborhoodCache,
    SkeletonError,
    build_skeleton,
    cycle_graph,
    path_graph,
    strong_product,
    verify_product,
)
from strongpfd import skeleton
from strongpfd.factorize import rebuilds_strong_product

from conftest import house_graph, recovery_corpus
from legacy_product_check import old_verdict
from test_merge_fallback import seeded_products


def assembly_inputs():
    houses = [strong_product([path_graph(k), house_graph()])[0] for k in range(3, 9)]
    return recovery_corpus() + seeded_products() + houses


def changes_only_its_own_coordinate(edge_color, coords):
    for (u, v), c in edge_color.items():
        differ = [i for i, (a, b) in enumerate(zip(coords[u], coords[v])) if a != b]
        if differ != [c]:
            return False
    return True


def test_the_assembly_gets_the_transport_verdict_with_its_edge_check(monkeypatch):
    check = skeleton.product_coordinates
    seen = {"ok": 0, "failed": 0}

    def compared(graph, edge_color, n_colors):
        result = check(graph, edge_color, n_colors)
        old, settled = old_verdict(graph, edge_color, n_colors)
        assert result[0] == settled
        if old[0] == result[0]:
            assert result == old
        seen["ok" if result[0] else "failed"] += 1
        return result

    monkeypatch.setattr(skeleton, "product_coordinates", compared)
    for graph in assembly_inputs():
        try:
            build_skeleton(NeighborhoodCache(graph))
        except SkeletonError:
            continue
    assert seen["ok"] > 200 and seen["failed"] > 100


def test_partial_colorings():
    rng = random.Random(14)
    gained = 0
    for graph in recovery_corpus()[::2] + seeded_products():
        built = build_skeleton(NeighborhoodCache(graph))
        for _ in range(5):
            edge_color = dict(built.edge_color)
            for edge in rng.sample(sorted(edge_color), rng.randint(1, 4)):
                del edge_color[edge]
            ok, coords, factors, _ = skeleton.product_coordinates(
                graph, edge_color, built.n_colors
            )
            old, settled = old_verdict(graph, edge_color, built.n_colors)
            if settled:
                assert ok and coords == old[1]
            if ok:
                assert rebuilds_strong_product(graph, coords, factors)
                assert changes_only_its_own_coordinate(edge_color, coords)
                gained += not settled
    assert gained > 10


def test_verify_product_accepts_a_partial_coloring_whose_layers_fix_the_coordinates():
    # Without the skeleton edge (0, 3) one P3-fiber of C4 x P3 has a gap;
    # transport onto it fails, but every layer still meets each reference
    # fiber once.
    factors = [cycle_graph(4), path_graph(3)]
    graph, _ = strong_product(factors)
    edge_color = dict(build_skeleton(NeighborhoodCache(graph)).edge_color)
    del edge_color[0, 3]
    assert verify_product(factors, edge_color, graph)
    old, settled = old_verdict(graph, edge_color, 2)
    assert not settled
    assert old[3] == ["fiber transport failed between components of color 0"]
