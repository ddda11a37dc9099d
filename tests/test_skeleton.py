from __future__ import annotations

import random

import pytest

from strongpfd import (
    Graph,
    GraphError,
    NeighborhoodCache,
    NotThinError,
    PartialProductColoring,
    build_skeleton,
    cartesian_edge_set,
    complete_graph,
    cycle_graph,
    merge_parallel_colors,
    path_graph,
    strong_product,
)
from strongpfd import skeleton as skeleton_module
from strongpfd.coloring import STAGE_LIFT, STAGE_N2
from strongpfd.oracle import random_product_instance

from conftest import neighborhood_blind_product


def test_union_find_basics():
    coloring = PartialProductColoring()
    ids = [coloring.new_color() for _ in range(4)]
    assert coloring.union(ids[0], ids[1])
    assert not coloring.union(ids[1], ids[0])
    assert coloring.find(ids[0]) == coloring.find(ids[1])
    assert coloring.find(ids[2]) != coloring.find(ids[0])


def test_merge_needs_a_diagonal_free_square():
    # C4 is one such square: each edge merges with its opposite edge
    c4 = cycle_graph(4)
    coloring = PartialProductColoring()
    coloring.colors = {edge: coloring.new_color() for edge in c4.edges()}
    merge_parallel_colors(c4, coloring)
    root = {edge: coloring.find(c) for edge, c in coloring.colors.items()}
    assert len(set(root.values())) == 2
    assert root[0, 1] == root[2, 3] and root[0, 3] == root[1, 2]
    # in K4 the diagonals block every square
    k4 = complete_graph(4)
    coloring = PartialProductColoring()
    coloring.colors = {edge: coloring.new_color() for edge in k4.edges()}
    assert merge_parallel_colors(k4, coloring) == 0


def test_merge_parallel_colors_on_grid_coloring(p3xp3):
    graph, coords = p3xp3
    # raw coloring: one color per (direction, fiber copy), 4 + 6 raw classes
    coloring = PartialProductColoring()
    edge_color = coloring.colors
    raw = {}
    for u, v in sorted(cartesian_edge_set(graph, coords)):
        direction = 0 if coords.coords[u][0] != coords.coords[v][0] else 1
        anchor = coords.coords[u][1 - direction]
        key = (direction, anchor)
        if key not in raw:
            raw[key] = coloring.new_color()
        edge_color[(u, v)] = raw[key]
    merge_parallel_colors(graph, coloring)
    roots = {coloring.find(c) for c in edge_color.values()}
    assert len(roots) == 2
    # merged classes match ground-truth directions exactly
    for (u, v), c in edge_color.items():
        direction = 0 if coords.coords[u][0] != coords.coords[v][0] else 1
        for (a, b), c2 in edge_color.items():
            if coloring.find(c) == coloring.find(c2):
                d2 = 0 if coords.coords[a][0] != coords.coords[b][0] else 1
                assert d2 == direction


def test_merge_is_idempotent(p3xp3):
    graph, coords = p3xp3
    coloring = PartialProductColoring()
    color = coloring.new_color()
    coloring.colors = {e: color for e in cartesian_edge_set(graph, coords)}
    assert merge_parallel_colors(graph, coloring) == 0


def test_merge_skips_a_single_root_coloring(p3xp3, monkeypatch):
    graph, coords = p3xp3
    coloring = PartialProductColoring()
    ids = [coloring.new_color() for _ in range(3)]
    coloring.union(ids[0], ids[1])
    coloring.union(ids[0], ids[2])
    edges = sorted(cartesian_edge_set(graph, coords))
    coloring.colors = {e: ids[i % 3] for i, e in enumerate(edges)}
    parent = list(coloring.parent)
    # three raw colors, one root: nothing can merge, so no skeleton is built
    monkeypatch.setattr(skeleton_module, "Graph", None)
    assert merge_parallel_colors(graph, coloring) == 0
    assert coloring.parent == parent


def test_skeleton_on_product_matches_ground_truth(p3xp3):
    graph, coords = p3xp3
    skeleton = build_skeleton(NeighborhoodCache(graph))
    assert skeleton.n_colors == 2
    assert set(skeleton.cartesian_edges) == cartesian_edge_set(graph, coords)
    assert not skeleton.n2_ran
    # color classes equal the factor-direction partition
    by_color = {}
    for e, c in skeleton.edge_color.items():
        by_color.setdefault(c, set()).add(e)
    by_direction = {}
    for u, v in cartesian_edge_set(graph, coords):
        d = 0 if coords.coords[u][0] != coords.coords[v][0] else 1
        by_direction.setdefault(d, set()).add((u, v))
    assert set(map(frozenset, by_color.values())) == set(
        map(frozenset, by_direction.values())
    )


def test_skeleton_of_prime_graph_single_color():
    g = cycle_graph(7)
    skeleton = build_skeleton(NeighborhoodCache(g))
    assert skeleton.n_colors == 1
    assert set(skeleton.cartesian_edges) == set(g.edges())


def test_skeleton_requires_thin_connected():
    with pytest.raises(NotThinError):
        build_skeleton(NeighborhoodCache(complete_graph(4)))
    with pytest.raises(GraphError):
        build_skeleton(NeighborhoodCache(Graph(4, [(0, 1), (2, 3)])))


def test_blind_fibers_found_only_in_second_stage():
    graph, coords = neighborhood_blind_product()
    skeleton = build_skeleton(NeighborhoodCache(graph))
    assert skeleton.n2_ran
    truth = cartesian_edge_set(graph, coords)
    assert set(skeleton.cartesian_edges) == truth
    fiber = [v for v in range(graph.vertex_count) if coords.coords[v][1] == 0]
    blind = [
        (u, v) for u in fiber for v in fiber if u < v and graph.adjacent(u, v)
    ]
    for e in blind:
        assert skeleton.stage_of[e] == STAGE_N2
    assert skeleton.stage_counts()[STAGE_N2] >= len(blind)
    # second-stage work never relabels first-stage edges
    first_stage = [e for e, s in skeleton.stage_of.items() if s == STAGE_LIFT]
    assert first_stage
    # and the final coloring still has exactly two classes
    assert skeleton.n_colors == 2
    assert skeleton.n2_prime_counts
    assert set(skeleton.n2_prime_counts.values()) == {2}


def test_skeleton_exact_on_random_instances():
    rng = random.Random(31)
    for trial in range(10):
        inst = random_product_instance(
            [rng.randint(3, 5), rng.randint(3, 5)], seed=12000 + trial
        )
        skeleton = build_skeleton(NeighborhoodCache(inst.graph))
        truth = cartesian_edge_set(inst.graph, inst.ground_truth_coords)
        assert set(skeleton.cartesian_edges) == truth
        # soundness: no color class mixes ground-truth directions
        for c in range(skeleton.n_colors):
            dirs = set()
            for (u, v), col in skeleton.edge_color.items():
                if col == c:
                    cu = inst.ground_truth_coords.coords[u]
                    cv = inst.ground_truth_coords.coords[v]
                    dirs.add(next(i for i in range(2) if cu[i] != cv[i]))
            assert len(dirs) == 1


def test_skeleton_local_counts_recorded(p3xp3):
    graph, _ = p3xp3
    skeleton = build_skeleton(NeighborhoodCache(graph))
    assert skeleton.local_prime_counts == {4: 2}


def test_the_cache_brings_the_size_cap_to_every_entry_point():
    from strongpfd import FactorSizeError, pfd_fast, recognize

    graph, _ = strong_product([path_graph(4), path_graph(3)])
    message = "quotient of the 1-neighborhood of 4 has 9 vertices, size cap is 4"
    with pytest.raises(FactorSizeError, match=f"^{message}$"):
        build_skeleton(NeighborhoodCache(graph, 4))
    with pytest.raises(FactorSizeError, match=f"^{message}$"):
        pfd_fast(graph, size_cap=4)
    report = recognize(graph, size_cap=4)
    assert not report.in_upsilon
    assert report.coloring is None
    assert report.diagnostics[0] == message


@pytest.mark.parametrize("cap", ["9", True, False, 9.0])
def test_every_door_refuses_a_size_cap_that_is_not_an_int(cap):
    # a string cap used to raise a raw TypeError and True to act as a cap of 1
    from strongpfd import GraphError, factor_exact, pfd_fast, recognize

    graph, _ = strong_product([path_graph(4), path_graph(3)])
    for door in (pfd_fast, recognize, factor_exact):
        with pytest.raises(GraphError, match=f"^size cap {cap!r} is not None or an int$"):
            door(graph, size_cap=cap)
    # an int cap behaves as before
    assert pfd_fast(graph, size_cap=9).prime_count == factor_exact(graph, size_cap=12).prime_count == 2
    assert recognize(graph, size_cap=9).in_upsilon


def test_n2_sweep_respects_size_cap():
    from strongpfd import FactorSizeError, n2_sweep

    graph, _ = neighborhood_blind_product()
    with pytest.raises(FactorSizeError, match="^quotient of the 2-neighborhood of 0 has"):
        n2_sweep(PartialProductColoring(), NeighborhoodCache(graph, 6), targets=[0])
