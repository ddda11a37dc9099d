from __future__ import annotations

import random

import pytest

from strongpfd import (
    Graph,
    GraphError,
    NotThinError,
    UnionFind,
    build_skeleton,
    cartesian_edge_set,
    cartesian_product,
    complete_graph,
    cycle_graph,
    find_square,
    merge_parallel_colors,
    path_graph,
)
from strongpfd import skeleton as skeleton_module
from strongpfd.coloring import STAGE_LIFT, STAGE_N2
from strongpfd.oracle import random_product_instance

from conftest import neighborhood_blind_product


def test_union_find_basics():
    uf = UnionFind()
    ids = [uf.add() for _ in range(4)]
    assert uf.union(ids[0], ids[1])
    assert not uf.union(ids[1], ids[0])
    assert uf.find(ids[0]) == uf.find(ids[1])
    assert uf.find(ids[2]) != uf.find(ids[0])


def test_find_square_in_c4():
    c4 = cycle_graph(4)
    square = find_square(c4, (0, 1), (0, 3))
    assert square is not None
    u, p, d, q = square
    assert {u, p, d, q} == {0, 1, 2, 3}


def test_find_square_blocked_by_diagonals():
    assert find_square(complete_graph(4), (0, 1), (0, 2)) is None


def test_find_square_in_grid_corner():
    grid, coords = cartesian_product([path_graph(3), path_graph(3)])
    a = coords.vertex_at((0, 0))
    right = coords.vertex_at((0, 1))
    down = coords.vertex_at((1, 0))
    square = find_square(grid, (a, right), (a, down))
    assert square is not None
    assert square[2] == coords.vertex_at((1, 1))


def test_find_square_requires_incident_edges():
    grid, _ = cartesian_product([path_graph(3), path_graph(3)])
    with pytest.raises(GraphError):
        find_square(grid, (0, 1), (4, 5))


def test_merge_parallel_colors_on_grid_coloring(p3xp3):
    graph, coords = p3xp3
    # raw coloring: one color per (direction, fiber copy), 4 + 6 raw classes
    uf = UnionFind()
    raw = {}
    edge_color = {}
    for u, v in sorted(cartesian_edge_set(graph, coords)):
        direction = 0 if coords.coords[u][0] != coords.coords[v][0] else 1
        anchor = coords.coords[u][1 - direction]
        key = (direction, anchor)
        if key not in raw:
            raw[key] = uf.add()
        edge_color[(u, v)] = raw[key]
    merge_parallel_colors(graph, edge_color, uf)
    roots = {uf.find(c) for c in edge_color.values()}
    assert len(roots) == 2
    # merged classes match ground-truth directions exactly
    for (u, v), c in edge_color.items():
        direction = 0 if coords.coords[u][0] != coords.coords[v][0] else 1
        for (a, b), c2 in edge_color.items():
            if uf.find(c) == uf.find(c2):
                d2 = 0 if coords.coords[a][0] != coords.coords[b][0] else 1
                assert d2 == direction


def test_merge_is_idempotent(p3xp3):
    graph, coords = p3xp3
    uf = UnionFind()
    color = uf.add()
    edge_color = {e: color for e in cartesian_edge_set(graph, coords)}
    assert merge_parallel_colors(graph, edge_color, uf) == 0


def test_merge_skips_a_single_root_coloring(p3xp3, monkeypatch):
    graph, coords = p3xp3
    uf = UnionFind()
    ids = [uf.add() for _ in range(3)]
    uf.union(ids[0], ids[1])
    uf.union(ids[0], ids[2])
    edges = sorted(cartesian_edge_set(graph, coords))
    edge_color = {e: ids[i % 3] for i, e in enumerate(edges)}
    parent = list(uf.parent)
    # three raw colors, one root: nothing can merge, so no skeleton is built
    monkeypatch.setattr(skeleton_module, "Graph", None)
    assert merge_parallel_colors(graph, edge_color, uf) == 0
    assert uf.parent == parent


def test_skeleton_on_product_matches_ground_truth(p3xp3):
    graph, coords = p3xp3
    skeleton = build_skeleton(graph)
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
    skeleton = build_skeleton(g)
    assert skeleton.n_colors == 1
    assert set(skeleton.cartesian_edges) == set(g.edges())


def test_skeleton_requires_thin_connected():
    with pytest.raises(NotThinError):
        build_skeleton(complete_graph(4))
    with pytest.raises(GraphError):
        build_skeleton(Graph(4, [(0, 1), (2, 3)]))


def test_blind_fibers_found_only_in_second_stage():
    graph, coords = neighborhood_blind_product()
    skeleton = build_skeleton(graph)
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
        skeleton = build_skeleton(inst.graph)
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
    skeleton = build_skeleton(graph)
    assert skeleton.local_prime_counts == {4: 2}


def test_n2_sweep_respects_size_cap():
    from strongpfd import SkeletonError, n2_sweep

    graph, _ = neighborhood_blind_product()
    uf = UnionFind()
    with pytest.raises(SkeletonError, match="N2 sweep infeasible"):
        n2_sweep(graph, {}, uf, {}, size_cap=6)
