"""``skeleton.fiber_components`` against a per-color breadth-first search.

The reference below walks one color at a time from every unvisited vertex in
ascending order, the way the package split colorings into fibers before one
routine served every caller.  Both must give the same fiber ids, the same
sorted members and the same per-color neighbor sets, on finished skeletons
and on partial colorings that leave vertices isolated.  The product check
built on it must not depend on the order of the coloring's entries, and
hand-made colorings whose fibers pass the size checks reach each of its
layer failures.
"""

from __future__ import annotations

import random
from collections import deque

from strongpfd import Graph, NeighborhoodCache, build_skeleton, edge_key, random_connected_graph
from strongpfd.skeleton import fiber_components, product_coordinates

from conftest import recovery_corpus


def reference_fibers(graph, edge_color, color):
    adj = {v: set() for v in graph.vertices()}
    for (u, v), c in edge_color.items():
        if c == color:
            adj[u].add(v)
            adj[v].add(u)
    comp = [-1] * graph.vertex_count
    comps = []
    for v in graph.vertices():
        if comp[v] >= 0:
            continue
        comp[v] = len(comps)
        members = [v]
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if comp[w] < 0:
                    comp[w] = comp[v]
                    members.append(w)
                    queue.append(w)
        comps.append(sorted(members))
    return comp, comps, adj


def assert_matches_reference(graph, edge_color, n_colors):
    comp, comps, nbrs = fiber_components(graph, edge_color, n_colors)
    assert len(comp) == len(comps) == len(nbrs) == n_colors
    for c in range(n_colors):
        ref_comp, ref_comps, ref_adj = reference_fibers(graph, edge_color, c)
        assert comp[c] == ref_comp
        assert comps[c] == ref_comps
        assert [set(row) for row in nbrs[c]] == [ref_adj[v] for v in graph.vertices()]


def test_fibers_of_recovery_corpus_skeletons():
    for graph in recovery_corpus():
        skeleton = build_skeleton(NeighborhoodCache(graph))
        assert_matches_reference(graph, skeleton.edge_color, skeleton.n_colors)


def test_fibers_of_partial_colorings():
    rng = random.Random(20261018)
    isolated = 0
    for trial in range(150):
        graph = random_connected_graph(rng.randint(1, 14), rng.uniform(0.15, 0.6), 5000 + trial)
        n_colors = rng.randint(0, 4)
        share = rng.uniform(0.0, 0.7)
        # colors n_colors and -1 lie outside the range and must be ignored
        edge_color = {
            e: rng.randint(-1, n_colors)
            for e in graph.edges()
            if rng.random() < share
        }
        assert_matches_reference(graph, edge_color, n_colors)
        colored = {v for e in edge_color for v in e}
        isolated += graph.vertex_count - len(colored)
    assert isolated > 100


def test_product_check_ignores_the_order_of_the_coloring():
    # Skeletons with a few edges dropped give colorings whose fibers and
    # layers are built from the coloring's entries; the verdict and the
    # diagnostic must not follow the order of those entries.
    rng = random.Random(1)
    outcomes = set()
    for graph in recovery_corpus()[:60]:
        skeleton = build_skeleton(NeighborhoodCache(graph))
        for _ in range(4):
            edge_color = dict(skeleton.edge_color)
            for edge in rng.sample(sorted(edge_color), rng.randint(1, 4)):
                del edge_color[edge]
            expected = product_coordinates(graph, edge_color, skeleton.n_colors)
            for _ in range(3):
                items = list(edge_color.items())
                rng.shuffle(items)
                assert product_coordinates(graph, dict(items), skeleton.n_colors) == expected
            outcomes.add(expected[3][0].split()[0] if expected[3] else "ok")
    assert {"ok", "color"} <= outcomes


def layer_failure(edges_of_color):
    """The product check's diagnostic on a hand-made coloring, the same on
    every order of its entries."""
    edge_color = {edge_key(u, v): c for c, edges in enumerate(edges_of_color) for u, v in edges}
    graph = Graph(1 + max(v for edge in edge_color for v in edge), edge_color)
    results = set()
    items = list(edge_color.items())
    for seed in range(4):
        random.Random(seed).shuffle(items)
        ok, coords, factors, diagnostics = product_coordinates(
            graph, dict(items), len(edges_of_color)
        )
        assert not ok and coords is None and factors is None
        results.add(tuple(diagnostics))
    (diagnostics,) = results
    return diagnostics


def test_a_layer_that_meets_its_reference_fiber_twice():
    # color 0 fibers {0,1,2} {3,4,5} {6,7,8}, color 1 fibers {0,1,3}
    # {2,5,8} {4,6,7}: sizes pass, and the layer of color 0 through 0, its
    # color-1 fiber, also holds 1
    diagnostics = layer_failure(
        [
            [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)],
            [(0, 3), (1, 3), (2, 5), (5, 8), (4, 6), (4, 7)],
        ]
    )
    assert diagnostics == ("a layer of color 0 meets its reference fiber twice",)


def test_a_layer_that_misses_its_reference_fiber():
    # four blocks of four vertices, each a color-2 path with two color-1
    # chords, so the layers of color 0 are the blocks; color 0 pairs block 0
    # with block 1 and block 2 with block 3, so its reference fiber {0, 4}
    # meets only two of the four layers
    blocks = [range(4 * b, 4 * b + 4) for b in range(4)]
    diagnostics = layer_failure(
        [
            [(v, v + 4) for b in (0, 2) for v in blocks[b]],
            [(b[0], b[2]) for b in blocks] + [(b[1], b[3]) for b in blocks],
            [(b[i], b[i + 1]) for b in blocks for i in range(3)],
        ]
    )
    assert diagnostics == ("fibers of color 0 are not connected by other colors",)
