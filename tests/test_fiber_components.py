"""``skeleton.fiber_components`` against a per-color breadth-first search.

The reference below walks one color at a time from every unvisited vertex in
ascending order, the way the package split colorings into fibers before one
routine served every caller.  Both must give the same fiber ids, the same
sorted members and the same per-color neighbor sets, on finished skeletons
and on partial colorings that leave vertices isolated.  The product check
built on it must not depend on the order of the coloring's entries.
"""

from __future__ import annotations

import random
from collections import deque

from strongpfd import NeighborhoodCache, build_skeleton, random_connected_graph
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
    # Skeletons with a few edges dropped give colorings on which the path that
    # first reaches a fiber decides the verdict; a check that followed the
    # coloring's entry order fails transport on some orders of them and
    # verifies on others.
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
    assert {"ok", "fiber"} <= outcomes
