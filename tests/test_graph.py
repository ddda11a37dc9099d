from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpfd import (
    Graph,
    GraphError,
    NeighborhoodCache,
    complete_graph,
    cycle_graph,
    is_isomorphic,
    path_graph,
    strong_product,
)
from strongpfd.factorize import factor_neighborhood


def test_rejects_self_loops_and_bad_ids():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1)


@pytest.mark.parametrize(
    "args",
    [(3, [(0, 1.5)]), (3, [(0, 1.0)]), (3, [(0, "1")]), (3, [5]), ("3",), (3.0,), (True,)],
    ids=["float id", "whole float id", "string id", "not a pair", "string n", "float n", "bool n"],
)
def test_an_id_or_count_that_is_not_an_int_is_refused(args):
    # these raised a raw TypeError, and True was taken as n = 1
    with pytest.raises(GraphError):
        Graph(*args)


@pytest.mark.parametrize("radius", [1.5, 1.0, True, -1])
def test_a_radius_that_is_not_a_nonnegative_int_is_refused(radius):
    with pytest.raises(GraphError):
        path_graph(5).n_neighborhood(1, radius)
    # also where ``count`` already staged the 1-ball around the center
    cache = NeighborhoodCache(strong_product([path_graph(4), path_graph(3)])[0])
    for staged in (False, True):
        if staged:
            cache.count(5)
        with pytest.raises(GraphError):
            factor_neighborhood(cache, 5, radius)


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_closed_neighborhood_p3():
    p3 = path_graph(3)
    assert p3.closed_neighborhood(1) == (0, 1, 2)
    assert p3.closed_neighborhood(0) == (0, 1)


def test_closed_neighborhood_c5_size():
    c5 = cycle_graph(5)
    for v in c5.vertices():
        assert len(c5.closed_neighborhood(v)) == 3


def test_closed_neighborhood_contains_self():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    for v in g.vertices():
        assert v in g.closed_neighborhood(v)


def test_n_neighborhood_radius_zero_and_path():
    p5 = path_graph(5)
    assert p5.n_neighborhood(2, 0) == (2,)
    assert p5.n_neighborhood(0, 2) == (0, 1, 2)


def test_n_neighborhood_matches_closed_at_radius_one():
    g = Graph(6, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    for v in g.vertices():
        assert g.n_neighborhood(v, 1) == g.closed_neighborhood(v)


def test_n_neighborhood_product_center(p3xp3):
    graph, coords = p3xp3
    center = coords.vertex_at((1, 1))
    assert graph.n_neighborhood(center, 1) == tuple(range(9))


def test_induced_subgraph_full_is_isomorphic():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    sub, mapping = g.induced_subgraph(g.vertices())
    assert mapping == {v: v for v in g.vertices()}
    assert sub == g


def test_induced_subgraph_c5_arc_is_p3():
    c5 = cycle_graph(5)
    sub, _ = c5.induced_subgraph([1, 2, 3])
    assert is_isomorphic(sub, path_graph(3))


def test_induced_subgraph_of_corner_neighborhood_is_k4(p3xp3):
    graph, coords = p3xp3
    corner = coords.vertex_at((0, 0))
    sub, _ = graph.induced_subgraph(graph.closed_neighborhood(corner))
    assert is_isomorphic(sub, complete_graph(4))


def test_induced_subgraph_empty_rejected():
    with pytest.raises(GraphError):
        path_graph(3).induced_subgraph([])


def test_distance_basics():
    p4 = path_graph(4)
    assert p4.distances_from(0) == [0, 1, 2, 3]
    assert p4.distances_from(3)[0] == 3
    assert Graph(4, [(0, 1), (2, 3)]).distances_from(0) == [0, 1, -1, -1]


def test_connectivity_and_degrees():
    assert Graph(1).is_connected()
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert not two_edges.is_connected()
    c5 = cycle_graph(5)
    assert c5.is_connected()
    assert c5.degree(0) == 2


def test_relabeled_roundtrip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    perm = [2, 0, 3, 1]
    h = g.relabeled(perm)
    assert is_isomorphic(g, h)
    inverse = [0] * 4
    for old, new in enumerate(perm):
        inverse[new] = old
    assert h.relabeled(inverse) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=2, max_value=9))
def test_random_graph_invariants(seed, n):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    g = Graph(n, edges)
    for v in g.vertices():
        assert v in g.closed_neighborhood(v)
        ball1 = set(g.n_neighborhood(v, 1))
        ball2 = set(g.n_neighborhood(v, 2))
        assert ball1 <= ball2
    if g.is_connected() and n >= 3:
        a, b, c = rng.sample(range(n), 3)
        dist_a, dist_b = g.distances_from(a), g.distances_from(b)
        assert dist_a[c] <= dist_a[b] + dist_b[c]


def test_distance_on_product_is_max_of_factor_distances():
    rng = random.Random(5)
    p4, c5 = path_graph(4), cycle_graph(5)
    graph, coords = strong_product([p4, c5])
    for _ in range(50):
        u, v = rng.randrange(20), rng.randrange(20)
        cu, cv = coords.coords[u], coords.coords[v]
        expected = max(p4.distances_from(cu[0])[cv[0]], c5.distances_from(cu[1])[cv[1]])
        assert graph.distances_from(u)[v] == expected


@st.composite
def edge_built_graphs(draw):
    """Simple graphs on 0..14 vertices built from edges.  A few vertices are
    then made twins of an earlier vertex, so many draws are not thin, and
    sparse draws are often disconnected."""
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [set() for _ in range(n)]
    for (u, v), edge in zip(pairs, chosen):
        if edge:
            adj[u].add(v)
            adj[v].add(u)
    vertex = st.integers(min_value=0, max_value=13)
    for s, t in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        if s < t < n:
            # t takes the closed neighborhood of s
            for w in adj[t]:
                adj[w].discard(t)
            adj[t] = (adj[s] | {s}) - {t}
            for w in adj[t]:
                adj[w].add(t)
    return Graph(n, [(u, v) for u, v in pairs if v in adj[u]])


@settings(max_examples=300, deadline=None)
@given(edge_built_graphs())
def test_thinness_and_maximal_vertices_match_the_mask_definitions(graph):
    n = graph.vertex_count
    masks = [sum(1 << u for u in graph.neighbors(v)) | 1 << v for v in range(n)]
    assert graph.thin == (len(set(masks)) == n)
    assert graph.maximal_vertices == tuple(
        v
        for v in range(n)
        if not any(u != v and masks[v] | masks[u] == masks[u] for u in range(n))
    )
    assert "closed_masks" not in vars(graph)


@st.composite
def closed_masks(draw):
    """Closed-neighborhood bitmasks of an arbitrary simple graph on 1..12
    vertices: symmetric, each holding its own bit."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    masks = [1 << v for v in range(n)]
    for (u, v), edge in zip(pairs, chosen):
        if edge:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


@settings(max_examples=200, deadline=None)
@given(closed_masks())
def test_graph_from_masks_equals_the_edge_built_graph(masks):
    n = len(masks)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]
    built = Graph(n, edges)
    graph = Graph.from_closed_masks(masks)
    assert graph == built
    assert list(graph.edges()) == edges
    assert graph.closed_masks is masks
    assert built.closed_masks == masks
    assert graph.thin == built.thin
    assert graph.is_connected() == built.is_connected()
    assert graph.maximal_vertices == built.maximal_vertices
    assert all(graph.neighbors(v) == built.neighbors(v) for v in range(n))
