from __future__ import annotations

import itertools
import random

import pytest

from strongpfd import (
    Graph,
    GraphError,
    cartesian_edge_set,
    cartesian_index,
    cartesian_product,
    complete_graph,
    cycle_graph,
    is_isomorphic,
    path_graph,
    strong_product,
)
from strongpfd.oracle import random_connected_graph


def brute_strong_edges(factors):
    """Independent adjacency enumeration straight from the product rule."""
    sizes = [f.vertex_count for f in factors]
    coords = list(itertools.product(*(range(s) for s in sizes)))
    index = {c: i for i, c in enumerate(coords)}
    edges = set()
    for cu in coords:
        for cv in coords:
            if cu >= cv:
                continue
            if all(a == b or factors[i].adjacent(a, b) for i, (a, b) in enumerate(zip(cu, cv))):
                edges.add((index[cu], index[cv]))
    return edges


def test_k2_strong_k2_is_k4():
    g, _ = strong_product([complete_graph(2), complete_graph(2)])
    assert is_isomorphic(g, complete_graph(4))


def test_p3_strong_p3_counts(p3xp3):
    graph, _ = p3xp3
    assert graph.vertex_count == 9
    assert graph.edge_count == 20
    assert set(graph.edges()) == brute_strong_edges([path_graph(3), path_graph(3)])


def test_strong_product_identity_factor():
    g = cycle_graph(6)
    prod, _ = strong_product([g, Graph(1)])
    assert is_isomorphic(prod, g)


def test_cartesian_k2_k2_is_c4():
    g, _ = cartesian_product([complete_graph(2), complete_graph(2)])
    assert is_isomorphic(g, cycle_graph(4))


def test_cartesian_grid_edge_count():
    g, _ = cartesian_product([path_graph(3), path_graph(3)])
    assert g.vertex_count == 9
    assert g.edge_count == 12


def test_cartesian_identity_factor():
    g = path_graph(4)
    prod, _ = cartesian_product([g, Graph(1)])
    assert is_isomorphic(prod, g)


def test_empty_factor_list_rejected():
    with pytest.raises(GraphError):
        strong_product([])
    with pytest.raises(GraphError):
        cartesian_product([])


def test_projection_and_vertex_at(p3xp3):
    _, coords = p3xp3
    v = coords.vertex_at((2, 1))
    assert coords.coords[v] == (2, 1)
    for u in range(9):
        assert coords.vertex_at(coords.coords[u]) == u


def test_projection_single_factor_identity():
    g = path_graph(4)
    _, coords = strong_product([g])
    assert coords.coords == tuple((v,) for v in range(4))


def test_fiber_through_corner(p3xp3):
    # the vertices that share the corner's second coordinate induce the first factor
    graph, coords = p3xp3
    fiber = [v for v in graph.vertices() if coords.coords[v][1] == 0]
    assert len(fiber) == 3
    sub, _ = graph.induced_subgraph(fiber)
    assert is_isomorphic(sub, path_graph(3))


def test_cartesian_index_examples(p3xp3):
    graph, coords = p3xp3
    a, b = coords.vertex_at((0, 0)), coords.vertex_at((0, 1))
    assert cartesian_index(graph, coords, a, b) == 1
    d = coords.vertex_at((1, 1))
    assert cartesian_index(graph, coords, a, d) is None
    with pytest.raises(GraphError):
        cartesian_index(graph, coords, a, coords.vertex_at((2, 2)))


def test_single_factor_every_edge_cartesian():
    g = cycle_graph(5)
    prod, coords = strong_product([g])
    for u, v in prod.edges():
        assert cartesian_index(prod, coords, u, v) == 0


def test_distance_law_on_random_factors():
    rng = random.Random(42)
    for trial in range(20):
        f1 = random_connected_graph(rng.randint(2, 5), 0.5, seed=100 + trial)
        f2 = random_connected_graph(rng.randint(2, 5), 0.5, seed=200 + trial)
        graph, coords = strong_product([f1, f2])
        for _ in range(10):
            u = rng.randrange(graph.vertex_count)
            v = rng.randrange(graph.vertex_count)
            cu, cv = coords.coords[u], coords.coords[v]
            assert graph.distances_from(u)[v] == max(
                f1.distances_from(cu[0])[cv[0]], f2.distances_from(cu[1])[cv[1]]
            )


@pytest.mark.parametrize("radius", [1, 2])
def test_neighborhood_subproduct_law(radius):
    rng = random.Random(7)
    for trial in range(8):
        f1 = random_connected_graph(rng.randint(2, 5), 0.55, seed=300 + trial)
        f2 = random_connected_graph(rng.randint(2, 5), 0.55, seed=400 + trial)
        graph, coords = strong_product([f1, f2])
        v = rng.randrange(graph.vertex_count)
        x, y = coords.coords[v]
        ball, _ = graph.induced_subgraph(graph.n_neighborhood(v, radius))
        b1, _ = f1.induced_subgraph(f1.n_neighborhood(x, radius))
        b2, _ = f2.induced_subgraph(f2.n_neighborhood(y, radius))
        expected, _ = strong_product([b1, b2])
        assert is_isomorphic(ball, expected)


def test_associativity_up_to_isomorphism():
    a, b, c = path_graph(2), path_graph(3), cycle_graph(3)
    left, _ = strong_product([a, b])
    left2, _ = strong_product([left, c])
    right, _ = strong_product([b, c])
    right2, _ = strong_product([a, right])
    flat, _ = strong_product([a, b, c])
    assert is_isomorphic(left2, right2)
    assert is_isomorphic(left2, flat)


def test_cartesian_edges_restricted_to_fiber_give_factor(p3xp3):
    graph, coords = p3xp3
    cart = cartesian_edge_set(graph, coords)
    fiber = [v for v in graph.vertices() if coords.coords[v][0] == 0]
    inside = [e for e in cart if e[0] in fiber and e[1] in fiber]
    restricted = Graph(graph.vertex_count, inside)
    sub, _ = restricted.induced_subgraph(fiber)
    assert is_isomorphic(sub, path_graph(3))
    non_cart = [e for e in graph.edges() if e not in cart]
    assert len(cart) + len(non_cart) == graph.edge_count
    assert len(cart) == 12
