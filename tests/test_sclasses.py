from __future__ import annotations

import random

import pytest

from strongpfd import (
    Graph,
    GraphError,
    NotThinError,
    backbone,
    complete_graph,
    cycle_graph,
    is_isomorphic,
    is_thin,
    path_graph,
    quotient,
    strong_product,
)
from strongpfd.oracle import random_thin_graph

from conftest import (
    house_graph,
    neighborhood_blind_product,
    relative_classes,
    s1_witness,
    s_class_size,
    wheel_graph,
)


def visible_twin_graph():
    """Thin graph whose apex neighborhood is not thin: inside <N[0]> the
    vertices 1 and 2 collapse while 0 and 3 stay alone."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])


def test_relative_partition_of_thin_graph_is_discrete():
    g = path_graph(4)
    assert all(len(cls) == 1 for cls in relative_classes(g, g.vertices()))


def test_relative_partition_complete_graph_single_class():
    g = complete_graph(3)
    assert relative_classes(g, g.vertices()) == [(0, 1, 2)]


def test_relative_partition_inside_apex_neighborhood():
    g = visible_twin_graph()
    assert is_thin(g)
    assert relative_classes(g, g.closed_neighborhood(0)) == [(0,), (1, 2), (3,)]
    assert s_class_size(g, 0, 1) == 2


def test_is_thin_examples(p3xp3):
    assert is_thin(path_graph(3))
    assert not is_thin(complete_graph(4))
    graph, _ = p3xp3
    assert is_thin(graph)


def test_quotient_of_thin_graph_is_identity_shape():
    g = path_graph(4)
    q = quotient(g)
    assert is_isomorphic(q.quotient, g)
    assert all(len(cls) == 1 for cls in q.class_members)


def test_quotient_of_complete_graph_is_point():
    q = quotient(complete_graph(5))
    assert q.quotient.vertex_count == 1
    assert q.class_members == ((0, 1, 2, 3, 4),)


def test_quotient_of_k2_product_drops_k2():
    graph, _ = strong_product([complete_graph(2), path_graph(3)])
    q = quotient(graph)
    assert is_isomorphic(q.quotient, path_graph(3))
    assert is_thin(q.quotient)


def test_quotient_is_always_thin():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(2, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        q = quotient(Graph(n, edges))
        assert is_thin(q.quotient)


def test_backbone_examples():
    assert backbone(path_graph(3)) == (1,)
    assert backbone(cycle_graph(5)) == (0, 1, 2, 3, 4)
    assert backbone(path_graph(4)) == (1, 2)


def test_backbone_rejects_non_thin_and_disconnected():
    with pytest.raises(NotThinError):
        backbone(complete_graph(4))
    with pytest.raises(GraphError):
        backbone(Graph(4, [(0, 1), (2, 3)]))


def test_backbone_strict_maximality_equivalence():
    rng = random.Random(3)
    for trial in range(25):
        g = random_thin_graph(rng.randint(3, 10), 0.45, seed=500 + trial)
        masks = g.closed_masks
        by_maximality = tuple(
            v
            for v in g.vertices()
            if not any(
                masks[v] | masks[u] == masks[u] for u in g.vertices() if u != v
            )
        )
        assert backbone(g) == by_maximality


def test_backbone_is_connected_dominating_set():
    rng = random.Random(9)
    for trial in range(40):
        g = random_thin_graph(rng.randint(3, 11), rng.uniform(0.3, 0.6), seed=600 + trial)
        members = backbone(g)
        sub, _ = g.induced_subgraph(members)
        assert sub.is_connected()
        covered = set(members)
        for v in members:
            covered.update(g.neighbors(v))
        assert covered == set(g.vertices())


def test_backbone_of_single_hub_graphs():
    w5 = wheel_graph(5)
    assert backbone(w5) == (5,)
    # with a one-vertex backbone every class relative to the hub is trivial
    assert all(s_class_size(w5, 5, w) == 1 for w in w5.vertices())


def test_large_own_class_contains_backbone_member():
    # vertices whose own class is large contain a backbone member with a
    # strictly larger neighborhood
    rng = random.Random(21)
    for trial in range(25):
        g = random_thin_graph(rng.randint(3, 10), 0.5, seed=700 + trial)
        bset = set(backbone(g))
        masks = g.closed_masks
        for v in g.vertices():
            cls = [
                w
                for w in g.closed_neighborhood(v)
                if masks[w] & masks[v] == masks[v]
            ]
            if len(cls) > 1:
                assert any(w in bset for w in cls if w != v)


def test_s1_witness_backbone_vertex_is_self_witness():
    g = path_graph(4)
    # 1 is in the backbone, so the edge (0, 1) has witness 1 at worst
    z = s1_witness(g, 0, 1)
    assert z is not None
    assert s_class_size(g, z, 0) == 1 or s_class_size(g, z, 1) == 1


def test_s1_witness_on_product_is_center(p3xp3):
    graph, coords = p3xp3
    center = coords.vertex_at((1, 1))
    a, b = coords.vertex_at((0, 0)), coords.vertex_at((0, 1))
    assert s1_witness(graph, a, b) == center


def test_s1_witness_missing_on_blind_fiber():
    graph, coords = neighborhood_blind_product()
    fiber = [v for v in range(graph.vertex_count) if coords.coords[v][1] == 0]
    edges = [
        (u, v) for u in fiber for v in fiber if u < v and graph.adjacent(u, v)
    ]
    assert edges
    for u, v in edges:
        assert s1_witness(graph, u, v) is None


def test_s1_witness_requires_edge_and_thin():
    with pytest.raises(GraphError):
        s1_witness(path_graph(4), 0, 3)
    with pytest.raises(NotThinError):
        s1_witness(complete_graph(3), 0, 1)


def test_edge_without_witness_has_backbone_helper():
    # every witness-free edge admits a backbone vertex adjacent to both ends
    # whose own edges to the endpoints do have witnesses
    graph, coords = neighborhood_blind_product()
    bset = set(backbone(graph))
    fiber = [v for v in range(graph.vertex_count) if coords.coords[v][1] == 0]
    for u, v in [(a, b) for a in fiber for b in fiber if a < b and graph.adjacent(a, b)]:
        common = (
            set(graph.closed_neighborhood(u))
            & set(graph.closed_neighborhood(v))
            & bset
        )
        assert common
        z = min(common)
        assert s1_witness(graph, *sorted((z, u))) is not None
        assert s1_witness(graph, *sorted((z, v))) is not None


def test_quotient_of_product_is_product_of_quotients():
    cases = [
        (complete_graph(2), path_graph(3)),
        (complete_graph(3), path_graph(4)),
        (complete_graph(2), cycle_graph(5)),
    ]
    for f1, f2 in cases:
        graph, _ = strong_product([f1, f2])
        q = quotient(graph)
        q1 = quotient(f1).quotient
        q2 = quotient(f2).quotient
        expected, _ = strong_product([q1, q2])
        assert is_isomorphic(q.quotient, expected)


def test_relative_class_sizes_multiply_over_products():
    rng = random.Random(13)
    from strongpfd.oracle import random_connected_graph

    for trial in range(15):
        f1 = random_connected_graph(rng.randint(2, 5), 0.6, seed=800 + trial)
        f2 = random_connected_graph(rng.randint(2, 5), 0.6, seed=900 + trial)
        graph, coords = strong_product([f1, f2])
        for _ in range(8):
            x = rng.randrange(graph.vertex_count)
            v = rng.choice(graph.closed_neighborhood(x))
            x1, x2 = coords.coords[x]
            v1, v2 = coords.coords[v]
            assert s_class_size(graph, v, x) == s_class_size(f1, v1, x1) * s_class_size(
                f2, v2, x2
            )


def test_backbone_of_product_is_product_of_backbones():
    rng = random.Random(17)
    for trial in range(12):
        f1 = random_thin_graph(rng.randint(3, 6), 0.5, seed=1000 + trial)
        f2 = random_thin_graph(rng.randint(3, 6), 0.5, seed=1100 + trial)
        graph, coords = strong_product([f1, f2])
        expected = {
            coords.vertex_at((a, b)) for a in backbone(f1) for b in backbone(f2)
        }
        assert set(backbone(graph)) == expected


def test_house_graph_shape():
    h = house_graph()
    assert is_thin(h)
    assert h.is_connected()
    assert backbone(h) == (1, 2, 3, 4)
