from __future__ import annotations

import random

import pytest

from strongpfd import (
    Graph,
    GraphError,
    NeighborhoodCache,
    backbone,
    canonical_form,
    complete_graph,
    cycle_graph,
    factor_exact,
    factor_neighborhood,
    is_isomorphic,
    is_thin,
    oracle_pfd,
    path_graph,
    quotient,
    random_connected_graph,
    random_product_instance,
    random_thin_graph,
    reconstructs,
    recognize,
    strong_product,
    twisted_instance,
    verify_product,
)
from strongpfd.factorize import LocalFactorization
from strongpfd.oracle import GenerationError


def canon_multiset(factors):
    return sorted(canonical_form(f) for f in factors)


def test_oracle_examples():
    assert oracle_pfd(cycle_graph(5)).prime_count == 1
    assert [f.vertex_count for f in oracle_pfd(complete_graph(4)).factors] == [2, 2]
    graph, _ = strong_product([path_graph(3), path_graph(3)])
    result = oracle_pfd(graph)
    assert all(is_isomorphic(f, path_graph(3)) for f in result.factors)


def test_oracle_coordinates_reconstruct():
    graph, _ = strong_product([path_graph(2), path_graph(2), path_graph(3)])
    result = oracle_pfd(graph)
    assert reconstructs(graph, result)


def test_oracle_cap():
    with pytest.raises(GraphError):
        oracle_pfd(path_graph(17))


def test_oracle_agrees_with_factorizer_on_sample():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng.uniform(0.25, 0.8), seed=14000 + trial)
        assert canon_multiset(factor_exact(g).factors) == canon_multiset(
            oracle_pfd(g).factors
        )


def test_thin_generator_determinism_and_contract():
    a = random_thin_graph(6, 0.5, seed=42)
    b = random_thin_graph(6, 0.5, seed=42)
    assert a == b
    assert is_thin(a) and a.is_connected()


@pytest.mark.parametrize("edge_prob", [0.0, -0.5, 1.0, 1.5, float("nan")])
def test_thin_generator_refuses_a_probability_without_thin_graphs(edge_prob):
    # no edge, or every edge and so all vertices twins: nothing to sample
    with pytest.raises(GraphError, match="0 < edge probability < 1"):
        random_thin_graph(60, edge_prob, seed=1)


def test_thin_generator_gives_up_after_its_tries():
    with pytest.raises(GenerationError, match="in 20000 tries"):
        random_thin_graph(3, 1e-9, seed=1)


def test_three_vertex_thin_graph_is_path():
    for seed in range(5):
        g = random_thin_graph(3, 0.5, seed=seed)
        assert is_isomorphic(g, path_graph(3))


def test_product_instance_round_trip():
    inst = random_product_instance([3, 4], seed=77)
    assert inst.thin
    fact = LocalFactorization(inst.ground_truth_factors, inst.ground_truth_coords)
    assert reconstructs(inst.graph, fact)
    truth_coloring = {}
    from strongpfd import cartesian_edge_set, cartesian_index

    for u, v in cartesian_edge_set(inst.graph, inst.ground_truth_coords):
        truth_coloring[(u, v)] = cartesian_index(
            inst.graph, inst.ground_truth_coords, u, v
        )
    assert verify_product(inst.ground_truth_factors, truth_coloring, inst.graph)


def test_product_instance_seed_reproducible():
    a = random_product_instance([4, 5], seed=123)
    b = random_product_instance([4, 5], seed=123)
    assert a.graph == b.graph
    assert a.ground_truth_factors == b.ground_truth_factors


def test_three_factor_instance_prime_count():
    inst = random_product_instance([3, 3, 3], seed=5)
    counts = sum(oracle_pfd(f).prime_count for f in inst.ground_truth_factors)
    assert counts == 3
    # the instance itself is too big for the oracle, but the pipeline agrees
    report = recognize(inst.graph)
    assert report.in_upsilon
    assert len(report.extracted_factors) == 3


def test_twisted_fixture_is_the_twelve_vertex_strip():
    # the fixture is also an input of the benchmark, so its choice is frozen
    edges = [
        (0, 1), (0, 3), (0, 4), (0, 10), (0, 11), (1, 2), (1, 3), (1, 4), (1, 5),
        (1, 9), (1, 10), (1, 11), (2, 4), (2, 5), (2, 9), (2, 10), (3, 4), (3, 6),
        (3, 7), (4, 5), (4, 6), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 9),
        (6, 10), (7, 8), (7, 9), (7, 10), (7, 11), (8, 10), (8, 11), (9, 10), (10, 11),
    ]
    assert twisted_instance() == Graph(12, edges)


def test_twisted_fixture_properties():
    graph = twisted_instance()
    assert graph.vertex_count <= 16
    assert is_thin(graph) and graph.is_connected()
    assert oracle_pfd(graph).prime_count == 1
    # every backbone quotient has two prime factors, by the oracle and by the pipeline
    local = [
        quotient(graph.induced_subgraph(graph.closed_neighborhood(v))[0]).quotient
        for v in backbone(graph)
    ]
    assert {oracle_pfd(q).prime_count for q in local} == {2}
    counts = {factor_neighborhood(NeighborhoodCache(graph), v).prime_count for v in backbone(graph)}
    assert counts == {2}
    report = recognize(graph)
    assert not report.in_upsilon
