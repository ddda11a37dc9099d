"""Graphs that are not thin, factored through their thin quotient.

``factor_exact`` must give the oracle's factor multiset, up to isomorphism,
on a seeded corpus of graphs that are not thin, and every result must
rebuild its graph edge-exactly.  Near products of 24 vertices and the
complete graphs up to K_24, on which a search over vertex subsets took
seconds to minutes, are pinned with a time bound.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongpfd import (
    Graph,
    canonical_form,
    complete_graph,
    factor_exact,
    is_thin,
    oracle_pfd,
    path_graph,
    random_connected_graph,
    strong_product,
)
from strongpfd.cli import main
from strongpfd.factorize import rebuilds_strong_product, reconstructs
from strongpfd.io import save_graph

COMPOSITE_ORDERS = (4, 6, 8, 9, 10, 12, 14, 15, 16)

#: the per-operation time bound, in seconds, on the pinned inputs
TIME_BOUND_S = 0.5


def relabeled(rng: random.Random, graph: Graph) -> Graph:
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return graph.relabeled(perm)


def near_product(seed: int) -> Graph:
    """The strong product of two random connected 4-vertex graphs with two
    vertex pairs toggled between edge and non-edge, relabelled."""
    rng = random.Random(seed)
    factors = [random_connected_graph(4, rng.uniform(0.2, 0.7), rng.randrange(2**32)) for _ in "AB"]
    edges = set(strong_product(factors)[0].edges())
    for _ in range(2):
        u, v = sorted(rng.sample(range(16), 2))
        edges ^= {(u, v)}
    return relabeled(rng, Graph(16, edges))


#: Seeds of near products with candidate fibers that obey the degree and
#: edge-count laws of a product but are not isometric.
FALSE_FIBER_SEEDS = (292, 332, 699)


def non_thin_corpus() -> list[tuple[str, Graph]]:
    """Relabelled products of random connected factors of 2-4 vertices,
    random connected graphs of composite order up to 16, and near products
    whose laws admit a fiber that is not isometric, all not thin."""
    rng = random.Random(20091004)
    cases = []
    while len(cases) < 60:
        sizes = [rng.randint(2, 4) for _ in range(rng.choice((2, 2, 3)))]
        if len(sizes) == 3 and sizes[0] * sizes[1] * sizes[2] > 16:
            continue
        p = rng.uniform(0.3, 0.8)
        factors = [random_connected_graph(s, p, rng.randrange(2**32)) for s in sizes]
        graph = relabeled(rng, strong_product(factors)[0])
        if not is_thin(graph):
            cases.append((f"product{sizes}p{p:.2f}", graph))
    while len(cases) < 120:
        n = rng.choice(COMPOSITE_ORDERS)
        p = rng.uniform(0.3, 0.8)
        graph = random_connected_graph(n, p, rng.randrange(2**32))
        if not is_thin(graph):
            cases.append((f"random{n}p{p:.2f}", graph))
    cases += [(f"near_product#{seed}", near_product(seed)) for seed in FALSE_FIBER_SEEDS]
    return cases


CORPUS = non_thin_corpus()


def factor_multiset(factors) -> list[bytes]:
    return sorted(canonical_form(f) for f in factors)


def near_product_of_24(seed: int) -> Graph:
    """The strong product of random connected graphs of 2, 3 and 4 vertices
    with one or two vertex pairs toggled between edge and non-edge,
    relabelled."""
    rng = random.Random(seed)
    factors = [
        random_connected_graph(k, rng.uniform(0.3, 0.8), rng.randrange(2**32)) for k in (2, 3, 4)
    ]
    edges = set(strong_product(factors)[0].edges())
    for _ in range(rng.choice((1, 2))):
        u, v = sorted(rng.sample(range(24), 2))
        edges ^= {(u, v)}
    return relabeled(rng, Graph(24, edges))


def prime_factors(n: int) -> list[int]:
    found, d = [], 2
    while n > 1:
        while n % d == 0:
            found.append(d)
            n //= d
        d += 1
    return found


def test_the_corpus_is_not_thin_and_has_both_verdicts():
    assert len(CORPUS) == 123
    assert all(not is_thin(graph) for _, graph in CORPUS)
    primes = sum(len(factor_exact(graph).factors) == 1 for _, graph in CORPUS)
    assert 0 < primes < len(CORPUS)


def test_factors_match_the_oracle_and_rebuild_the_graph():
    for label, graph in CORPUS:
        result = factor_exact(graph)
        assert reconstructs(graph, result), label
        assert factor_multiset(result.factors) == factor_multiset(oracle_pfd(graph).factors), label


def test_a_prime_result_is_the_input_itself():
    # the one factor of a prime graph carries the input's own edges
    for label, graph in CORPUS:
        result = factor_exact(graph)
        if len(result.factors) == 1:
            assert result.factors[0] is graph, label
            assert result.coords.coords == tuple((v,) for v in range(graph.vertex_count)), label


def with_a_twin(graph: Graph, v: int) -> Graph:
    """``graph`` with one more vertex, a twin of v: adjacent to v and to
    each neighbor of v."""
    n = graph.vertex_count
    return Graph(n + 1, [*graph.edges(), (v, n), *((w, n) for w in graph.neighbors(v))])


def twin_linked_square(cell: tuple[int, int]) -> Graph:
    """P3 ⊠ P3 with its vertex at ``cell`` doubled into two twins."""
    square, cells = strong_product([path_graph(3), path_graph(3)])
    return with_a_twin(square, cells.vertex_at(cell))


@pytest.mark.parametrize("cell", [(0, 0), (1, 1)], ids=["corner", "center"])
def test_a_doubled_class_links_the_coordinates_of_its_quotient(cell):
    # one class of P3 x P3 blown up to two twins: the quotient is P3 x P3,
    # and its class sizes are a product of no two functions of one
    # coordinate each, so both coordinates make one prime factor, the
    # input itself; times K2 or P3 it stays one factor of the product
    graph = twin_linked_square(cell)
    assert graph.vertex_count == 10 and not is_thin(graph)
    assert factor_exact(graph, size_cap=None).factors == (graph,)
    assert len(oracle_pfd(graph).factors) == 1
    for other in (complete_graph(2), path_graph(3)):
        product = strong_product([graph, other])[0]
        result = factor_exact(product, size_cap=None)
        assert factor_multiset(result.factors) == factor_multiset([graph, other])
        assert rebuilds_strong_product(product, result.coords.coords, result.factors)


def test_near_products_of_24_vertices_factor_in_bounded_time():
    for seed in range(256):
        graph = near_product_of_24(seed)
        assert graph.is_connected() and not is_thin(graph), seed
        start = time.perf_counter()
        result = factor_exact(graph)
        elapsed = time.perf_counter() - start
        assert elapsed < TIME_BOUND_S, (seed, elapsed)
        assert math.prod(f.vertex_count for f in result.factors) == 24, seed
        assert reconstructs(graph, result), seed


def test_complete_graphs_factor_through_the_cli(tmp_path, capsys):
    # K_n is n twins: its quotient is one vertex and each prime p of n
    # gives a factor K_p
    for n in range(2, 25):
        path = tmp_path / f"k{n}.json"
        save_graph(complete_graph(n), path)
        start = time.perf_counter()
        assert main(["factor-exact", "--input", str(path)]) == 0, n
        assert time.perf_counter() - start < TIME_BOUND_S, n
        data = json.loads(capsys.readouterr().out)
        assert [f["n"] for f in data["factors"]] == prime_factors(n), n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3).filter(
        lambda sizes: math.prod(sizes) <= 16
    ),
    edge_prob=st.sampled_from([0.3, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
    twins=st.integers(0, 2),
    shuffle=st.randoms(use_true_random=False),
)
def test_non_thin_graphs_match_the_oracle(sizes, edge_prob, seed, twins, shuffle):
    # a random product, with up to two vertices turned into twins of
    # others, so that some inputs are products and some are prime
    rng = random.Random(seed)
    factors = [random_connected_graph(s, edge_prob, rng.randrange(2**32)) for s in sizes]
    graph = strong_product(factors)[0]
    n = graph.vertex_count
    rows = [set(graph.adjacency_set(v)) for v in range(n)]
    for _ in range(twins if n > 2 else 0):
        u, v = rng.sample(range(n), 2)
        for w in rows[v]:
            rows[w].discard(v)
        rows[v] = (rows[u] | {u}) - {v} if rng.random() < 0.5 else rows[u] - {v}
        for w in rows[v]:
            rows[w].add(v)
    graph = relabeled(shuffle, Graph(n, [(u, v) for u in range(n) for v in rows[u] if u < v]))
    assume(graph.is_connected() and not is_thin(graph))
    result = factor_exact(graph)
    assert reconstructs(graph, result)
    assert factor_multiset(result.factors) == factor_multiset(oracle_pfd(graph).factors)
