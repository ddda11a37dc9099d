"""The O(m·k) strong-product check against the pairwise scan it replaced.

``rebuilds_strong_product`` checks edges and degrees only; the scan below
compares the strong rule with adjacency on all n² pairs and serves as the
oracle.  On seeded products and on coordinate maps perturbed by one swap,
one dropped edge or one added edge, both must give the same verdict, and
the first failing pair named in the diagnostic must be the scan's.  A
single factor under identity coordinates is checked by graph equality; on
exact, edited and relabelled factors it must agree with the general
edge-and-degree check, frozen below.
"""

from __future__ import annotations

import math
import random

import pytest

from strongpfd import (
    Graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_product_instance,
)
from strongpfd.factorize import rebuilds_strong_product
from strongpfd.products import strong_product
from strongpfd.skeleton import _first_mismatch


def strong_rule_adjacent(cu, cv, factors) -> bool:
    if cu == cv:
        return False
    return all(cu[i] == cv[i] or factors[i].adjacent(cu[i], cv[i]) for i in range(len(factors)))


def first_failing_pair(graph, coords, factors):
    n = graph.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            if strong_rule_adjacent(coords[u], coords[v], factors) != graph.adjacent(u, v):
                return u, v
    return None


def seeded_products(count: int):
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 4 == 3:
            factors = [random_connected_graph(rng.randint(2, 4), 0.6, rng.randrange(2**32)) for _ in range(3)]
        else:
            sizes = [rng.randint(3, 6), rng.randint(3, 6)]
            inst = random_product_instance(sizes, seed=seed, edge_prob=rng.uniform(0.3, 0.7))
            factors = list(inst.ground_truth_factors)
        graph, coords = strong_product(factors)
        yield rng, graph, list(coords.coords), factors


def perturbations(rng: random.Random, graph: Graph, coords: list[tuple[int, ...]]):
    n = graph.vertex_count
    u, v = rng.sample(range(n), 2)
    swapped = list(coords)
    swapped[u], swapped[v] = swapped[v], swapped[u]
    yield "swap", graph, swapped
    edges = list(graph.edges())
    dropped = rng.choice(edges)
    yield "drop", Graph(n, [e for e in edges if e != dropped]), coords
    missing = [(a, b) for a in range(n) for b in range(a + 1, n) if not graph.adjacent(a, b)]
    if missing:
        yield "add", Graph(n, edges + [rng.choice(missing)]), coords


def test_linear_check_agrees_with_the_pairwise_scan():
    verdicts = {True: 0, False: 0}
    for rng, graph, coords, factors in seeded_products(120):
        assert rebuilds_strong_product(graph, coords, factors)
        assert first_failing_pair(graph, coords, factors) is None
        for kind, g, c in perturbations(rng, graph, coords):
            expected = first_failing_pair(g, c, factors)
            verdict = rebuilds_strong_product(g, c, factors)
            assert verdict == (expected is None), kind
            verdicts[verdict] += 1
            if expected is not None:
                assert _first_mismatch(g, c, factors) == expected, kind
    # swaps of automorphic vertices keep a valid map; edge edits never do
    assert verdicts[True] > 0 and verdicts[False] > 200


def moved_column(factors, column: int, old: int, new: int):
    """The strong product of ``factors`` with every coordinate ``old`` in
    ``column`` replaced by ``new``, which no vertex held."""
    graph, coords = strong_product(factors)
    rows = [
        c[:column] + (new if c[column] == old else c[column],) + c[column + 1 :]
        for c in coords.coords
    ]
    return graph, rows, factors


@pytest.mark.parametrize(
    "graph,coords,factors",
    [
        (path_graph(2), [(0,), (1,)], [path_graph(3)]),  # an induced subproduct
        (Graph(1), [(0,)], [Graph(2)]),  # a whole component of a disconnected product
        (path_graph(3), [(0,), (1,), (1,)], [path_graph(3)]),  # not injective
        (path_graph(3), [(0,), (1,), (3,)], [path_graph(3)]),  # out of range
        (path_graph(3), [(0,), (1,), (2, 0)], [path_graph(3)]),  # ragged
        moved_column([path_graph(3), path_graph(4)], 0, 2, -1),  # negative in one column
        # out of range in the second of three columns
        moved_column([path_graph(2), path_graph(3), path_graph(2)], 1, 2, 3),
    ],
)
def test_coordinates_must_be_a_bijection_onto_the_product(graph, coords, factors):
    assert not rebuilds_strong_product(graph, coords, factors)


def test_trivial_product():
    assert rebuilds_strong_product(Graph(1), [()], [])
    assert not rebuilds_strong_product(path_graph(2), [(), ()], [])


# -- one factor under identity coordinates ----------------------------------------


def strong_rule_check(graph, coords, factors) -> bool:
    """The general edge-and-degree check, frozen as it was before one-factor
    results under identity coordinates became a graph comparison."""
    n = graph.vertex_count
    sizes = [f.vertex_count for f in factors]
    if len(coords) != n or math.prod(sizes) != n or len(set(coords)) != n:
        return False
    if any(len(c) != len(sizes) or not all(0 <= x < s for x, s in zip(c, sizes)) for c in coords):
        return False
    for u, v in graph.edges():
        if not strong_rule_adjacent(coords[u], coords[v], factors):
            return False
    span = range(len(factors))
    return all(
        math.prod(factors[i].degree(c[i]) + 1 for i in span) - 1 == graph.degree(u)
        for u, c in enumerate(coords)
    )


def one_factor_cases(rng: random.Random, graph: Graph, perm: list[int]):
    n = graph.vertex_count
    identity = [(u,) for u in range(n)]
    edges = list(graph.edges())
    yield "itself", identity, graph
    dropped = rng.choice(edges)
    yield "drop", identity, Graph(n, [e for e in edges if e != dropped])
    missing = [(a, b) for a in range(n) for b in range(a + 1, n) if not graph.adjacent(a, b)]
    if missing:
        yield "add", identity, Graph(n, edges + [rng.choice(missing)])
    relabelled = graph.relabeled(perm)
    yield "relabelled", identity, relabelled
    yield "moved", [(p,) for p in perm], relabelled
    yield "moved onto itself", [(p,) for p in perm], graph


def test_one_factor_equality_agrees_with_the_strong_rule():
    verdicts = {}
    for seed in range(80):
        rng = random.Random(seed)
        if seed % 4 == 3:
            # a rotation of a cycle is an automorphism
            n = rng.randint(4, 12)
            graph, perm = cycle_graph(n), [(u + seed) % n for u in range(n)]
        else:
            if seed % 2:
                graph = random_connected_graph(rng.randint(4, 12), rng.uniform(0.3, 0.7), seed)
            else:
                graph = random_product_instance([3, rng.randint(3, 4)], seed=seed).graph
            perm = list(range(graph.vertex_count))
            rng.shuffle(perm)
        for kind, coords, factor in one_factor_cases(rng, graph, perm):
            verdict = rebuilds_strong_product(graph, coords, [factor])
            assert verdict == strong_rule_check(graph, coords, [factor]), (seed, kind)
            verdicts.setdefault(kind, set()).add(verdict)
    assert verdicts["itself"] == verdicts["moved"] == {True}
    assert verdicts["drop"] == verdicts["add"] == {False}
    assert verdicts["relabelled"] == verdicts["moved onto itself"] == {True, False}
