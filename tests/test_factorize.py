from __future__ import annotations

import dataclasses
import random
import sys
from functools import cached_property

import pytest

from strongpfd import (
    DisconnectedError,
    FactorSizeError,
    Graph,
    GraphError,
    NeighborhoodCache,
    NeighborhoodFactorization,
    NotThinError,
    backbone,
    canonical_form,
    complete_graph,
    cycle_graph,
    factor_exact,
    factor_neighborhood,
    is_isomorphic,
    is_thin,
    path_graph,
    pfd_fast,
    quotient,
    random_product_instance,
    reconstructs,
    recognize,
    strong_product,
)
from strongpfd import factorize
from strongpfd.oracle import random_thin_graph

from conftest import house_graph


def canon_multiset(factors):
    return sorted(canonical_form(f) for f in factors)


def test_k4_splits_into_two_edges():
    result = factor_exact(complete_graph(4))
    assert [f.vertex_count for f in result.factors] == [2, 2]
    assert reconstructs(complete_graph(4), result)


def test_c5_is_prime():
    result = factor_exact(cycle_graph(5))
    assert result.prime_count == 1
    assert result.factors[0] == cycle_graph(5)


def test_p3_product_recovers_factors(p3xp3):
    graph, _ = p3xp3
    result = factor_exact(graph)
    assert result.prime_count == 2
    assert all(is_isomorphic(f, path_graph(3)) for f in result.factors)
    assert reconstructs(graph, result)


def test_trivial_graph_has_no_factors():
    result = factor_exact(Graph(1))
    assert result.factors == ()
    assert result.coords.coords == ((),)


def test_a_prime_order_is_returned_before_masks_or_a_cache(monkeypatch):
    # a graph of prime order is prime, thin or not, so the door returns it
    # as its one factor with identity coordinates and builds nothing
    masks = vars(Graph)["closed_masks"]
    opened = []
    inputs = [cycle_graph(7), path_graph(5), complete_graph(2), complete_graph(3)]
    inputs += [random_thin_graph(n, 0.5, seed) for seed, n in enumerate((11, 13))]

    def guarded(self):
        if any(self is graph for graph in inputs):
            raise AssertionError("the input's closed_masks were built")
        return masks.func(self)

    def counted(*args, **kwargs):
        opened.append(args)
        return NeighborhoodCache(*args, **kwargs)

    prop = cached_property(guarded)
    prop.__set_name__(Graph, "closed_masks")
    monkeypatch.setattr(Graph, "closed_masks", prop)
    monkeypatch.setattr(factorize, "NeighborhoodCache", counted)
    for graph in inputs:
        result = factor_exact(graph)
        assert result.factors[0] is graph and len(result.factors) == 1
        assert result.coords.coords == tuple((v,) for v in graph.vertices())
    assert opened == []
    # one vertex keeps its empty factor list
    assert factor_exact(Graph(1)).factors == ()


def test_size_cap_and_disconnected_errors():
    with pytest.raises(FactorSizeError):
        factor_exact(path_graph(30), size_cap=24)
    with pytest.raises(DisconnectedError):
        factor_exact(Graph(4, [(0, 1), (2, 3)]))


def test_factor_exact_refuses_the_empty_graph():
    # the door checks its input; the verified core below it assumes a
    # nonempty connected graph
    with pytest.raises(GraphError) as raised:
        factor_exact(Graph(0))
    assert raised.type is GraphError
    assert str(raised.value) == "cannot factor an empty graph"


def test_factor_exact_grows_the_fibers_of_a_long_strip():
    # route 2 expands one backbone vertex of a growing fiber at a time, more
    # of them than the recursion limit has frames, so it keeps its own stack
    graph, _ = strong_product([path_graph(1000), path_graph(3)])
    result = factor_exact(graph, size_cap=None)
    assert result.factors == (path_graph(3), path_graph(1000))
    assert reconstructs(graph, result)


def test_three_factor_product():
    graph, _ = strong_product([path_graph(2), path_graph(2), path_graph(3)])
    result = factor_exact(graph)
    assert sorted(f.vertex_count for f in result.factors) == [2, 2, 3]
    assert reconstructs(graph, result)


def test_round_trip_on_random_thin_factor_pairs():
    rng = random.Random(1)
    for trial in range(12):
        f1 = random_thin_graph(rng.randint(3, 5), 0.5, seed=4000 + trial)
        f2 = random_thin_graph(rng.randint(3, 5), 0.5, seed=5000 + trial)
        graph, _ = strong_product([f1, f2])
        result = factor_exact(graph, size_cap=None)
        expected = canon_multiset(
            list(factor_exact(f1).factors) + list(factor_exact(f2).factors)
        )
        assert canon_multiset(result.factors) == expected
        assert reconstructs(graph, result)


def test_prime_count_is_additive_over_products():
    rng = random.Random(2)
    for trial in range(8):
        f1 = random_thin_graph(rng.randint(3, 5), 0.5, seed=6000 + trial)
        f2 = random_thin_graph(rng.randint(3, 5), 0.5, seed=7000 + trial)
        graph, _ = strong_product([f1, f2])
        assert (
            factor_exact(graph, size_cap=None).prime_count
            == factor_exact(f1).prime_count + factor_exact(f2).prime_count
        )


def test_factor_neighborhood_at_product_center(p3xp3):
    graph, coords = p3xp3
    center = coords.vertex_at((1, 1))
    nf = factor_neighborhood(NeighborhoodCache(graph), center)
    assert nf.prime_count == 2
    assert len(nf.lifted) == 12
    assert sorted(set(nf.lifted.values())) == [0, 1]
    # lifted labels agree with the ground-truth directions, up to renaming
    from strongpfd import cartesian_index

    direction_of_label = {}
    for (u, v), label in nf.lifted.items():
        true_dir = cartesian_index(graph, coords, u, v)
        assert true_dir is not None
        assert direction_of_label.setdefault(label, true_dir) == true_dir


def test_neighborhood_record_keeps_the_prime_count_and_the_lifted_edges():
    # the classes, the quotient and its factorization stay with the ball
    assert [f.name for f in dataclasses.fields(NeighborhoodFactorization)] == [
        "center",
        "prime_count",
        "lifted",
    ]
    cached = [name for name, value in vars(NeighborhoodFactorization).items() if isinstance(value, cached_property)]
    assert cached == []


def test_factor_neighborhood_of_simplicial_vertex_is_empty():
    p3 = path_graph(3)
    nf = factor_neighborhood(NeighborhoodCache(p3), 0)
    assert nf.prime_count == 0
    assert nf.lifted == {}


def test_factor_neighborhood_requires_thin_host():
    with pytest.raises(NotThinError):
        factor_neighborhood(NeighborhoodCache(complete_graph(4)), 0)


def test_factor_neighborhood_quotient_classes():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
    members, classes, _, _ = NeighborhoodCache(g).factor_ball(0, 1)
    assert members == (0, 1, 2, 3)
    assert set(len(cls) for cls in classes) == {1, 2}
    # the collapsed pair is the twin pair inside the apex neighborhood
    assert (1, 2) in classes


def test_route_two_opens_no_neighborhood_record(monkeypatch):
    # P_4 x P_3 is thin and has no universal vertex, so the split search
    # grows its fibers from local coordinates read off the factored balls
    graph, _ = strong_product([path_graph(4), path_graph(3)])
    assert is_thin(graph) and max(map(graph.degree, graph.vertices())) < graph.vertex_count - 1
    grown = count_calls(monkeypatch, "_split_grown")

    def refuse(*args, **kwargs):
        raise AssertionError("route 2 opened a per-center neighborhood record")

    monkeypatch.setattr(factorize, "factor_neighborhood", refuse)
    result = factor_exact(graph)
    assert grown[0] > 0
    assert [tuple(f.edges()) for f in result.factors] == [((0, 1), (1, 2)), ((0, 1), (1, 2), (2, 3))]
    assert result.coords.coords == tuple((j, i) for i in range(4) for j in range(3))


def test_lifted_edges_are_ground_truth_cartesian():
    rng = random.Random(3)
    from strongpfd import cartesian_index

    for trial in range(8):
        f1 = random_thin_graph(rng.randint(3, 5), 0.5, seed=8000 + trial)
        f2 = random_thin_graph(rng.randint(3, 5), 0.5, seed=9000 + trial)
        graph, coords = strong_product([f1, f2])
        for v in backbone(graph):
            nf = factor_neighborhood(NeighborhoodCache(graph), v)
            label_dir = {}
            for (a, b), label in nf.lifted.items():
                true_dir = cartesian_index(graph, coords, a, b)
                assert true_dir is not None
                assert label_dir.setdefault(label, true_dir) == true_dir


def test_two_neighborhood_prime_count_matches_factor_count():
    cases = [
        strong_product([path_graph(4), cycle_graph(5)])[0],
        strong_product([path_graph(3), house_graph()])[0],
    ]
    for graph in cases:
        for x in range(0, graph.vertex_count, 3):
            sub, _ = graph.induced_subgraph(graph.n_neighborhood(x, 2))
            q = quotient(sub)
            assert factor_exact(q.quotient, size_cap=None).prime_count == 2


def test_factor_order_normalized():
    graph, _ = strong_product([cycle_graph(5), path_graph(3)])
    result = factor_exact(graph, size_cap=None)
    sizes = [f.vertex_count for f in result.factors]
    assert sizes == sorted(sizes)


def count_calls(monkeypatch: pytest.MonkeyPatch, name: str) -> list[int]:
    calls = [0]
    original = getattr(factorize, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(factorize, name, counted)
    return calls


def test_factor_exact_orders_only_several_factors(monkeypatch):
    forms = count_calls(monkeypatch, "canonical_form")
    checks = count_calls(monkeypatch, "_product_check")
    verified = count_calls(monkeypatch, "_factor_verified")
    # a prime order returns at the door, with no split search and no check
    assert factorize.factor_exact(cycle_graph(7)).prime_count == 1
    assert checks[0] == verified[0] == 0
    # composite orders factor neighborhood quotients through the verified
    # core again, but for those decided prime on their masks, as the P3
    # balls of C9 and P12 are; the inner balls of P4 x P3 are P3 x P3, which
    # are not.  Each factorization is verified once, by one product check
    for prime in (cycle_graph(9), path_graph(12), Graph(1)):
        result = factorize.factor_exact(prime)
        assert result.prime_count == (prime.vertex_count > 1)
    # P4 x P3 is split by route 2, K1,3 x P3, with a universal vertex, by route 1
    for first in (path_graph(4), Graph(4, [(0, 1), (0, 2), (0, 3)])):
        assert factorize.factor_exact(strong_product([first, path_graph(3)])[0]).prime_count == 2
    assert forms[0] == 0
    assert checks[0] == verified[0] > 5
    # two factors that tie on vertex count, edge count and degree sequence
    # are told apart by their canonical forms
    assert factorize.factor_exact(strong_product([path_graph(4), path_graph(4)])[0]).prime_count == 2
    assert forms[0] > 0
    assert checks[0] == verified[0]


def record_canonical_form_callers(monkeypatch: pytest.MonkeyPatch) -> list[set[str]]:
    """Replace every package binding of ``canonical_form`` by a wrapper that
    records the names of all functions on the stack at each call."""
    stacks: list[set[str]] = []
    original = canonical_form

    def recorded(graph):
        names = set()
        frame = sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return original(graph)

    for module in list(sys.modules.values()):
        bound = vars(module).get("canonical_form")
        if module.__name__.startswith("strongpfd") and bound is original:
            monkeypatch.setattr(module, "canonical_form", recorded)
    return stacks


def test_neighborhood_factoring_never_orders_factors(monkeypatch):
    stacks = record_canonical_form_callers(monkeypatch)
    rng = random.Random(5)
    for seed, sizes in enumerate([(3, 3), (3, 4), (4, 4), (3, 5), (3, 3, 3)] * 2):
        graph = random_product_instance(sizes, seed=seed, edge_prob=0.5).graph
        perm = list(range(graph.vertex_count))
        rng.shuffle(perm)
        relabelled = graph.relabeled(perm)
        assert recognize(relabelled).in_upsilon
        assert pfd_fast(relabelled).prime_count == len(sizes)
    internal = {"factor_ball", "factor_neighborhood"}
    assert not [names for names in stacks if names & internal]
    # the recorder does see the public ordering, which needs a canonical
    # form only for factors that tie on the cheap keys
    factor_exact(strong_product([path_graph(4), path_graph(4)])[0])
    assert stacks and "factor_exact" in stacks[-1]
