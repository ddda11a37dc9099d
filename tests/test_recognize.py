from __future__ import annotations

import random
import time

import pytest

from strongpfd import (
    ColoringError,
    Graph,
    GraphError,
    NeighborhoodCache,
    NotThinError,
    backbone,
    canonical_form,
    cartesian_edge_set,
    cartesian_index,
    color_fibers_from,
    complete_graph,
    cycle_graph,
    factor_exact,
    is_isomorphic,
    path_graph,
    pfd_fast,
    recognize,
    strong_product,
    twisted_instance,
    verify_product,
)
from strongpfd.oracle import random_product_instance

from conftest import house_graph


def canon_multiset(factors):
    return sorted(canonical_form(f) for f in factors)


# (factor sizes, seed, edge probability) of seeded thin 3-factor products; a
# thin graph on 4 or 5 vertices is prime, so the factors are the truth
THREE_FACTOR_STRATUM = [
    ([5, 5, 5], 0, 0.45),
    ([5, 5, 5], 3, 0.3),
    ([4, 5, 5], 1, 0.45),
    ([5, 4, 5], 2, 0.6),
    ([4, 4, 5], 1, 0.35),
    ([5, 5, 4], 2, 0.7),
]


@pytest.mark.parametrize("sizes, seed, prob", THREE_FACTOR_STRATUM)
def test_three_factor_products_are_recognized_in_time(sizes, seed, prob):
    inst = random_product_instance(sizes, seed=seed, edge_prob=prob)
    truth = canon_multiset(inst.ground_truth_factors)
    start = time.perf_counter()
    report = recognize(inst.graph)
    assert time.perf_counter() - start < 5.0
    assert report.in_upsilon
    assert canon_multiset(report.extracted_factors) == truth
    start = time.perf_counter()
    fast = pfd_fast(inst.graph)
    assert time.perf_counter() - start < 5.0
    assert canon_multiset(fast.factors) == truth


def test_recognize_product(p3xp3):
    graph, _ = p3xp3
    report = recognize(graph)
    assert report.in_upsilon
    assert report.reconstruction_ok
    assert report.max_local_factors == 2
    assert len(report.extracted_factors) == 2
    assert all(is_isomorphic(f, path_graph(3)) for f in report.extracted_factors)


def test_recognize_prime_cycle():
    report = recognize(cycle_graph(7))
    assert report.in_upsilon
    assert report.max_local_factors == 1
    assert len(report.extracted_factors) == 1
    assert is_isomorphic(report.extracted_factors[0], cycle_graph(7))


def test_recognize_twisted_fixture():
    graph = twisted_instance()
    report = recognize(graph)
    assert not report.in_upsilon
    assert report.max_local_factors == 2
    assert not report.reconstruction_ok
    # the failed product check, once
    assert report.diagnostics == ["color 1 has fibers of unequal sizes [4, 8]"]


def test_recognize_rejects_bad_inputs():
    with pytest.raises(NotThinError):
        recognize(complete_graph(4))
    with pytest.raises(Exception):
        recognize(Graph(4, [(0, 1), (2, 3)]))


def test_recognize_report_dict_shape(p3xp3):
    graph, _ = p3xp3
    data = recognize(graph).to_dict()
    assert data["in_upsilon"] is True
    assert data["n_factors"] == 2
    assert data["skeleton"]["n_colors"] == 2
    assert {"S1-local", "completion", "N2-sweep"} == set(data["skeleton"]["stages"])


def test_verify_product_ground_truth(p3xp3):
    graph, coords = p3xp3
    truth = {}
    from strongpfd import cartesian_index

    for u, v in cartesian_edge_set(graph, coords):
        truth[(u, v)] = cartesian_index(graph, coords, u, v)
    factors = [path_graph(3), path_graph(3)]
    assert verify_product(factors, truth, graph)

    # an extra non-product edge breaks edge-exactness
    broken = Graph(9, list(graph.edges()) + [(0, 8)])
    assert not verify_product(factors, truth, broken)

    # splitting one class breaks the fiber structure
    split = dict(truth)
    first = next(e for e, c in truth.items() if c == 0)
    split[first] = 2
    assert not verify_product(factors, split, graph)


def test_pfd_fast_examples(p3xp3):
    graph, _ = p3xp3
    result = pfd_fast(graph)
    assert canon_multiset(result.factors) == canon_multiset([path_graph(3)] * 2)

    graph2, _ = strong_product([path_graph(4), cycle_graph(5)])
    result2 = pfd_fast(graph2)
    assert canon_multiset(result2.factors) == canon_multiset(
        [path_graph(4), cycle_graph(5)]
    )

    prime = cycle_graph(9)
    result3 = pfd_fast(prime)
    assert result3.prime_count == 1
    assert is_isomorphic(result3.factors[0], prime)


def test_pfd_fast_agrees_with_recognize():
    rng = random.Random(55)
    for trial in range(8):
        inst = random_product_instance(
            [rng.randint(3, 5), rng.randint(3, 5)], seed=13000 + trial
        )
        report = recognize(inst.graph)
        if not report.in_upsilon:
            continue
        fast = pfd_fast(inst.graph)
        assert canon_multiset(fast.factors) == canon_multiset(report.extracted_factors)


@pytest.mark.parametrize(
    "factors",
    [
        [path_graph(4), cycle_graph(4)],
        [cycle_graph(4), Graph(4, [(0, 1), (0, 2), (0, 3)])],
    ],
)
def test_pfd_fast_and_factor_exact_share_one_factor_order(factors):
    graph, _ = strong_product(factors)
    fast = pfd_fast(graph).factors
    exact = factor_exact(graph).factors
    assert len(fast) == len(exact) == len(factors)
    assert all(is_isomorphic(f, e) for f, e in zip(fast, exact))


def test_pfd_fast_unreliable_outside_its_precondition():
    # the fast path trusts the caller; on the twisted fixture it either
    # aborts or hands back factors that do not rebuild the graph
    graph = twisted_instance()
    try:
        result = pfd_fast(graph)
    except ColoringError:
        return
    rebuilt, _ = strong_product(list(result.factors))
    assert not is_isomorphic(rebuilt, graph)


def test_an_anchor_that_is_not_an_int_vertex_id_is_refused():
    # 4 is on the backbone of P5⊠P3, and 4.0 == 4; True == 1 is the center
    # of a P3⊠P3 whose center is numbered 1
    graph = strong_product([path_graph(5), path_graph(3)])[0]
    center_one = strong_product([path_graph(3), path_graph(3)])[0].relabeled(
        [0, 4, 2, 3, 1, 5, 6, 7, 8]
    )
    assert 4 in backbone(graph) and backbone(center_one) == (1,)
    for g, anchor in ((graph, 4.0), (graph, "4"), (center_one, True), (center_one, 1.0)):
        with pytest.raises(GraphError, match=f"anchor {anchor} is not a backbone vertex"):
            pfd_fast(g, anchor=anchor)
        with pytest.raises(GraphError, match=f"anchor {anchor} is not a backbone vertex"):
            color_fibers_from(NeighborhoodCache(g), anchor)
    assert len(pfd_fast(graph, anchor=4).factors) == 2
    assert len(pfd_fast(center_one, anchor=1).factors) == 2


def test_recognize_permutation_invariance(p3xp3):
    graph, _ = p3xp3
    rng = random.Random(8)
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    relabeled = graph.relabeled(perm)
    a = recognize(graph)
    b = recognize(relabeled)
    assert a.in_upsilon == b.in_upsilon
    assert a.max_local_factors == b.max_local_factors
    assert canon_multiset(a.extracted_factors) == canon_multiset(b.extracted_factors)


def test_recognize_k1():
    report = recognize(Graph(1))
    assert report.in_upsilon
    assert report.max_local_factors == 0
    assert report.extracted_factors == ()


def test_recognize_with_tight_size_cap_reports_failure(p3xp3):
    graph, _ = p3xp3
    report = recognize(graph, size_cap=4)
    assert not report.in_upsilon
    assert not report.reconstruction_ok
    assert any("size cap" in d or "cap" in d for d in report.diagnostics)


def test_recognize_reports_an_n2_cap_overflow_as_a_negative_verdict():
    # every 1-neighborhood of P_4 x house fits under the cap; the first
    # 2-neighborhood the N2 sweep factors does not
    graph, _ = strong_product([path_graph(4), house_graph()])
    report = recognize(graph, size_cap=12)
    assert not report.in_upsilon
    assert report.coloring is None
    assert report.diagnostics == [
        "quotient of the 2-neighborhood of 0 has 15 vertices, size cap is 12"
    ]


def test_recognize_survives_coloring_abort(p3xp3):
    # pendant on a product corner: backbone neighborhoods disagree on the
    # local factor count, the anchored coloring aborts, and the report
    # carries the diagnostic with the counts still recorded
    base, _ = p3xp3
    graph = Graph(10, list(base.edges()) + [(0, 9)])
    report = recognize(graph)
    assert not report.in_upsilon
    assert report.coloring is None
    assert report.max_local_factors == 2
    assert any("local factors" in d for d in report.diagnostics)


def test_verify_product_rejects_a_key_outside_the_graph():
    graph, coords = strong_product([path_graph(3), path_graph(2)])
    factors = [path_graph(3), path_graph(2)]
    truth = {e: cartesian_index(graph, coords, *e) for e in cartesian_edge_set(graph, coords)}
    assert verify_product(factors, truth, graph)
    # a vertex past the end, a negative id, a pair that is no edge, and keys
    # that are no pair of vertex ids
    for key in ((0, 99), (-1, 0), (0, 5), (0, 1, 2), (0,), 5, ("a", 1), (1.0, 0)):
        assert not verify_product(factors, {key: 0}, graph), key
        assert not verify_product(factors, {**truth, key: 0}, graph), key


def test_verify_product_rejects_a_skeleton_of_another_graph():
    # a skeleton takes the key check of a plain dict: the skeleton of
    # P4 x P3 has edges on vertices 9-11, which P3 x P3 lacks
    report = recognize(strong_product([path_graph(4), path_graph(3)])[0])
    graph, _ = strong_product([path_graph(3), path_graph(3)])
    assert not verify_product(report.extracted_factors, report.coloring, graph)
    assert not verify_product(report.extracted_factors, report.coloring.edge_color, graph)
    assert verify_product(report.extracted_factors, report.coloring, report.coloring.graph)


def test_verify_product_accepts_any_color_labels():
    graph, _ = strong_product([path_graph(3), path_graph(4)])
    skeleton = recognize(graph).coloring
    factors = [path_graph(4), path_graph(3)]
    assert verify_product(factors, dict(skeleton.edge_color), graph)
    shifted = {edge: c + 1 for edge, c in skeleton.edge_color.items()}
    assert verify_product(factors, shifted, graph)
    spread = {edge: 10 * c + 7 for edge, c in skeleton.edge_color.items()}
    assert verify_product(factors, spread, graph)


def test_verify_product_accepts_labels_of_mixed_types():
    # labels need only be hashable: an int and a str do not compare
    graph, _ = strong_product([path_graph(3), path_graph(3)])
    skeleton = recognize(graph).coloring
    mixed = {edge: (0, "b")[c] for edge, c in skeleton.edge_color.items()}
    assert verify_product([path_graph(3), path_graph(3)], mixed, graph)


def test_verify_product_ignores_factor_order():
    graph, _ = strong_product([path_graph(3), path_graph(4)])
    skeleton = recognize(graph).coloring
    assert verify_product([path_graph(4), path_graph(3)], skeleton, graph)
    assert verify_product([path_graph(3), path_graph(4)], skeleton, graph)
    # a multiset, not a set: the same factor twice matches only one fiber
    assert not verify_product([path_graph(3), path_graph(3)], skeleton, graph)
    assert not verify_product([path_graph(4), path_graph(4)], skeleton, graph)
    assert not verify_product([path_graph(4), cycle_graph(3)], skeleton, graph)
