"""The one-color stitch of a prime backbone.

When every backbone count is 1, ``skeleton._stitch_lifted_edges`` stamps
the union of the lifted edges with one color instead of lifting ball by
ball.  That is sound because the backbone of a thin connected graph induces
a connected subgraph.  The tests below check that fact, with the step of
its proof, on arbitrary small thin graphs and on the recovery corpus
(acceptance criterion 2 checks it on seeded random thin graphs); they check
that the one-color stitch and the general loop give the same skeleton
wherever every count is 1, and pin which inputs take which path.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongpfd import (
    Graph,
    NeighborhoodCache,
    backbone,
    build_skeleton,
    is_thin,
    random_product_instance,
    recognize,
)
from strongpfd import factorize, skeleton

from conftest import recovery_corpus
from test_prime_anchor import glued_graphs, glued_prime_graph
from test_quotient_differential import dense_graphs
from test_skeleton_differential import perturbed_products

# the package rebinds ``strongpfd.recognize`` to the function
recognize_module = importlib.import_module("strongpfd.recognize")


def assert_backbone_connected(graph: Graph) -> None:
    """The backbone induces a connected subgraph, and every closed
    neighborhood lies inside that of a backbone vertex."""
    anchors = backbone(graph)
    masks = graph.closed_masks
    assert all(any(masks[u] | masks[b] == masks[b] for b in anchors) for u in graph.vertices())
    sub, _ = graph.induced_subgraph(anchors)
    assert sub.is_connected()


@st.composite
def thin_connected_graphs(draw) -> Graph:
    """A random spanning tree on 1 to 12 vertices plus random extra edges,
    kept when thin."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges.update((min(u, v), max(u, v)) for u, v in extra if u != v)
    graph = Graph(n, sorted(edges))
    assume(is_thin(graph))
    return graph


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graph=thin_connected_graphs())
def test_backbone_of_a_thin_connected_graph_is_connected(graph):
    assert_backbone_connected(graph)


def test_backbone_of_every_recovery_graph_is_connected():
    for graph in recovery_corpus():
        assert_backbone_connected(graph)


def perturbed_five_by_five() -> list[Graph]:
    """The seeded 5x5 product with one edge added or one removed, where
    ``completion_sweep`` colors edges no neighborhood lifts."""
    base = random_product_instance([5, 5], seed=985715, edge_prob=0.6).graph
    return [Graph(25, sorted(set(base.edges()) ^ {edge})) for edge in [(14, 22), (5, 21)]]


def all_prime(graph: Graph) -> bool:
    cache = NeighborhoodCache(graph)
    return all(cache.count(v) == 1 for v in backbone(graph))


def prime_backbone_inputs() -> list[tuple[str, Graph]]:
    """Every input of the seeded corpora below whose backbone counts are
    all 1.  The recovery corpus holds products only, none of them such an
    input (a product's backbone counts are at least 2), so the one-toggle
    products and the glued graphs of the other differential tests supply
    most of them."""
    cases = [(f"perturbed {i}", g) for i, g in enumerate(perturbed_products(60))]
    cases += [(f"glued {i}", g) for i, g in enumerate(glued_graphs())]
    cases += dense_graphs()
    cases += [(f"5x5 toggled {i}", g) for i, g in enumerate(perturbed_five_by_five())]
    return [(label, g) for label, g in cases if all_prime(g)]


def record_paths(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count the calls of the one-color stitch and of the general loop."""
    calls = {"one color": 0, "each center": 0}
    for key, name in (("one color", "_stitch_one_color"), ("each center", "_stitch_each_center")):

        def counted(*args, _key=key, _stitch=getattr(skeleton, name)):
            calls[_key] += 1
            return _stitch(*args)

        monkeypatch.setattr(skeleton, name, counted)
    return calls


def outcome(graph: Graph, size_cap: int | None = None):
    """The report as printed, the local prime counts and the stage of every
    colored edge."""
    report = recognize(graph, size_cap)
    sk = report.coloring
    if sk is None:
        return report.to_dict(), None, None
    return report.to_dict(), sk.local_prime_counts, sk.stage_of


def force_general_loop(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make every stitch run the general loop, whatever the counts."""

    def general(cache, coloring):
        return skeleton._stitch_each_center(cache, coloring)

    monkeypatch.setattr(skeleton, "_stitch_lifted_edges", general)


def test_recovery_corpus_takes_the_general_loop(monkeypatch):
    calls = record_paths(monkeypatch)
    for graph in recovery_corpus():
        recognize(graph)
    assert calls == {"one color": 0, "each center": 200}


def test_one_color_stitch_matches_the_general_loop(monkeypatch):
    cases = prime_backbone_inputs()
    assert len(cases) >= 50
    assert all(label in {c[0] for c in cases} for label, _ in dense_graphs())
    assert sum(label.startswith("5x5") for label, _ in cases) == 2
    calls = record_paths(monkeypatch)
    fast = [outcome(graph) for _, graph in cases]
    assert calls == {"one color": len(cases), "each center": 0}
    force_general_loop(monkeypatch)
    for (label, graph), expected in zip(cases, fast):
        assert outcome(graph) == expected, label
    assert calls == {"one color": len(cases), "each center": len(cases)}
    # the toggled 5x5 products still need the completion sweep
    toggled = [report for (label, _), (report, _, _) in zip(cases, fast) if label.startswith("5x5")]
    assert min(report["skeleton"]["stages"]["completion"] for report in toggled) > 0


@pytest.mark.parametrize("size_cap", [4, 8, 12])
def test_a_size_cap_while_counting_names_the_general_loop_error(size_cap, monkeypatch):
    # the count phase stops at the first ball over the cap and hands over to
    # the general loop, which raises where it always did
    graphs = [g for _, g in dense_graphs()] + [glued_prime_graph()]
    fast = [outcome(graph, size_cap) for graph in graphs]
    force_general_loop(monkeypatch)
    assert [outcome(graph, size_cap) for graph in graphs] == fast
    assert any(report["diagnostics"] for report, _, _ in fast)


def test_the_glued_graph_takes_the_general_loop(monkeypatch):
    calls = record_paths(monkeypatch)
    report = recognize(glued_prime_graph())
    assert not report.in_upsilon
    assert calls == {"one color": 0, "each center": 1}


def test_a_cache_that_lifted_before_gives_the_same_skeleton():
    # a ball lifted before the stitch is no longer kept, so it is read again
    for _, graph in dense_graphs():
        fresh = build_skeleton(NeighborhoodCache(graph))
        cache = NeighborhoodCache(graph)
        for v in backbone(graph)[::3]:
            cache.get(v)
        used = build_skeleton(cache)
        assert (used.edge_color, used.stage_of, used.local_prime_counts) == (
            fresh.edge_color,
            fresh.stage_of,
            fresh.local_prime_counts,
        )
        assert cache.balls == {}


def record_lifts(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Record the center of every neighborhood ``factor_neighborhood`` lifts."""
    lifts: list[int] = []
    lift = factorize.factor_neighborhood

    def recorded(cache, v):
        lifts.append(v)
        return lift(cache, v)

    monkeypatch.setattr(factorize, "factor_neighborhood", recorded)
    return lifts


def test_a_prime_backbone_lifts_no_neighborhood(monkeypatch):
    lifts = record_lifts(monkeypatch)
    for _, graph in dense_graphs():
        assert recognize(graph).in_upsilon
    assert lifts == []


def test_a_negative_verdict_reads_its_counts_without_lifting(monkeypatch):
    # after the assembly aborts, each backbone count is read off its ball
    lifts = record_lifts(monkeypatch)
    at_abort = []
    build = recognize_module.build_skeleton

    def recorded(cache):
        try:
            return build(cache)
        except Exception:
            at_abort.append(len(lifts))
            raise

    monkeypatch.setattr(recognize_module, "build_skeleton", recorded)
    aborted = 0
    for graph in [glued_prime_graph()] + perturbed_products(60):
        lifts.clear()
        at_abort.clear()
        report = recognize(graph)
        if report.coloring is None:
            aborted += 1
            assert at_abort == [len(lifts)]
            assert report.max_local_factors == max(
                NeighborhoodCache(graph).get(v).prime_count for v in backbone(graph)
            )
    assert aborted >= 20
