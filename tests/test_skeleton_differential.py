"""Single-pass skeleton assembly against the frozen per-anchor assembly.

``legacy_skeleton`` recolors the graph from every backbone anchor; the
package stitches every backbone neighborhood's lifted edges once.  Both must
give the same skeleton and the same recognition report on seeded corpora of
products, negatives and primes.
"""

from __future__ import annotations

import random
import re

import pytest

from strongpfd import (
    Graph,
    NeighborhoodCache,
    PartialProductColoring,
    SkeletonError,
    backbone,
    build_skeleton,
    is_thin,
    path_graph,
    random_product_instance,
    random_thin_graph,
    recognize,
    strong_product,
    twisted_instance,
)
from strongpfd import coloring, factorize, skeleton

from conftest import house_graph, recovery_corpus
from legacy_skeleton import legacy_recognize
from test_quotient_differential import dense_graphs


def mobius_king_strip(k: int) -> Graph:
    """Three path rows of king-connected columns closed into a ring whose seam
    reverses the rows: prime, with factorable backbone neighborhoods."""
    edges = set()
    for col in range(k):
        nxt = (col + 1) % k
        for r1 in range(3):
            if r1 < 2:
                edges.add((3 * col + r1, 3 * col + r1 + 1))
            for r2 in range(3):
                glued = 2 - r2 if nxt == 0 else r2
                if abs(r1 - glued) <= 1:
                    u, v = 3 * col + r1, 3 * nxt + r2
                    edges.add((min(u, v), max(u, v)))
    return Graph(3 * k, sorted(edges))


def fixture_corpus() -> list[tuple[str, Graph]]:
    cases = [("twisted", twisted_instance())]
    cases += [(f"P{k}xhouse", strong_product([path_graph(k), house_graph()])[0]) for k in range(3, 9)]
    cases.append(("housexhouse", strong_product([house_graph(), house_graph()])[0]))
    cases += [(f"M{k}", mobius_king_strip(k)) for k in (4, 5, 6, 8)]
    rng = random.Random(1705)
    for n in (13, 17, 19, 23):
        for p in (0.4, 0.5, 0.6):
            cases.append((f"G({n},{p})", random_thin_graph(n, p, rng.randrange(2**32))))
    return cases + dense_graphs()


def outcome(recognizer, graph: Graph):
    """The report as printed plus every field of the skeleton it carries (the
    skeleton ``build_skeleton`` returns for the same input)."""
    report = recognizer(graph)
    sk = report.coloring
    if sk is None:
        return report.to_dict(), None
    fields = (sk.edge_color, sk.n_colors, sk.stage_of, sk.local_prime_counts)
    return report.to_dict(), fields + (sk.n2_prime_counts, sk.n2_ran, sk.diagnostics)


def assert_same(label: str, graph: Graph) -> dict:
    new = outcome(recognize, graph)
    assert new == outcome(legacy_recognize, graph), label
    return new[0]


def perturbed_products(count: int) -> list[Graph]:
    """Seeded products with one to three vertex pairs toggled, kept when thin
    and connected; most of them abort the assembly."""
    graphs = []
    for seed in range(count):
        rng = random.Random(seed)
        sizes = [rng.randint(3, 5), rng.randint(3, 5)]
        g = random_product_instance(sizes, seed=seed, edge_prob=rng.uniform(0.35, 0.6)).graph
        edges = set(g.edges())
        for _ in range(rng.randint(1, 3)):
            u, v = sorted(rng.sample(range(g.vertex_count), 2))
            edges ^= {(u, v)}
        h = Graph(g.vertex_count, sorted(edges))
        if h.is_connected() and is_thin(h):
            graphs.append(h)
    return graphs


def test_recovery_corpus_matches_per_anchor_assembly():
    for i, graph in enumerate(recovery_corpus()):
        assert_same(f"instance {i}", graph)


@pytest.mark.parametrize("label,graph", fixture_corpus(), ids=lambda x: x if isinstance(x, str) else "")
def test_fixtures_match_per_anchor_assembly(label, graph):
    report = assert_same(label, graph)
    negative = label == "twisted" or label.startswith("M")
    assert report["in_upsilon"] is not negative
    assert report["skeleton"]["n2_ran"] is (negative or "house" in label)


def test_aborts_match_up_to_the_named_vertices():
    # one pass checks each lifted backbone edge from its own center, while the
    # per-anchor search may meet the same fault deeper in the BFS of an
    # earlier anchor, so an aborted run may name other vertices; everything
    # else must agree
    def masked(report):
        data = report.to_dict()
        data["diagnostics"] = [re.sub(r"\d+", "#", d) for d in data["diagnostics"]]
        return data

    aborted = 0
    for graph in perturbed_products(60):
        report = recognize(graph)
        aborted += report.coloring is None
        assert masked(report) == masked(legacy_recognize(graph))
    assert aborted >= 20


def test_mismatched_local_counts_still_rejected(p3xp3):
    base, _ = p3xp3
    graph = Graph(10, list(base.edges()) + [(0, 9)])
    with pytest.raises(SkeletonError, match="local factors"):
        build_skeleton(NeighborhoodCache(graph))
    report = recognize(graph)
    assert not report.in_upsilon
    assert report.coloring is None
    assert any("local factors" in d for d in report.diagnostics)
    assert report.to_dict() == legacy_recognize(graph).to_dict()


def test_assembly_cost_is_one_factorization_per_backbone_vertex(monkeypatch):
    graph, _ = strong_product([path_graph(30), path_graph(3)])
    calls = {"factor_ball": [], "completion_sweep": 0, "color_fibers_from": 0}
    factor_ball = NeighborhoodCache.factor_ball
    completion_sweep = skeleton.completion_sweep

    def counted_ball(self, center, radius):
        calls["factor_ball"].append((center, radius))
        return factor_ball(self, center, radius)

    def counted_sweep(*args, **kwargs):
        calls["completion_sweep"] += 1
        return completion_sweep(*args, **kwargs)

    def no_anchor_coloring(*args, **kwargs):
        calls["color_fibers_from"] += 1
        raise AssertionError("per-anchor coloring must not run")

    monkeypatch.setattr(NeighborhoodCache, "factor_ball", counted_ball)
    monkeypatch.setattr(skeleton, "completion_sweep", counted_sweep)
    monkeypatch.setattr(coloring, "color_fibers_from", no_anchor_coloring)
    monkeypatch.setattr(skeleton, "color_fibers_from", no_anchor_coloring, raising=False)
    cache = NeighborhoodCache(graph)
    sk = build_skeleton(cache)
    assert not sk.n2_ran
    assert sk.n_colors == 2
    # one radius-1 ball per backbone vertex, read once for its count and
    # its lifting alike, and no 2-ball
    assert sorted(calls["factor_ball"]) == [(v, 1) for v in backbone(graph)]
    assert sorted(cache.entries) == list(backbone(graph))
    assert calls["completion_sweep"] == 1
    assert calls["color_fibers_from"] == 0


def dense_product() -> Graph:
    """The strong product of two seeded dense thin graphs, on 35 vertices
    with edge density 0.47: every backbone count is 2, so the stitch runs
    its general loop."""
    return strong_product([random_thin_graph(5, 0.6, 1), random_thin_graph(7, 0.6, 101)])[0]


def test_stitch_unions_each_relift_with_the_first_color():
    graph = dense_product()
    cache = NeighborhoodCache(graph)
    state = PartialProductColoring()
    calls = []
    union = state.union

    def counted(a, b):
        calls.append((a, b))
        return union(a, b)

    state.union = counted
    counts = skeleton._stitch_lifted_edges(cache, state)
    assert set(counts.values()) == {2}
    assert sorted(cache.entries) == list(backbone(graph))
    # replay the stitch edge by edge: raw colors open in backbone order, an
    # edge keeps the first raw color that reaches it, and every later lift
    # of it joins that color with the new one
    first: dict = {}
    pairs, per_edge = set(), PartialProductColoring()
    for v in backbone(graph):
        nf = cache.get(v)
        raw = [per_edge.new_color() for _ in range(nf.prime_count)]
        for edge, idx in nf.lifted.items():
            color = first.setdefault(edge, raw[idx])
            if color != raw[idx]:
                pairs.add((color, raw[idx]))
                per_edge.union(color, raw[idx])
    assert set(calls) == pairs
    assert state.colors == first
    # one partition of the raw colors: its blocks pair the roots one to one
    assert len(state.parent) == len(per_edge.parent)
    blocks = {(state.find(c), per_edge.find(c)) for c in range(len(per_edge.parent))}
    assert len(blocks) == len({a for a, _ in blocks}) == len({b for _, b in blocks})
