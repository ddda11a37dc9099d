"""A prime anchor neighborhood proves the graph prime.

In a thin G = G1 ⊠ G2 every backbone vertex x has N[x] = N[x1] ⊠ N[x2],
whose quotient is a product of two nontrivial quotients, so the local prime
count at any backbone vertex is at least the global one.  ``pfd_fast``
relies on this: a count of 1 at its anchor returns the graph as its one
factor before any coloring.  The tests below check the bound on seeded
corpora, pin the inputs where that exit changes the result, and guard the
work it saves.
"""

from __future__ import annotations

import importlib
import json
import random

import pytest

from strongpfd import (
    FactorSizeError,
    Graph,
    NeighborhoodCache,
    backbone,
    cycle_graph,
    factor_exact,
    is_thin,
    path_graph,
    pfd_fast,
    random_thin_graph,
    recognize,
    strong_product,
)
from strongpfd import coloring as coloring_module
from strongpfd import factorize as factorize_module
from strongpfd import skeleton as skeleton_module
from strongpfd.cli import main
from strongpfd.io import save_graph

from conftest import recovery_instances

# the package rebinds ``strongpfd.recognize`` to the function
recognize_module = importlib.import_module("strongpfd.recognize")


def glued_prime_graph() -> Graph:
    """A 12-vertex strong-product patch on ids 5-16 joined to a prime patch
    on ids 0-4.

    The backbone is 0-9, 12 and 15; the local prime counts are 2 at 6, 9,
    12 and 15 and 1 at the rest, so the covering walk from the default
    anchor 0 breaks at 6 although the graph is prime.
    """
    edges = [
        (0, 2), (0, 4), (0, 7), (1, 2), (1, 4), (2, 3), (3, 8), (4, 5),
        (5, 6), (5, 8), (5, 9), (5, 14), (5, 15), (6, 7), (6, 8), (6, 9),
        (6, 10), (6, 14), (6, 15), (6, 16), (7, 9), (7, 10), (7, 15), (7, 16),
        (8, 9), (8, 11), (8, 12), (9, 10), (9, 11), (9, 12), (9, 13), (10, 12),
        (10, 13), (11, 12), (11, 14), (11, 15), (12, 13), (12, 14), (12, 15),
        (12, 16), (13, 15), (13, 16), (14, 15), (15, 16),
    ]  # fmt: skip
    return Graph(17, edges)


def backbone_counts(graph: Graph) -> dict[int, int]:
    cache = NeighborhoodCache(graph)
    return {v: cache.get(v).prime_count for v in backbone(graph)}


def test_glued_graph_has_prime_and_composite_backbone_neighborhoods():
    graph = glued_prime_graph()
    assert backbone(graph) == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15)
    counts = backbone_counts(graph)
    assert {v for v, count in counts.items() if count == 2} == {6, 9, 12, 15}
    assert set(counts.values()) == {1, 2}


def test_pfd_fast_returns_a_graph_with_a_prime_anchor_as_its_one_factor():
    graph = glued_prime_graph()
    result = pfd_fast(graph)
    assert result.factors == (graph,)
    assert result.coords is None
    assert len(factor_exact(graph, size_cap=None).factors) == 1


def test_size_cap_reaches_only_the_anchor_neighborhood():
    # the quotient of 6's neighborhood has 9 vertices, the anchor's 4
    graph = glued_prime_graph()
    assert pfd_fast(graph, size_cap=5).factors == (graph,)
    with pytest.raises(FactorSizeError, match="1-neighborhood of 0 has 4 vertices"):
        pfd_fast(graph, size_cap=3)


def test_cli_factor_on_the_glued_graph(tmp_path, capsys):
    path = str(tmp_path / "glued.json")
    save_graph(glued_prime_graph(), path)
    assert main(["factor", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["anchor"] == 0
    assert data["prime_count"] == 1
    # an anchor with two local factors still walks, and breaks at 5
    assert main(["factor", "--input", path, "--anchor", "6"]) == 1
    assert "neighborhood of 5 has 1 local factors, anchor 6 has 2" in capsys.readouterr().err
    assert main(["factor", "--input", path, "--anchor", "10"]) == 2
    assert "anchor 10 is not a backbone vertex" in capsys.readouterr().err


def test_recognize_still_rejects_the_glued_graph():
    # its verdict needs every backbone count, not the anchor's alone
    report = recognize(glued_prime_graph())
    assert not report.in_upsilon
    assert report.max_local_factors == 2
    assert report.diagnostics


def test_backbone_counts_bound_the_factor_count_of_products():
    rng = random.Random(5)
    for instance in recovery_instances():
        truth = sum(len(factor_exact(f).factors) for f in instance.ground_truth_factors)
        perm = list(range(instance.graph.vertex_count))
        rng.shuffle(perm)
        for graph in (instance.graph, instance.graph.relabeled(perm)):
            assert min(backbone_counts(graph).values()) >= truth


PATCHES = (
    (path_graph(3), path_graph(3)),
    (path_graph(4), path_graph(3)),
    (cycle_graph(4), path_graph(3)),
)


def glued_graphs(count: int = 200) -> list[Graph]:
    """Seeded thin graphs of at most 24 vertices: a small product patch
    joined by one to three edges to a random thin graph, relabelled so that
    the default anchor lands on either side."""
    rng = random.Random(17)
    graphs = []
    while len(graphs) < count:
        patch, _ = strong_product(list(PATCHES[len(graphs) % len(PATCHES)]))
        k = rng.randint(3, 24 - patch.vertex_count)
        prime = random_thin_graph(k, rng.uniform(0.3, 0.6), seed=rng.randrange(2**32))
        edges = list(prime.edges()) + [(u + k, v + k) for u, v in patch.edges()]
        edges += [
            (rng.randrange(k), k + rng.randrange(patch.vertex_count))
            for _ in range(rng.randint(1, 3))
        ]
        perm = list(range(k + patch.vertex_count))
        rng.shuffle(perm)
        graph = Graph(len(perm), sorted(set(edges))).relabeled(perm)
        if is_thin(graph):
            graphs.append(graph)
    return graphs


def test_a_prime_backbone_neighborhood_means_a_prime_graph():
    anchored = mixed = 0
    for graph in glued_graphs():
        counts = backbone_counts(graph)
        if 1 not in counts.values():
            continue
        assert len(factor_exact(graph, size_cap=None).factors) == 1
        if counts[backbone(graph)[0]] == 1:
            anchored += 1
            mixed += max(counts.values()) > 1
            assert pfd_fast(graph).factors == (graph,)
    # the corpus exercises the exit, also where other counts are higher
    assert anchored >= 100 and mixed >= 100


@pytest.mark.parametrize("seed", [3, 8])
def test_pfd_fast_factors_one_neighborhood_of_a_dense_prime_graph(seed, monkeypatch):
    graph = random_thin_graph(41, 0.5, seed)
    calls = {"factored": 0, "lifted": 0, "colored": 0, "swept": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        NeighborhoodCache, "factor_ball", counted("factored", NeighborhoodCache.factor_ball)
    )
    monkeypatch.setattr(
        factorize_module,
        "factor_neighborhood",
        counted("lifted", factorize_module.factor_neighborhood),
    )
    monkeypatch.setattr(
        recognize_module, "color_fibers_from", counted("colored", recognize_module.color_fibers_from)
    )
    sweep = counted("swept", coloring_module.completion_sweep)
    monkeypatch.setattr(coloring_module, "completion_sweep", sweep)
    monkeypatch.setattr(skeleton_module, "completion_sweep", sweep)
    assert pfd_fast(graph).factors == (graph,)
    # one ball is factored, for its count alone, and none is lifted
    assert calls == {"factored": 1, "lifted": 0, "colored": 0, "swept": 0}
