"""Neighborhood quotients read off the host's bitmasks against the frozen
subgraph path.

Before ``sclasses.relative_quotient``, every neighborhood was factored by
building the induced subgraph, collapsing its classes into a quotient graph
and listing the quotient's Cartesian edges through ``cartesian_index``.
That path is copied here so later refactors of the package cannot move the
reference; each neighborhood must give the same classes, quotient graph,
factorization and lifted edges both ways.
"""

from __future__ import annotations

import random

import pytest

from strongpfd import (
    Coordinatization,
    Graph,
    LocalFactorization,
    NeighborhoodCache,
    canonical_form,
    cartesian_index,
    complete_graph,
    cycle_graph,
    edge_key,
    factor_exact,
    factor_neighborhood,
    path_graph,
    quotient,
    recognize,
    relative_s_partition,
    strong_product,
)
from strongpfd import skeleton
from strongpfd.factorize import factor_quotient
from strongpfd.sclasses import relative_quotient

from conftest import house_graph
from test_quotient_memo import full_corpus


# -- the frozen path ------------------------------------------------------------


def legacy_quotient(graph: Graph):
    """(quotient graph, class_map, class_members) as ``sclasses.quotient`` built them."""
    n = graph.vertex_count
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(graph.closed_masks[v], []).append(v)
    classes = tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))
    class_map = [0] * n
    for i, cls in enumerate(classes):
        for v in cls:
            class_map[v] = i
    edges = set()
    for u, v in graph.edges():
        cu, cv = class_map[u], class_map[v]
        if cu != cv:
            edges.add((min(cu, cv), max(cu, cv)))
    return Graph(len(classes), sorted(edges)), tuple(class_map), classes


def legacy_factor_quotient(qgraph: Graph):
    """Factorization in (vertex count, canonical form) order, and the
    Cartesian edges found by ``cartesian_index`` edge by edge."""
    fact = factor_exact(qgraph, size_cap=None)
    factors, rows = list(fact.factors), fact.coords.coords
    order = sorted(range(len(factors)), key=lambda i: (factors[i].vertex_count, canonical_form(factors[i])))
    fact = LocalFactorization(
        tuple(factors[i] for i in order),
        Coordinatization(
            tuple(factors[i].vertex_count for i in order),
            tuple(tuple(row[i] for i in order) for row in rows),
        ),
    )
    edges = ()
    if fact.factors:
        edges = tuple(
            (qa, qb, idx)
            for qa, qb in qgraph.edges()
            if (idx := cartesian_index(qgraph, fact.coords, qa, qb)) is not None
        )
    return fact, edges


def legacy_neighborhood(graph: Graph, members):
    sub, _ = graph.induced_subgraph(members)
    qgraph, class_map, classes = legacy_quotient(sub)
    fact, edges = legacy_factor_quotient(qgraph)
    return qgraph, class_map, classes, fact, edges


def legacy_lifted(members, classes, edges):
    lifted = {}
    for qa, qb, idx in edges:
        side_a, side_b = classes[qa], classes[qb]
        if len(side_a) != 1 and len(side_b) != 1:
            continue
        for ha in side_a:
            for hb in side_b:
                lifted[edge_key(members[ha], members[hb])] = idx
    return lifted


# -- comparisons ------------------------------------------------------------------


def assert_same_neighborhood(nf, graph: Graph, label) -> None:
    qgraph, class_map, classes, fact, edges = legacy_neighborhood(graph, nf.vertices)
    assert nf.quotient.class_map == class_map, label
    assert nf.quotient.class_members == classes, label
    assert nf.quotient.quotient == qgraph, label
    assert nf.factorization == fact, label
    expected = legacy_lifted(nf.vertices, classes, edges)
    assert list(nf.lifted.items()) == list(expected.items()), label


def test_neighborhoods_match_the_subgraph_path():
    for label, graph in full_corpus():
        cache = NeighborhoodCache(graph)
        for v in graph.vertices():
            assert_same_neighborhood(cache.get(v), graph, (label, v, "memo"))
            plain = factor_neighborhood(graph, v)
            assert_same_neighborhood(plain, graph, (label, v, "plain"))


def n2_targets(graph: Graph, monkeypatch: pytest.MonkeyPatch) -> list[int]:
    seen: list[int] = []
    sweep = skeleton.n2_sweep

    def recording(*args, **kwargs):
        seen.extend(kwargs["targets"])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(skeleton, "n2_sweep", recording)
    recognize(graph)
    monkeypatch.setattr(skeleton, "n2_sweep", sweep)
    return sorted(set(seen))


@pytest.mark.parametrize("k", range(3, 9))
def test_n2_quotients_match_the_subgraph_path(k, monkeypatch):
    graph, _ = strong_product([path_graph(k), house_graph()])
    targets = n2_targets(graph, monkeypatch)
    assert targets
    memo: dict = {}
    for x in targets:
        members = graph.n_neighborhood(x, 2)
        classes, class_map, masks = relative_quotient(graph, members)
        qgraph, old_map, old_classes, fact, edges = legacy_neighborhood(graph, members)
        assert (class_map, classes) == (old_map, old_classes), (k, x)
        for entry in (factor_quotient(masks), factor_quotient(masks, memo=memo)):
            assert entry.graph == qgraph, (k, x)
            assert entry.factorization == fact, (k, x)
            assert entry.cartesian_edges == edges, (k, x)


def non_thin_graphs() -> list[Graph]:
    graphs = [complete_graph(5), Graph(1), Graph(0)]
    graphs += [strong_product([path_graph(k), complete_graph(2)])[0] for k in (2, 3, 5)]
    graphs.append(strong_product([cycle_graph(5), complete_graph(3)])[0])
    graphs.append(strong_product([house_graph(), complete_graph(2)])[0])
    return graphs


def test_global_quotient_matches_the_frozen_one():
    for label, graph in full_corpus()[::7] + [("non-thin", g) for g in non_thin_graphs()]:
        result = quotient(graph)
        assert (result.quotient, result.class_map, result.class_members) == legacy_quotient(graph), label


def test_relative_partitions_match_the_subgraph_path():
    rng = random.Random(31)
    others = [("non-thin", g) for g in non_thin_graphs() if g.vertex_count]
    for label, graph in full_corpus()[::11] + others:
        n = graph.vertex_count
        for _ in range(5):
            host = sorted(rng.sample(range(n), rng.randint(1, n)))
            part = relative_s_partition(graph, host)
            sub, _ = graph.induced_subgraph(host)
            _, _, classes = legacy_quotient(sub)
            assert part.classes == tuple(tuple(host[p] for p in cls) for cls in classes), label
