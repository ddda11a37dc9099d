"""Neighborhood quotients read off the host's bitmasks against the frozen
subgraph path.

Before ``sclasses.relative_quotient``, every neighborhood was factored by
building the induced subgraph, collapsing its classes into a quotient graph
and listing the quotient's Cartesian edges through ``cartesian_index``.
That path is copied here so later refactors of the package cannot move the
reference; each neighborhood must give the same classes, quotient graph,
coordinate rows, prime count, Cartesian edges and lifted edges both ways.
The memo keeps no quotient graph, so the quotient is rebuilt from the
ball's key masks.  A prime quotient keeps no Cartesian edges in the memo,
as all of its edges are, with index 0; its entry is expanded to them
before it is compared, and the edges the entry reads off its masks must
equal the expanded list.  Neighborhood factorizations are no longer put in
canonical factor order, so the local factors may differ from the frozen
order by one permutation, applied alike to the coordinate columns, the
Cartesian indices and the lifted indices.
"""

from __future__ import annotations

import random

import pytest

from strongpfd import (
    Coordinatization,
    Graph,
    LocalFactorization,
    NeighborhoodCache,
    NotThinError,
    PartialProductColoring,
    canonical_form,
    cartesian_index,
    complete_graph,
    cycle_graph,
    edge_key,
    factor_exact,
    factor_neighborhood,
    is_thin,
    path_graph,
    quotient,
    recognize,
    strong_product,
)
from strongpfd import skeleton
from strongpfd.oracle import random_thin_graph
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


def column_permutation(rows, legacy: LocalFactorization) -> list[int]:
    """pi with column j of ``rows`` equal to column pi[j] of ``legacy``'s
    coordinates.  The columns of a bijection onto a product of two or more
    nontrivial factors are distinct, so pi is unique when it exists."""
    columns = list(zip(*rows))
    legacy_columns = list(zip(*legacy.coords.coords))
    assert len(columns) == len(legacy_columns)
    pi = [legacy_columns.index(column) for column in columns]
    assert sorted(pi) == list(range(len(pi)))
    return pi


def assert_same_neighborhood(nf, cache: NeighborhoodCache, label) -> None:
    """Everything equals the frozen path exactly, except that the local
    factors may come in another order: one permutation of the local factor
    indices must map the coordinate columns, the Cartesian indices and the
    lifted indices onto the frozen (vertex count, canonical form) order.
    The record ``nf`` keeps the prime count and the lifted edges; the
    classes and the memo entry are read off the ball of the cache that made
    it, and the quotient is rebuilt from the ball's key masks."""
    members, got_classes, got_map, entry = cache.factor_ball(nf.center, 1)
    qgraph, class_map, classes, fact, edges = legacy_neighborhood(cache.graph, members)
    assert got_map == class_map, label
    assert got_classes == classes, label
    assert Graph.from_closed_masks(relative_quotient(cache.graph, members)[2]) == qgraph, label
    pi = column_permutation(entry.rows, fact)
    assert entry.rows == tuple(tuple(row[i] for i in pi) for row in fact.coords.coords), label
    assert entry.prime_count == nf.prime_count == fact.prime_count, label
    local = {i: j for j, i in enumerate(pi)}
    cartesian = tuple((qa, qb, local[i]) for qa, qb, i in edges)
    assert tuple(entry.cartesian) == cartesian, label
    expected = legacy_lifted(members, classes, edges)
    assert list(nf.lifted.items()) == [(e, local[i]) for e, i in expected.items()], label


def test_neighborhoods_match_the_subgraph_path():
    for label, graph in full_corpus():
        cache = NeighborhoodCache(graph)
        for v in graph.vertices():
            assert_same_neighborhood(cache.get(v), cache, (label, v, "memo"))
            fresh = NeighborhoodCache(graph)
            plain = factor_neighborhood(fresh, v)
            assert_same_neighborhood(plain, fresh, (label, v, "plain"))


def dense_graphs() -> list[tuple[str, Graph]]:
    """Random thin graphs of the prime orders and densities of the dense
    benchmark, where almost no neighborhood quotient repeats."""
    rng = random.Random(4161)
    return [
        (f"G({n},{p})", random_thin_graph(n, p, rng.randrange(2**32)))
        for n, p in ((41, 0.4), (47, 0.6), (53, 0.5), (61, 0.45))
    ]


def test_dense_neighborhoods_match_the_subgraph_path():
    for label, graph in dense_graphs():
        cache = NeighborhoodCache(graph)
        for v in graph.vertices():
            assert_same_neighborhood(cache.get(v), cache, (label, v))


def assert_same_ball(graph: Graph, members, label) -> None:
    classes, class_map, masks = relative_quotient(graph, members)
    sub, _ = graph.induced_subgraph(members)
    qgraph, old_map, old_classes = legacy_quotient(sub)
    assert (classes, class_map) == (old_classes, old_map), label
    assert masks == qgraph.closed_masks, label
    assert Graph.from_closed_masks(masks) == qgraph, label


def test_balls_of_radius_two_match_the_subgraph_path():
    for label, graph in dense_graphs()[:2] + full_corpus()[::5]:
        for v in graph.vertices():
            assert_same_ball(graph, graph.n_neighborhood(v, 2), (label, v))


def test_classes_are_read_without_the_host_bitmasks(monkeypatch):
    # keys live in the positions of the ball, so no n-bit host mask is read
    graph, _ = strong_product([path_graph(200), path_graph(3)])
    balls = [graph.n_neighborhood(v, radius) for v in graph.vertices() for radius in (1, 2)]
    expected = [relative_quotient(graph, members) for members in balls]
    for members in balls:
        assert_same_ball(graph, members, members)

    def no_host_masks(self):
        raise AssertionError("relative_quotient read the host's closed_masks")

    monkeypatch.setattr(Graph, "closed_masks", property(no_host_masks))
    assert [relative_quotient(graph, members) for members in balls] == expected


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
    shared = NeighborhoodCache(graph)
    for x in targets:
        shared.count(x)  # stages x's 1-ball, which a 2-ball lift must leave
        members = graph.n_neighborhood(x, 2)
        qgraph, old_map, old_classes, fact, edges = legacy_neighborhood(graph, members)
        for cache in (NeighborhoodCache(graph), shared):
            found, classes, class_map, entry = cache.factor_ball(x, 2)
            assert (found, class_map, classes) == (members, old_map, old_classes), (k, x)
            assert Graph.from_closed_masks(relative_quotient(graph, found)[2]) == qgraph, (k, x)
            assert entry.rows == fact.coords.coords, (k, x)
            assert entry.prime_count == fact.prime_count, (k, x)
            assert tuple(entry.cartesian) == edges, (k, x)
            # the sweep reads the edges lifted at x, here with all the others
            lifted = factor_neighborhood(cache, x, 2).lifted
            expected = legacy_lifted(members, old_classes, edges)
            assert any(x in edge for edge in expected), (k, x)
            assert list(lifted.items()) == list(expected.items()), (k, x)


def test_n2_sweep_refuses_a_host_that_is_not_thin():
    for graph in non_thin_graphs():
        if graph.vertex_count and not is_thin(graph):
            with pytest.raises(NotThinError):
                skeleton.n2_sweep(PartialProductColoring(), NeighborhoodCache(graph), targets=[0])


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
            positions, _, _ = relative_quotient(graph, tuple(host))
            sub, _ = graph.induced_subgraph(host)
            _, _, classes = legacy_quotient(sub)
            assert positions == classes, label
