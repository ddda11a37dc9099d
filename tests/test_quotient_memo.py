"""The labelled-quotient memo of ``NeighborhoodCache`` against unmemoized
factorization.

A memo hit must give exactly what factoring the quotient afresh gives: the
same factors, coordinates and lifted edges per neighborhood, and the same
recognition report and fast-path factors per graph.
"""

from __future__ import annotations

import random
import sys

import pytest

from strongpfd import (
    ColoringError,
    Graph,
    NeighborhoodCache,
    cycle_graph,
    factor_neighborhood,
    path_graph,
    pfd_fast,
    recognize,
    strong_product,
    twisted_instance,
)
from strongpfd import factorize, products, skeleton

from conftest import house_graph, recovery_corpus


def relabeled(graph: Graph, seed: int) -> Graph:
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    return graph.relabeled(perm)


def structured_corpus() -> list[tuple[str, Graph]]:
    cases = [(f"P{k}xP3", strong_product([path_graph(k), path_graph(3)])[0]) for k in (3, 5, 9, 16)]
    cases += [(f"C{k}xP3", strong_product([cycle_graph(k), path_graph(3)])[0]) for k in (4, 5, 9, 16)]
    cases += [(f"P{k}xhouse", strong_product([path_graph(k), house_graph()])[0]) for k in (3, 5, 8)]
    cases.append(("twisted", twisted_instance()))
    return cases + [(f"{label} relabeled", relabeled(g, 7)) for label, g in cases]


def full_corpus() -> list[tuple[str, Graph]]:
    recovery = [(f"recovery {i}", g) for i, g in enumerate(recovery_corpus())]
    recovery += [(f"{label} relabeled", relabeled(g, i)) for i, (label, g) in enumerate(recovery[:50])]
    return recovery + structured_corpus()


def unmemoized(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make every quotient factorization ignore the memo it is handed."""
    factor_quotient = factorize.factor_quotient

    def without_memo(masks, size_cap=None, memo=None):
        return factor_quotient(masks, size_cap)

    monkeypatch.setattr(factorize, "factor_quotient", without_memo)
    monkeypatch.setattr(skeleton, "factor_quotient", without_memo)


def fast_factors(graph: Graph):
    try:
        return pfd_fast(graph).factors
    except ColoringError as exc:  # the verdict must match too
        return str(exc)


def test_memo_hits_give_the_unmemoized_neighborhoods():
    for label, graph in full_corpus():
        cache = NeighborhoodCache(graph)
        for v in graph.vertices():
            memoized = cache.get(v)
            plain = factor_neighborhood(graph, v)
            assert memoized.prime_count == plain.prime_count, (label, v)
            assert memoized.factorization == plain.factorization, (label, v)
            assert list(memoized.lifted.items()) == list(plain.lifted.items()), (label, v)
        assert len(cache.quotients) <= graph.vertex_count


def test_king_strip_neighborhoods_share_one_quotient():
    graph, _ = strong_product([path_graph(40), path_graph(3)])
    cache = NeighborhoodCache(graph)
    for v in graph.vertices():
        cache.get(v)
    # interior columns repeat one labelled quotient; only the ends differ
    assert len(cache.quotients) < 10


def test_reports_match_without_the_memo(monkeypatch):
    corpus = full_corpus()
    memoized = [(recognize(g).to_dict(), fast_factors(g)) for _, g in corpus]
    unmemoized(monkeypatch)
    for (label, graph), expected in zip(corpus, memoized):
        assert (recognize(graph).to_dict(), fast_factors(graph)) == expected, label


def count_factor_exact(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    calls = [0]
    factor_exact = factorize.factor_exact

    def counted(*args, **kwargs):
        calls[0] += 1
        return factor_exact(*args, **kwargs)

    monkeypatch.setattr(factorize, "factor_exact", counted)
    return calls


def test_king_strip_is_factored_once(monkeypatch):
    graph, _ = strong_product([path_graph(30), path_graph(3)])
    calls = count_factor_exact(monkeypatch)
    assert recognize(graph).in_upsilon
    assert calls[0] == 1
    calls[0] = 0
    assert pfd_fast(graph).prime_count == 2
    assert calls[0] == 1


def test_n2_sweep_reuses_the_memo(monkeypatch):
    graph, _ = strong_product([path_graph(8), house_graph()])
    calls = count_factor_exact(monkeypatch)
    report = recognize(graph)
    assert report.in_upsilon and report.coloring.n2_ran
    memoized = calls[0]
    calls[0] = 0
    unmemoized(monkeypatch)
    assert recognize(graph).to_dict() == report.to_dict()
    assert memoized < calls[0]


#: Functions that factor one neighborhood or 2-neighborhood quotient.
NEIGHBORHOOD_LAYER = {"factor_neighborhood", "factor_quotient", "relative_quotient", "n2_sweep"}


def record_callers(monkeypatch: pytest.MonkeyPatch, owner, name: str) -> list[str]:
    """Replace ``owner.name`` by a wrapper that records its direct callers;
    for a module function, every package module's binding is replaced."""
    callers: list[str] = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, recorded)
        return callers
    for module in list(sys.modules.values()):
        if module.__name__.startswith("strongpfd") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, recorded)
    return callers


@pytest.mark.parametrize("entry", [pfd_fast, recognize])
def test_neighborhoods_build_no_subgraph(entry, monkeypatch):
    subgraphs = record_callers(monkeypatch, Graph, "induced_subgraph")
    indices = record_callers(monkeypatch, products, "cartesian_index")
    counts = []
    for k in (30, 60):
        subgraphs.clear()
        entry(strong_product([path_graph(k), path_graph(3)])[0])
        assert not NEIGHBORHOOD_LAYER & set(subgraphs), subgraphs
        counts.append(len(subgraphs))
    assert indices == []
    # what is left (splitting the one factored quotient, reading off the
    # factors) does not grow with the strip
    assert counts[0] == counts[1]
