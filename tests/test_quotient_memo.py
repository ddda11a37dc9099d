"""The labelled-quotient memo of ``NeighborhoodCache`` against unmemoized
factorization.

A memo hit must give exactly what factoring the quotient afresh gives: the
same prime count, coordinate rows, Cartesian edges and lifted edges per
neighborhood, and the same recognition report and fast-path factors per
graph.  The memo keeps nothing else of a quotient.
"""

from __future__ import annotations

import random
import sys
from dataclasses import fields, is_dataclass

import pytest

from strongpfd import (
    ColoringError,
    Coordinatization,
    Graph,
    LocalFactorization,
    NeighborhoodCache,
    cycle_graph,
    factor_exact,
    factor_neighborhood,
    path_graph,
    pfd_fast,
    recognize,
    strong_product,
    twisted_instance,
)
from strongpfd import factorize, products
from strongpfd.oracle import random_thin_graph

from conftest import house_graph, recovery_corpus
from test_merge_fallback import seeded_products


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
    """Make every quotient factorization find the cache's memo empty."""
    factor_ball = NeighborhoodCache.factor_ball

    def without_memo(self, center, radius):
        self.quotients.clear()
        return factor_ball(self, center, radius)

    monkeypatch.setattr(NeighborhoodCache, "factor_ball", without_memo)


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
            fresh = NeighborhoodCache(graph)
            plain = factor_neighborhood(fresh, v)
            assert memoized.prime_count == plain.prime_count, (label, v)
            # the rows and Cartesian edges stay in the memo; both lookups hit it
            memoized_ball, plain_ball = cache.factor_ball(v, 1), fresh.factor_ball(v, 1)
            assert memoized_ball[3] == plain_ball[3], (label, v)
            assert list(memoized.lifted.items()) == list(plain.lifted.items()), (label, v)
        assert len(cache.quotients) <= graph.vertex_count


def record_memos(monkeypatch: pytest.MonkeyPatch) -> list:
    """Record the quotient memo of every cache that ``factor_ball`` runs on;
    the returned list gets each memo once."""
    memos: list = []
    factor_ball = NeighborhoodCache.factor_ball

    def recorded(self, center, radius):
        if not any(memo is self.quotients for memo in memos):
            memos.append(self.quotients)
        return factor_ball(self, center, radius)

    monkeypatch.setattr(NeighborhoodCache, "factor_ball", recorded)
    return memos


def held_objects(value) -> list:
    """``value`` and everything its dataclass fields, tuples, lists and
    dicts reach."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        found.append(item)
        if is_dataclass(item):
            stack.extend(getattr(item, f.name) for f in fields(item))
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.items())
    return found


@pytest.mark.parametrize(
    "graph",
    [random_thin_graph(47, 0.5, 3), strong_product([path_graph(12), path_graph(3)])[0]],
    ids=["dense prime", "king strip"],
)
def test_memo_keeps_no_graph_or_factorization(graph, monkeypatch):
    memos = record_memos(monkeypatch)
    recognize(graph)
    values = [entry for memo in memos for entry in memo.values()]
    assert values
    for entry in values:
        held = held_objects(entry)
        assert not [x for x in held if isinstance(x, (Graph, LocalFactorization, Coordinatization))]


def count_constructions(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count the constructions of the two public result types, by name."""
    made = {"LocalFactorization": 0, "Coordinatization": 0}
    for cls in (LocalFactorization, Coordinatization):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


@pytest.mark.parametrize(
    "graph",
    [random_thin_graph(47, 0.5, 3), strong_product([path_graph(12), path_graph(3)])[0]],
    ids=["dense prime", "king strip"],
)
def test_memo_misses_build_no_result_type(graph, monkeypatch):
    # a miss decides its quotient prime on its masks or reads the plain
    # factors and rows of the verified core; only ordered_factorization
    # wraps a public result
    made = count_constructions(monkeypatch)
    memos = record_memos(monkeypatch)
    recognize(graph)
    assert sum(map(len, memos)) > 0
    assert made == {"LocalFactorization": 0, "Coordinatization": 0}
    memos.clear()
    pfd_fast(graph)
    assert sum(map(len, memos)) > 0
    # pfd_fast's own result, which carries no coordinates
    assert made == {"LocalFactorization": 1, "Coordinatization": 0}


def test_factor_exact_builds_one_result(monkeypatch):
    graph = strong_product([path_graph(4), path_graph(3)])[0]
    made = count_constructions(monkeypatch)
    verified = count_factorizations(monkeypatch)
    assert factor_exact(graph).prime_count == 2
    assert verified[0] > 1
    assert made == {"LocalFactorization": 1, "Coordinatization": 1}


def test_route_two_entries_keep_no_edge_list(monkeypatch):
    # the split search reads each ball's coordinate rows alone, so no entry
    # that factor_exact makes has its Cartesian edges walked
    memos = record_memos(monkeypatch)
    graph = strong_product([path_graph(4), path_graph(3)])[0]
    assert factor_exact(graph).prime_count == 2
    entries = [entry for memo in memos for entry in memo.values()]
    assert entries
    assert [entry for entry in entries if "cartesian" in vars(entry)] == []


def test_every_quotient_a_miss_builds_is_nonempty_and_connected(monkeypatch):
    # the verified core checks neither, as factor_exact does for its input:
    # a ball is nonempty and connected, and so is every quotient of it and
    # every graph that route 2 and the quotient route receive as masks
    built: dict[str, list[Graph]] = {}
    source = ""

    def recording(name):
        call = getattr(factorize, name)

        def recorded(masks, cache):
            built.setdefault(source, []).append(Graph.from_closed_masks(masks))
            return call(masks, cache)

        return recorded

    for name in ("_split_grown", "_factor_through_quotient"):
        monkeypatch.setattr(factorize, name, recording(name))
    source = "recovery"
    for graph in recovery_corpus():
        recognize(graph)
    source = "n2"
    assert recognize(strong_product([path_graph(6), house_graph()])[0]).coloring.n2_ran
    source = "king strip"
    factor_exact(strong_product([path_graph(8), path_graph(3)])[0], size_cap=None)
    assert sorted(built) == ["king strip", "n2", "recovery"]
    for label, quotients in built.items():
        for q in quotients:
            assert q.vertex_count > 0 and q.is_connected(), label


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


def count_factorizations(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Count runs of the verified split search, which ``factor_exact`` goes
    through, and every memo miss of ``NeighborhoodCache.factor_ball`` whose
    quotient is not decided prime on its masks."""
    calls = [0]
    factor_verified = factorize._factor_verified

    def counted(*args, **kwargs):
        calls[0] += 1
        return factor_verified(*args, **kwargs)

    monkeypatch.setattr(factorize, "_factor_verified", counted)
    return calls


def test_king_strip_is_factored_once(monkeypatch):
    graph, _ = strong_product([path_graph(30), path_graph(3)])
    calls = count_factorizations(monkeypatch)
    assert recognize(graph).in_upsilon
    assert calls[0] == 1
    calls[0] = 0
    assert pfd_fast(graph).prime_count == 2
    assert calls[0] == 1


def test_n2_sweep_reuses_the_memo(monkeypatch):
    graph, _ = strong_product([path_graph(8), house_graph()])
    calls = count_factorizations(monkeypatch)
    report = recognize(graph)
    assert report.in_upsilon and report.coloring.n2_ran
    memoized = calls[0]
    calls[0] = 0
    unmemoized(monkeypatch)
    assert recognize(graph).to_dict() == report.to_dict()
    assert memoized < calls[0]


def record_repeats(monkeypatch: pytest.MonkeyPatch) -> tuple[set, list]:
    """Record, per public call, the ``closed_masks`` of every graph the
    verified split search factors; a key seen twice in one call is listed
    as a repeat.  The caller empties the returned set between calls."""
    seen: set = set()
    repeats: list = []
    factor_verified = factorize._factor_verified

    def recorded(masks, cache):
        if masks in seen:
            repeats.append(masks)
        seen.add(masks)
        return factor_verified(masks, cache)

    monkeypatch.setattr(factorize, "_factor_verified", recorded)
    return seen, repeats


def test_no_labelled_quotient_is_factored_twice_in_one_call(monkeypatch):
    # route 2 inside a 2-ball miss, on the factors of a split and under a
    # quotient opens its cache through the enclosing one and shares its memo
    corpus = [(f"P{k}xhouse", strong_product([path_graph(k), house_graph()])[0]) for k in range(3, 9)]
    corpus += [(f"seeded {i}", g) for i, g in enumerate(seeded_products())]
    corpus += [(f"recovery {i}", g) for i, g in enumerate(recovery_corpus()[:50])]
    seen, repeats = record_repeats(monkeypatch)
    calls = {
        "recognize": recognize,
        "pfd_fast": pfd_fast,
        "factor_exact": lambda g: factor_exact(g, size_cap=None),
    }
    n2_inputs = 0
    for label, graph in corpus:
        for name, call in calls.items():
            seen.clear()
            try:
                result = call(graph)
            except ColoringError:
                continue
            if name == "recognize":
                n2_inputs += result.coloring is not None and result.coloring.n2_ran
            assert seen and repeats == [], (label, name)
    assert n2_inputs > 10


#: Functions that factor one neighborhood or 2-neighborhood quotient.
NEIGHBORHOOD_LAYER = {"factor_neighborhood", "factor_ball", "relative_quotient", "n2_sweep"}


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
