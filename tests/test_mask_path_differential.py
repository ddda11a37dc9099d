"""The exact factorizer on closed masks and the Cartesian reader of a memo
entry against their frozen forms.

``legacy_pfd`` factors a ``Graph``: a split builds each fiber as an induced
subgraph and the factor graphs are verified.  The package factors closed
masks: a split renumbers each fiber's masks by rank, a graph that is not
thin has its quotient and blow-ups written as masks, and the product check
reads edges and closed-neighborhood sizes off the masks.  On every graph
``_factor_verified`` is met with, under the public entry points on the
seed-1 benchmark pools and on ``test_mask_decision.corpus()``, and under
``factor_exact`` on ``test_extension_differential.seeded_products()``, on
``test_quotient_first.CORPUS``, none of whose graphs is thin, and on the
twin-linked P3 ⊠ P3 graphs alone and times K2 and P3, both must return the
same rows, and the package's factors must be the closed masks of the
frozen factor graphs.  The frozen quotient route must meet a blow-up
weight above 1, a group of two or more linked quotient factors, a K_p
taken from the gcd of the class sizes, and a graph that is not thin found
prime.  On every memo entry written there,
``FactoredQuotient.cartesian``, which reads each vertex's partners off
per-coordinate value masks, must return the triples of ``legacy_cartesian``
in the same order, since the order of the lifted edges feeds the colors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from strongpfd import ColoringError, Graph, GraphError, NeighborhoodCache, factorize, io
from strongpfd import complete_graph, factor_exact, path_graph, pfd_fast, recognize, strong_product

import legacy_pfd
from legacy_cartesian import legacy_cartesian
from test_extension_differential import seeded_products
from test_mask_decision import corpus
from test_quotient_first import CORPUS, twin_linked_square

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ENTRY_POINTS = {
    "recognize": recognize,
    "pfd_fast": pfd_fast,
    "factor_exact": lambda g: factor_exact(g, size_cap=None),
}


def workload_graphs() -> list[tuple[str, str, Graph]]:
    """(workload, entry point, graph) for every case of the seed-1 pools."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    found = []
    for name in workloads.WORKLOADS:
        for kind, cases in workloads.build(name, 1).cases.items():
            found += [(name, kind, io.loads_edgelist(case.text)) for case in cases]
    return found


def non_thin_graphs() -> list[tuple[str, Graph]]:
    """The graphs of ``test_quotient_first.CORPUS``, none of them thin, and
    the twin-linked P3 ⊠ P3 graphs alone and times K2 and P3, whose class
    sizes link both coordinates of their quotient."""
    found = list(CORPUS)
    for cell in ((0, 0), (1, 1)):
        square = twin_linked_square(cell)
        found.append((f"twin-linked{cell}", square))
        for other in (complete_graph(2), path_graph(3)):
            label = f"twin-linked{cell}xn{other.vertex_count}"
            found.append((label, strong_product([square, other])[0]))
    return found


def watch_the_frozen_quotient_route(monkeypatch) -> dict[str, int]:
    """Count, while the test runs, the cases the frozen quotient route meets:
    blow-ups with a weight above 1, groups of two or more linked quotient
    factors, K_p factors taken from the gcd of the class sizes, and graphs
    that are not thin found prime."""
    cases = dict.fromkeys(("weight above 1", "linked group", "K_p", "prime"), 0)
    blow_up, product, complete, route = (
        legacy_pfd._blow_up,
        legacy_pfd.strong_product,
        legacy_pfd.complete_graph,
        legacy_pfd._factor_through_quotient,
    )

    def blown(core, starts):
        cases["weight above 1"] += starts[-1] > core.vertex_count
        return blow_up(core, starts)

    def grouped(factors):
        cases["linked group"] += len(factors) > 1
        return product(factors)

    def clique(p):
        cases["K_p"] += 1
        return complete(p)

    def through(graph, cache):
        factors, rows = route(graph, cache)
        cases["prime"] += len(factors) == 1
        return factors, rows

    for name, wrapper in (
        ("_blow_up", blown),
        ("strong_product", grouped),
        ("complete_graph", clique),
        ("_factor_through_quotient", through),
    ):
        monkeypatch.setattr(legacy_pfd, name, wrapper)
    return cases


@pytest.fixture(scope="module")
def met() -> tuple[dict[tuple[int, ...], str], dict[tuple, str]]:
    """The closed masks of every graph ``_factor_verified`` is called on,
    and the (rows, masks) of every memo entry written, each with where it
    was first met."""
    factored: dict[tuple[int, ...], str] = {}
    entries: dict[tuple, str] = {}
    factor_verified, make = factorize._factor_verified, factorize.FactoredQuotient
    source = ""

    def recorded(masks, cache):
        factored.setdefault(masks, source)
        return factor_verified(masks, cache)

    def kept(rows, masks):
        entries.setdefault((rows, masks), source)
        return make(rows, masks)

    runs = [(f"{name} {kind}", ENTRY_POINTS[kind], g) for name, kind, g in workload_graphs()]
    runs += [(f"{label} {kind}", call, g) for label, g in corpus() for kind, call in ENTRY_POINTS.items()]
    runs += [(label, ENTRY_POINTS["factor_exact"], g) for label, g in seeded_products()]
    runs += [(label, ENTRY_POINTS["factor_exact"], g) for label, g in non_thin_graphs()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factorize, "_factor_verified", recorded)
        patch.setattr(factorize, "FactoredQuotient", kept)
        for source, call, graph in runs:
            try:
                call(graph)
            except (GraphError, ColoringError):  # a negative verdict still met its graphs
                pass
    return factored, entries


def test_mask_factorization_matches_the_graph_path(met, monkeypatch):
    factored, _ = met
    cases = watch_the_frozen_quotient_route(monkeypatch)
    kinds = {"split": 0, "not thin": 0, "no universal vertex": 0, "small_products": 0}
    for masks, source in factored.items():
        graph = Graph.from_closed_masks(masks)
        factors, rows = factorize._factor_verified(masks, NeighborhoodCache(graph))
        old_factors, old_rows = legacy_pfd.legacy_factor_verified(graph, NeighborhoodCache(graph))
        assert rows == old_rows, (source, masks)
        assert factors == [f.closed_masks for f in old_factors], (source, masks)
        n = len(masks)
        kinds["split"] += len(factors) > 1
        kinds["not thin"] += len(set(masks)) < n
        kinds["no universal vertex"] += (1 << n) - 1 not in masks
        kinds["small_products"] += source.startswith("small_products")
    # splits, quotients of graphs that are not thin and route 2 all occur
    assert all(kinds.values()), kinds
    # and every branch of the quotient route
    assert all(cases.values()), cases


def test_value_mask_cartesian_reader_matches_the_edge_walk(met):
    _, entries = met
    composite = 0
    for (rows, masks), source in entries.items():
        entry = factorize.FactoredQuotient(rows, masks)
        assert entry.cartesian == legacy_cartesian(rows, masks), (source, masks)
        composite += len(rows[0]) > 1
    # composite entries, whose partners span several coordinates, occur
    assert composite > 100, composite
