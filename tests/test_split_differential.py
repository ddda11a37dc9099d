"""Route 3 of the split search against its frozen form.

``legacy_split`` tests every connected subset through the anchor for
isometry first and applies the product laws afterwards; the package cuts
branches by the degree law while subsets grow and tests isometry last.  On
a seeded corpus of graphs that are not thin, ``factor_exact`` must give the
same outcome either way, the extension must see the same candidate pairs,
and the new enumeration must hand on at most half as many subsets.  The
corpus holds near products on which the isometry test is what rejects some
law-abiding candidates, so dropping it would show.
"""

from __future__ import annotations

import random

from strongpfd import Graph, factor_exact, factorize, is_thin, random_connected_graph, strong_product

import legacy_split

COMPOSITE_ORDERS = (4, 6, 8, 9, 10, 12, 14, 15, 16)


def relabeled(rng: random.Random, graph: Graph) -> Graph:
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return graph.relabeled(perm)


def near_product(seed: int) -> Graph:
    """The strong product of two random connected 4-vertex graphs with two
    vertex pairs toggled between edge and non-edge, relabelled."""
    rng = random.Random(seed)
    factors = [random_connected_graph(4, rng.uniform(0.2, 0.7), rng.randrange(2**32)) for _ in "AB"]
    edges = set(strong_product(factors)[0].edges())
    for _ in range(2):
        u, v = sorted(rng.sample(range(16), 2))
        edges ^= {(u, v)}
    return relabeled(rng, Graph(16, edges))


#: Seeds whose near product makes route 3 meet candidate fibers that obey
#: the degree and edge-count laws but are not isometric.
FALSE_FIBER_SEEDS = (292, 332, 699)


def non_thin_corpus() -> list[tuple[str, Graph]]:
    """Relabelled products of random connected factors of 2-4 vertices,
    random connected graphs of composite order up to 16, and near products
    whose laws admit a fiber that is not isometric, all not thin."""
    rng = random.Random(20091004)
    cases = []
    while len(cases) < 60:
        sizes = [rng.randint(2, 4) for _ in range(rng.choice((2, 2, 3)))]
        if len(sizes) == 3 and sizes[0] * sizes[1] * sizes[2] > 16:
            continue
        p = rng.uniform(0.3, 0.8)
        factors = [random_connected_graph(s, p, rng.randrange(2**32)) for s in sizes]
        graph = relabeled(rng, strong_product(factors)[0])
        if not is_thin(graph):
            cases.append((f"product{sizes}p{p:.2f}", graph))
    while len(cases) < 120:
        n = rng.choice(COMPOSITE_ORDERS)
        p = rng.uniform(0.3, 0.8)
        graph = random_connected_graph(n, p, rng.randrange(2**32))
        if not is_thin(graph):
            cases.append((f"random{n}p{p:.2f}", graph))
    cases += [(f"near_product#{seed}", near_product(seed)) for seed in FALSE_FIBER_SEEDS]
    return cases


CORPUS = non_thin_corpus()


def outcome(graph: Graph):
    try:
        result = factor_exact(graph)
    except Exception as exc:  # the differential compares failures too
        return type(exc).__name__, str(exc)
    return [tuple(f.edges()) for f in result.factors], result.coords.coords


def traced_run(monkeypatch, graph: Graph, frozen: bool):
    """factor_exact's outcome under the package's or the frozen route 3,
    the candidate pairs handed to the extension, and how many subsets the
    enumeration handed on."""
    module, name = (
        (legacy_split, "connected_isometric_subsets") if frozen else (factorize, "_connected_subsets")
    )
    enumerate_subsets = getattr(module, name)
    extend = factorize._try_extension
    pairs = []
    handed_on = 0

    def counted_subsets(*args):
        nonlocal handed_on
        for subset in enumerate_subsets(*args):
            handed_on += 1
            yield subset

    def recorded_extension(graph, fa, fb, v0):
        pairs.append((tuple(fa), tuple(fb), v0))
        return extend(graph, fa, fb, v0)

    with monkeypatch.context() as patch:
        if frozen:
            patch.setattr(factorize, "_split_blind", legacy_split.legacy_split_blind)
        patch.setattr(module, name, counted_subsets)
        patch.setattr(factorize, "_try_extension", recorded_extension)
        result = outcome(graph)
    return result, pairs, handed_on


def test_the_corpus_is_not_thin_and_has_both_verdicts():
    assert len(CORPUS) == 123
    assert all(not is_thin(graph) for _, graph in CORPUS)
    primes = sum(len(outcome(graph)[0]) == 1 for _, graph in CORPUS)
    assert 0 < primes < len(CORPUS)


def test_the_near_products_need_the_isometry_test(monkeypatch):
    # without it the frozen search would hand the extension more pairs, so
    # the differential below also checks that the isometry test still runs
    for seed in FALSE_FIBER_SEEDS:
        graph = near_product(seed)
        _, pairs, _ = traced_run(monkeypatch, graph, frozen=True)
        with monkeypatch.context() as patch:
            patch.setattr(legacy_split, "is_isometric", lambda *args: True)
            _, unchecked, _ = traced_run(monkeypatch, graph, frozen=True)
        assert len(unchecked) > len(pairs), seed


def test_route_three_matches_its_frozen_form(monkeypatch):
    # same factors and coordinates or the same exception, and the same
    # candidate pairs in the same order, so also the same extension calls
    for label, graph in CORPUS:
        new, new_pairs, _ = traced_run(monkeypatch, graph, frozen=False)
        old, old_pairs, _ = traced_run(monkeypatch, graph, frozen=True)
        assert new == old, label
        assert new_pairs == old_pairs, label


def test_the_prune_hands_on_at_most_half_the_subsets(monkeypatch):
    new = sum(traced_run(monkeypatch, graph, frozen=False)[2] for _, graph in CORPUS)
    old = sum(traced_run(monkeypatch, graph, frozen=True)[2] for _, graph in CORPUS)
    assert 0 < 2 * new <= old, (new, old)
