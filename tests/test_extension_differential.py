"""The bijection extension of the split search against its frozen form.

``legacy_extension`` checks each candidate vertex against every pair placed
so far; the package checks it only against the placed product neighbors of
its pair.  Every call that ``factor_exact`` makes to the extension, on
seeded products of both split routes, of quotients of products that are not
thin, and on the near products of ``test_quotient_first``, must return the
same mapping both ways, None included.
"""

from __future__ import annotations

import random

from strongpfd import Graph, factor_exact, factorize, path_graph, random_product_instance, strong_product

import legacy_extension
from test_quotient_first import FALSE_FIBER_SEEDS, near_product, relabeled


def seeded_products() -> list[tuple[str, Graph]]:
    """Row-major king strips and relabelled products of seeded random
    factors: thin ones of at most 36 vertices, and others of at most 16."""
    rng = random.Random(8128)
    cases = [(f"P{k}xP3", strong_product([path_graph(k), path_graph(3)])[0]) for k in (3, 5, 9)]
    while len(cases) < 43:
        # a thin connected factor has at least 3 vertices
        thin = rng.random() < 0.6
        sizes = [rng.randint(3, 5) if thin else rng.randint(2, 4) for _ in range(rng.choice((2, 2, 3)))]
        if sizes[0] * sizes[1] * (sizes[2] if len(sizes) == 3 else 1) > (36 if thin else 16):
            continue
        instance = random_product_instance(sizes, rng.randrange(2**32), rng.uniform(0.3, 0.7), thin)
        cases.append((f"product{sizes} thin={thin}", relabeled(rng, instance.graph)))
    return cases


def near_products() -> list[tuple[str, Graph]]:
    seeds = FALSE_FIBER_SEEDS + tuple(range(10))
    return [(f"near_product#{seed}", near_product(seed)) for seed in seeds]


def test_extension_matches_its_frozen_form(monkeypatch):
    extend = factorize._try_extension
    outcomes = {"found": 0, "none": 0}

    def compared(masks, fa, fb, v0):
        phi = extend(masks, fa, fb, v0)
        graph = Graph.from_closed_masks(masks)
        assert phi == legacy_extension.legacy_try_extension(graph, fa, fb, v0), (fa, fb, v0)
        outcomes["found" if phi is not None else "none"] += 1
        return phi

    monkeypatch.setattr(factorize, "_try_extension", compared)
    for label, graph in seeded_products() + near_products():
        try:
            factor_exact(graph, size_cap=None)
        except AssertionError as exc:
            raise AssertionError(label) from exc
    # both verdicts occur, so neither side can pass by always failing
    assert outcomes["found"] > 0 and outcomes["none"] > 0, outcomes
