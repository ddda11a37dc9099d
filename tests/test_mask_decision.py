"""The prime verdict that ``NeighborhoodCache.factor_ball`` reads off a
quotient's masks against the full path it skips.

Wherever ``factorize._prime_on_masks`` says prime, the verified split
search on the quotient graph must return the quotient as its one factor,
with identity rows: the memo entry the miss writes without building a
graph is then the one the full path writes.  The quotients are those the
public entry points meet on the corpora below, 1-balls and the 2-balls of
the N2 sweep alike, plus every 1-ball of the dense graphs and the 2-balls
of king strips, which have no universal vertex.
"""

from __future__ import annotations

import pytest

from strongpfd import (
    ColoringError,
    Graph,
    GraphError,
    NeighborhoodCache,
    complete_graph,
    factor_exact,
    path_graph,
    pfd_fast,
    recognize,
    strong_product,
)
from strongpfd import factorize

from conftest import recovery_corpus
from test_coloring import PERTURBATIONS, perturbed_product
from test_quotient_differential import dense_graphs
from test_quotient_memo import relabeled


def king_strips():
    strips = [(f"P{k}xP3", strong_product([path_graph(k), path_graph(3)])[0]) for k in (3, 5, 9, 16)]
    return strips + [(f"{label} relabeled", relabeled(g, 7)) for label, g in strips]


def corpus():
    graphs = dense_graphs()
    graphs += [(f"recovery {i}", g) for i, g in enumerate(recovery_corpus()[:50])]
    graphs += king_strips()
    graphs += [(label, perturbed_product(edge)) for label, edge in PERTURBATIONS.items()]
    return graphs


def met_quotients() -> dict[tuple[int, ...], set[int]]:
    """The closed masks of every quotient ``factor_ball`` returns on the
    corpus, with the radii of the balls it came from."""
    met: dict[tuple[int, ...], set[int]] = {}
    factor_ball = NeighborhoodCache.factor_ball

    def recorded(self, center, radius):
        ball = factor_ball(self, center, radius)
        met.setdefault(ball[3].masks, set()).add(radius)
        return ball

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NeighborhoodCache, "factor_ball", recorded)
        for _, graph in corpus():
            for call in (recognize, pfd_fast, lambda g: factor_exact(g, size_cap=None)):
                try:
                    call(graph)
                except (GraphError, ColoringError):  # a negative verdict still met its balls
                    pass
        # every ball of a dense graph, whose largest exceed recognize's cap,
        # and the 2-balls of king strips, which have no universal vertex
        for graphs, radius in ((dense_graphs(), 1), (king_strips(), 2)):
            for _, graph in graphs:
                cache = NeighborhoodCache(graph)
                for v in graph.vertices():
                    cache.factor_ball(v, radius)
        # a corner of a king strip and a complete host: one class, n = 1
        NeighborhoodCache(strong_product([path_graph(4), path_graph(3)])[0]).factor_ball(0, 1)
        NeighborhoodCache(complete_graph(5)).factor_ball(2, 1)
    return met


def test_a_prime_verdict_on_the_masks_is_the_full_path_verdict():
    met = met_quotients()
    verdicts = {"order": 0, "down-sets": 0, "full path": 0, "one vertex": 0}
    for masks, radii in met.items():
        n = len(masks)
        if not factorize._prime_on_masks(masks):
            verdicts["one vertex" if n == 1 else "full path"] += 1
            continue
        graph = Graph.from_closed_masks(masks)
        factors, rows = factorize._factor_verified(masks, NeighborhoodCache(graph))
        assert factors == [masks] and rows == [(q,) for q in range(n)], (masks, radii)
        prime_order = factorize._least_prime_factor(n) == n
        verdicts["order" if prime_order else "down-sets"] += 1
    # both kinds of prime verdict occur, and n = 1 keeps the full path, whose
    # rows are ((),), not (0,)
    assert all(verdicts.values()), verdicts
    assert (1,) in met and not factorize._prime_on_masks((1,))
    # composite balls without a universal vertex occur, whose down-set sizes
    # decide nothing: a king strip's inner 2-ball is P5 x P3
    assert any(
        2 in radii and len(masks) == 15 and (1 << 15) - 1 not in masks
        for masks, radii in met.items()
    )

