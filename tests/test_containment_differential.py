"""Route 1 of the split search against its frozen form.

``legacy_containment`` builds each down-set as a frozenset by subset tests;
the package reads them as masks off ``factorize._down_sets``.  Every call
that ``factor_exact``, ``recognize`` and ``pfd_fast`` make to route 1 on the
corpora of ``test_mask_decision`` must return the same split both ways,
None included, and on every quotient met there, split or only factored
through the memo, ``_down_sets`` must be the down-sets a subset test finds.
"""

from __future__ import annotations

from strongpfd import (
    ColoringError,
    Graph,
    GraphError,
    NeighborhoodCache,
    factor_exact,
    factorize,
    pfd_fast,
    recognize,
)

import legacy_containment
from test_mask_decision import corpus


def subset_down_sets(masks: tuple[int, ...]) -> list[int]:
    """D(u) = {v : N[v] ⊆ N[u]} for each u, by a subset test per pair."""
    return [sum(1 << v for v, mv in enumerate(masks) if mv | mu == mu) for mu in masks]


def test_route_one_matches_its_frozen_form(monkeypatch):
    split = factorize._split_via_containment
    factor_ball = NeighborhoodCache.factor_ball
    outcomes = {"found": 0, "none": 0}
    quotients: set[tuple[int, ...]] = set()

    def compared(masks):
        found = split(masks)
        graph = Graph.from_closed_masks(masks)
        assert found == legacy_containment.legacy_split_via_containment(graph), masks
        outcomes["found" if found is not None else "none"] += 1
        quotients.add(masks)
        return found

    def recorded(self, center, radius):
        ball = factor_ball(self, center, radius)
        quotients.add(ball[3].masks)
        return ball

    monkeypatch.setattr(factorize, "_split_via_containment", compared)
    monkeypatch.setattr(NeighborhoodCache, "factor_ball", recorded)
    for label, graph in corpus():
        for call in (recognize, pfd_fast, lambda g: factor_exact(g, size_cap=None)):
            try:
                call(graph)
            except (GraphError, ColoringError):  # a negative verdict still met its quotients
                pass
            except AssertionError as exc:
                raise AssertionError(label) from exc
    # both outcomes occur, so neither side can pass by always failing
    assert outcomes["found"] > 0 and outcomes["none"] > 0, outcomes
    for masks in quotients:
        assert list(factorize._down_sets(masks)) == subset_down_sets(masks), masks
