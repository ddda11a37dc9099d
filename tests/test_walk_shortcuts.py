"""The shortcuts of ``pfd_fast``'s covering walk against what they replace.

- Each fiber through the anchor that ``recognize._anchor_fibers`` walks
  must be the fiber through the anchor that ``skeleton.fiber_components``
  builds over the whole graph, on every input that ``pfd_fast`` colors in
  the seed-1 ``king_strips`` and ``small_products`` benchmark pools and in
  the recovery corpus.  The pools are read as ``perfbench/workloads.py``
  builds them.
- ``sclasses.relative_quotient``, which returns at once on a ball whose
  classes are all singletons, must give what its frozen form in
  ``legacy_relative_quotient`` gives, on every 1-ball and 2-ball of the
  mask-decision corpus (which holds the perturbed products), singleton
  classes or not.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from strongpfd import ColoringError, GraphError, pfd_fast
from strongpfd.io import loads_edgelist
from strongpfd.sclasses import relative_quotient

from conftest import recovery_corpus
from legacy_relative_quotient import legacy_relative_quotient
from test_coloring import anchor_fibers
from test_mask_decision import corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the package exports the function ``recognize`` under the module's name
recognize_module = importlib.import_module("strongpfd.recognize")


def pfd_fast_inputs() -> list[tuple[str, object]]:
    """The seed-1 ``pfd_fast`` inputs of two benchmark pools, then the
    recovery corpus, each with its source."""
    saved = sys.path[:]
    sys.path.insert(0, str(PERFBENCH))  # workloads imports its siblings by name
    try:
        workloads = importlib.import_module("workloads")
        pools = {name: workloads.build(name, 1) for name in ("king_strips", "small_products")}
    finally:
        sys.path[:] = saved
    inputs = [
        (name, loads_edgelist(case.text))
        for name, pool in pools.items()
        for case in pool.cases["pfd_fast"]
    ]
    return inputs + [("recovery", graph) for graph in recovery_corpus()]


def test_walked_anchor_fibers_are_the_whole_graph_fibers(monkeypatch):
    walked = recognize_module._anchor_fibers
    compared: dict[str, int] = {}
    source = ""

    def checked(graph, partial, x):
        fibers = walked(graph, partial, x)
        assert [sorted(f) for f in fibers] == anchor_fibers(graph, partial, x), source
        compared[source] = compared.get(source, 0) + 1
        return fibers

    monkeypatch.setattr(recognize_module, "_anchor_fibers", checked)
    for source, graph in pfd_fast_inputs():
        try:
            pfd_fast(graph)
        except (GraphError, ColoringError):  # not an input the walk reads
            pass
    # 88, 361 and 200 calls when written
    assert compared["king_strips"] >= 80 and compared["small_products"] >= 300, compared
    assert compared["recovery"] >= 150, compared


def test_the_singleton_shortcut_matches_the_frozen_class_loop():
    seen = {"all singletons": 0, "merged classes": 0}
    for label, graph in corpus():
        for v in graph.vertices():
            for radius in (1, 2):
                members = graph.n_neighborhood(v, radius)
                found = relative_quotient(graph, members)
                assert found == legacy_relative_quotient(graph, members), (label, v, radius)
                single = len(found[0]) == len(members)
                seen["all singletons" if single else "merged classes"] += 1
    # 1731 and 1103 when written
    assert all(count >= 100 for count in seen.values()), seen
