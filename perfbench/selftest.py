"""Self-tests of the benchmark itself: seeded generation, the ground-truth
checker and the span wrappers.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import sys

import run

strongpfd = run.import_package()

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from strongpfd.graph import Graph, complete_graph  # noqa: E402
from strongpfd.io import loads_edgelist  # noqa: E402


def test_seed_determines_inputs() -> None:
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7).texts()
        again = workloads.build(name, 7).texts()
        other = workloads.build(name, 8).texts()
        assert first == again, f"{name}: same seed gave different edge lists"
        assert first != other, f"{name}: different seeds gave the same edge lists"


def _first(pool, kind: str, **want):
    return next(
        c for c in pool.cases[kind] if all(getattr(c, k) == v for k, v in want.items())
    )


def _outcome(case):
    graph = loads_edgelist(case.text)
    return getattr(strongpfd, case.kind)(graph)


def test_checker_rejects_corrupted_results() -> None:
    small = workloads.build("small_products", 3)
    dense = workloads.build("dense_prime", 3)

    positive = _first(small, "recognize", positive=True)
    report = _outcome(positive)
    assert check.check(positive, report, None) is None
    flipped = dataclasses.replace(report, in_upsilon=False)
    assert check.check(positive, flipped, None) is not None, "flipped verdict accepted"
    first, *rest = report.extracted_factors
    swapped = (complete_graph(first.vertex_count), *rest)
    assert check.graph_keys(swapped) != positive.factors
    assert check.check(positive, dataclasses.replace(report, extracted_factors=swapped), None)

    negative = _first(small, "recognize", positive=False)
    report = _outcome(negative)
    assert check.check(negative, report, None) is None
    assert check.check(negative, dataclasses.replace(report, in_upsilon=True), None)

    fast = small.cases["pfd_fast"][0]
    result = _outcome(fast)
    assert check.check(fast, result, None) is None
    first, *rest = result.factors
    bad = dataclasses.replace(result, factors=(complete_graph(first.vertex_count), *rest))
    assert check.check(fast, bad, None), "swapped factor accepted"

    exact = small.cases["factor_exact"][0]
    result = _outcome(exact)
    assert check.check(exact, result, None) is None
    assert check.check(exact, dataclasses.replace(result, factors=result.factors[1:]), None)

    prime = dense.cases["factor_exact"][0]
    result = _outcome(prime)
    assert check.check(prime, result, None) is None
    other = Graph(prime.n, prime.edges[1:])
    assert check.check(prime, dataclasses.replace(result, factors=(other,)), None)

    coloring = dense.cases["pfd_fast"][0]
    assert check.check(coloring, None, strongpfd.ColoringError("not locally unrefined")) is None
    assert check.check(positive, None, RecursionError("deep")), "unexpected exception accepted"
    assert check.check(coloring, None, RecursionError("deep"))


def test_wrappers_cover_bindings_and_are_removed() -> None:
    pool = workloads.build("small_products", 5)
    case = next(c for c in pool.cases["recognize"] if c.label.endswith("xhouse"))
    plain = run.Runner(strongpfd).run(case)
    originals = {
        (m.__name__, a): v
        for m in spans._package_modules()
        for a, v in vars(m).items()
        if callable(v)
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        installed = set(spans.leftover_wrappers())
        for site in (
            "strongpfd.recognize",  # the package attribute bound to the function
            "strongpfd.skeleton.completion_sweep",
            "strongpfd.factorize.factor_exact",
            "strongpfd.recognize.product_coordinates",
            "strongpfd.graph.Graph.induced_subgraph",
            "strongpfd.coloring.NeighborhoodCache.get",
        ):
            assert site in installed, f"{site} not wrapped"
        traced = run.Runner(strongpfd, tracer).run(case, 0)
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == [], "wrappers left after uninstall"
    for (module, attr), value in originals.items():
        assert getattr(sys.modules[module], attr) is value, f"{module}.{attr} not restored"
    assert (traced.fingerprint, traced.failure) == (plain.fingerprint, plain.failure), "traced outcome differs"
    metrics = tracer.layer_metrics()
    assert metrics["recognize.product_coordinates.calls"] >= 1  # imported inside build_skeleton
    assert metrics["skeleton.n2_sweep.calls"] >= 1
    assert metrics["skeleton.n2_ran_ratio"] == 1.0


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
