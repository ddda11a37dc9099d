"""Per-vertex cost of ``pfd_fast`` on long row-major strips, and its growth.

Run it from the root of a checkout with ``python3 tests/scaling_probe.py``.

For each k in ``K`` the strip P_k⊠P_3 is built once in row-major order
(the last factor's coordinate varies fastest); each run times ``pfd_fast``
on a fresh ``Graph`` of its edges, so every lazy per-graph fact is paid
inside the timer.  The script prints the best of ``REPEATS`` runs per k in ms per
vertex, once as it runs and once with the cyclic garbage collector disabled
around each timed call, then, for each column, the slope of the
least-squares line through (log n, log time): 1 means linear, and a flat
ms/vertex column reads as a slope near 1.  The gap between the columns is
the collector's share of the growth.  Wall-clock time of one process;
compare runs taken on the same machine.  Pytest does not collect this file.
"""

from __future__ import annotations

import gc
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strongpfd import Graph, path_graph, pfd_fast, strong_product  # noqa: E402

K = (400, 1600, 6400)
REPEATS = 3


def best_seconds(n: int, edges: list[tuple[int, int]], collect: bool) -> float:
    best = math.inf
    for _ in range(REPEATS):
        graph = Graph(n, edges)
        if not collect:
            gc.disable()
        try:
            start = time.perf_counter()
            pfd_fast(graph)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def fitted_slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    points: list[tuple[int, float]] = []
    quiet: list[tuple[int, float]] = []
    print("k n ms/vertex ms/vertex(gc off)")
    for k in K:
        strip, _ = strong_product([path_graph(k), path_graph(3)])
        n, edges = strip.vertex_count, list(strip.edges())
        points.append((n, best_seconds(n, edges, collect=True)))
        quiet.append((n, best_seconds(n, edges, collect=False)))
        print(f"{k} {n} {points[-1][1] * 1e3 / n:.4f} {quiet[-1][1] * 1e3 / n:.4f}")
    print(f"slope {fitted_slope(points):.3f} {fitted_slope(quiet):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
