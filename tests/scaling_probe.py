"""Per-vertex cost of ``pfd_fast`` on long row-major strips, and its growth.

Run it from the root of a checkout with ``python3 tests/scaling_probe.py``.

For each k in ``K`` the strip P_k⊠P_3 is built once in row-major order
(the last factor's coordinate varies fastest); each run times ``pfd_fast``
on a fresh ``Graph`` of its edges, so every lazy per-graph fact is paid
inside the timer.  A series prints the best of ``REPEATS`` runs per k in ms
per vertex, once as it runs and once with the cyclic garbage collector
disabled around each timed call, then, for each column, the slope of the
least-squares line through (log n, log time): 1 means linear, and a flat
ms/vertex column reads as a slope near 1.  The gap between the columns is
the collector's share of the growth.  One slow run moves a series' slope,
so the series runs in ``PROCESSES`` fresh processes, one after another, and
the script ends with the median of their slopes per column.  Wall-clock
time; compare runs taken on the same machine.  Pytest does not collect
this file.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strongpfd import Graph, path_graph, pfd_fast, strong_product  # noqa: E402

K = (400, 1600, 6400)
REPEATS = 3
PROCESSES = 5


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


def series() -> tuple[float, float]:
    """Time the k-series in this process, print its rows and return its
    slopes, collector on and off."""
    points: list[tuple[int, float]] = []
    quiet: list[tuple[int, float]] = []
    for k in K:
        strip, _ = strong_product([path_graph(k), path_graph(3)])
        n, edges = strip.vertex_count, list(strip.edges())
        points.append((n, best_seconds(n, edges, collect=True)))
        quiet.append((n, best_seconds(n, edges, collect=False)))
        print(f"{k} {n} {points[-1][1] * 1e3 / n:.4f} {quiet[-1][1] * 1e3 / n:.4f}", flush=True)
    return fitted_slope(points), fitted_slope(quiet)


def main() -> int:
    slopes = []
    # one worker that exits after each series, so each runs in a fresh process
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for run in range(1, PROCESSES + 1):
            print(f"process {run}\nk n ms/vertex ms/vertex(gc off)", flush=True)
            slopes.append(pool.apply(series))
            print(f"slope {slopes[-1][0]:.3f} {slopes[-1][1]:.3f}", flush=True)
    on, off = zip(*slopes)
    print(f"median slope {statistics.median(on):.3f} {statistics.median(off):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
