"""Output digests of the public entry points, to check that a refactor keeps
every result byte-identical.

Usage, from the root of a checkout:

    python3 tests/digest_outputs.py [--seed 1]

Each input of the three benchmark workloads (``perfbench/workloads.py``,
read as it is) runs through its own entry point, and every graph of the
200-graph recovery corpus (``conftest.recovery_corpus``) runs through all
three.  An outcome is ``recognize(...).to_dict()``, the factors and
coordinates of ``pfd_fast`` or ``factor_exact``, or the exception's type
and message.  The script prints one line per entry point, the digest of
its outcomes in order and how many there are; ``factor_exact`` gets one
line for its thin inputs and one for the others, plus, for each of the
two, a line for the factor multisets (sorted canonical forms), which a
change of factor order or of factor labels leaves as they are.  Then,
per workload and entry point, how many entries the neighborhood memo
wrote (its misses, decided on the quotient's masks or factored), how many
factorizations repeated a labelled graph that the same public call had
already factored (its repeats), how often
``skeleton.merge_parallel_colors`` ran and how many unions those calls
made, how often ``skeleton.product_coordinates`` ran and how many of
those calls verified, how often ``coloring.completion_sweep`` ran and how
many edges those calls added, and how many balls
``factorize.factor_neighborhood`` lifted (its lifts), 1-neighborhoods and
the 2-neighborhoods of the N2 sweep alike, and how often
``skeleton.fiber_components`` built every color's fibers over the whole
graph (its fibers).  Run it at two
commits and compare the lines; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import strongpfd  # noqa: E402
import workloads  # noqa: E402
from conftest import recovery_corpus  # noqa: E402
from strongpfd import coloring, factorize, skeleton  # noqa: E402
from strongpfd.io import loads_edgelist  # noqa: E402

ENTRY_POINTS = ("recognize", "pfd_fast", "factor_exact")
#: the digest rows: factor_exact outcomes split by the input's thinness
ROWS = (
    "recognize",
    "pfd_fast",
    "factor_exact thin",
    "factor_exact thin multisets",
    "factor_exact non-thin",
    "factor_exact non-thin multisets",
)


def call(kind: str, graph):
    """The entry point's result, or the exception it raised."""
    try:
        return getattr(strongpfd, kind)(graph)
    except Exception as exc:  # every exception is an outcome to compare
        return exc


def outcome(kind: str, result) -> str:
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    if kind == "recognize":
        return json.dumps(result.to_dict(), sort_keys=True)
    coords = None if result.coords is None else result.coords.coords
    return repr(([(f.vertex_count, tuple(f.edges())) for f in result.factors], coords))


def multiset(result) -> str:
    """The sorted canonical forms of the factors, or the exception."""
    if isinstance(result, Exception):
        return outcome("factor_exact", result)
    return repr(sorted(strongpfd.canonical_form(f) for f in result.factors))


def count_misses() -> dict[str, int]:
    """Count the entries the memo of every ``NeighborhoodCache`` writes,
    under ``"misses"``: a miss of ``factor_ball`` makes one
    ``FactoredQuotient``, whether its quotient is decided on its masks or
    built and factored, and nothing else makes one."""
    counter = {"misses": 0}
    make = factorize.FactoredQuotient

    def counted(rows, masks):
        counter["misses"] += 1
        return make(rows, masks)

    factorize.FactoredQuotient = counted
    return counter


def count_repeats() -> tuple[dict[str, int], set]:
    """Count the verified factorizations whose graph, keyed by its
    ``closed_masks``, the same public call had already factored, under
    ``"repeats"``; the set of keys seen is returned too, for the caller to
    empty before each public call."""
    counter = {"repeats": 0}
    seen: set = set()
    factor_verified = factorize._factor_verified

    def counted(masks, cache):
        counter["repeats"] += masks in seen
        seen.add(masks)
        return factor_verified(masks, cache)

    factorize._factor_verified = counted
    return counter, seen


def count_merges() -> dict[str, int]:
    """Count the calls of ``skeleton.merge_parallel_colors``, under
    ``"calls"``, and the unions they return, under ``"unions"``."""
    counter = {"calls": 0, "unions": 0}
    merge = skeleton.merge_parallel_colors

    def counted(graph, coloring):
        unions = merge(graph, coloring)
        counter["calls"] += 1
        counter["unions"] += unions
        return unions

    skeleton.merge_parallel_colors = counted
    return counter


def count_verdicts() -> dict[str, int]:
    """Count the calls of ``skeleton.product_coordinates``, under
    ``"calls"``, and those that return ok, under ``"ok"``."""
    counter = {"calls": 0, "ok": 0}
    check = skeleton.product_coordinates

    def counted(graph, edge_color, n_colors):
        result = check(graph, edge_color, n_colors)
        counter["calls"] += 1
        counter["ok"] += result[0]
        return result

    skeleton.product_coordinates = counted
    return counter


def count_sweeps() -> dict[str, int]:
    """Count the calls of ``coloring.completion_sweep``, through both its
    ``coloring`` and its ``skeleton`` binding, under ``"calls"``, and the
    edges they add, under ``"added"``."""
    counter = {"calls": 0, "added": 0}
    sweep = coloring.completion_sweep

    def counted(graph, partial):
        added = sweep(graph, partial)
        counter["calls"] += 1
        counter["added"] += added
        return added

    coloring.completion_sweep = skeleton.completion_sweep = counted
    return counter


def count_lifts() -> dict[str, int]:
    """Count the calls of ``factorize.factor_neighborhood``, through both its
    ``factorize`` and its ``skeleton`` binding, each of which lifts one
    ball's edges, under ``"lifts"``."""
    counter = {"lifts": 0}
    lift = factorize.factor_neighborhood

    def counted(cache, v, radius=1):
        counter["lifts"] += 1
        return lift(cache, v, radius)

    factorize.factor_neighborhood = skeleton.factor_neighborhood = counted
    return counter


def count_fibers() -> dict[str, int]:
    """Count the calls of ``skeleton.fiber_components``, through both its
    ``skeleton`` and its ``recognize`` binding, each of which builds every
    color's fibers over the whole graph, under ``"fibers"``."""
    counter = {"fibers": 0}
    fibers = skeleton.fiber_components
    # the package exports the function ``recognize`` under the module's name
    recognize = importlib.import_module("strongpfd.recognize")

    def counted(graph, edge_color, n_colors):
        counter["fibers"] += 1
        return fibers(graph, edge_color, n_colors)

    skeleton.fiber_components = recognize.fiber_components = counted
    return counter


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows: dict[str, list[str]] = {row: [] for row in ROWS}
    repeats, factored = count_repeats()
    counters = (
        count_misses(),
        repeats,
        count_merges(),
        count_verdicts(),
        count_sweeps(),
        count_lifts(),
        count_fibers(),
    )
    # per (source, entry point): misses, repeats, merge calls, unions,
    # checks, ok checks, sweeps, edges added, lifts, fiber passes
    totals: dict[tuple[str, str], list[int]] = {}

    def snapshot() -> list[int]:
        return [count for counter in counters for count in counter.values()]

    def run(source: str, kind: str, graph) -> None:
        before = snapshot()
        factored.clear()
        result = call(kind, graph)
        if kind != "factor_exact":
            rows[kind].append(outcome(kind, result))
        else:
            row = "factor_exact thin" if strongpfd.is_thin(graph) else "factor_exact non-thin"
            rows[row].append(outcome(kind, result))
            rows[f"{row} multisets"].append(multiset(result))
        seen = totals.setdefault((source, kind), [0] * len(before))
        for i, (now, then) in enumerate(zip(snapshot(), before)):
            seen[i] += now - then

    for name in workloads.WORKLOADS:
        pool = workloads.build(name, args.seed)
        for kind in ENTRY_POINTS:
            for case in pool.cases.get(kind, []):
                run(name, kind, loads_edgelist(case.text))
    for graph in recovery_corpus():
        for kind in ENTRY_POINTS:
            run("recovery", kind, graph)
    for row, outcomes in rows.items():
        digest = hashlib.blake2b("\n".join(outcomes).encode(), digest_size=16).hexdigest()
        print(f"{row} {digest} outcomes={len(outcomes)}")
    for (source, kind), counts in totals.items():
        count, repeated, calls, unions, checks, ok, sweeps, added, lifts, fibers = counts
        print(f"misses {source} {kind} {count}")
        print(f"repeats {source} {kind} {repeated}")
        print(f"merges {source} {kind} calls={calls} unions={unions}")
        print(f"verdicts {source} {kind} calls={checks} ok={ok}")
        print(f"sweeps {source} {kind} calls={sweeps} added={added}")
        print(f"lifts {source} {kind} {lifts}")
        print(f"fibers {source} {kind} {fibers}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
