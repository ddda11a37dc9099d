"""strongpfd benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload king_strips --seed 1 --seconds 30 --trace 0

One client runs the public entry points recognize, pfd_fast and
factor_exact in a closed loop, one op at a time, on inputs generated from
the seed.  Every op gets its own freshly parsed graph, so per-graph lazy
state is paid inside the op, and every result is checked against ground
truth.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it first times a sequence of ops untraced, then replays the
same sequence with spans around each layer and reports per-layer numbers.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ENTRY_POINTS = ("recognize", "pfd_fast", "factor_exact")

#: Set-up runs this many times per run; set-up time is their median.
SETUP_REPEATS = 3
#: Ops stop being started after this many seconds, even mid-pass.
HARD_LIMIT_S = 140.0
#: The tail is the highest percentile, at most TAIL_MAX, that has at least
#: TAIL_BEYOND samples beyond it.
TAIL_BEYOND = 10
TAIL_MAX = 0.99
#: A calibration sample is taken between ops at most this often ...
CALIBRATE_EVERY_S = 0.25
#: ... and an op is scaled by the samples taken this close to its start.
CALIBRATION_WINDOW_S = 3.0
#: Median calibration time on the machine the benchmark was written on (a
#: 2-vCPU Linux VM); times read as if every run had that machine's speed.
CALIBRATION_NOMINAL_S = 0.005


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import strongpfd from this checkout's sources, never from elsewhere."""
    if not (SRC / "strongpfd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no strongpfd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import strongpfd

    if Path(strongpfd.__file__).resolve().parent != SRC / "strongpfd":
        raise SystemExit(f"perfbench: imported strongpfd from {strongpfd.__file__}, not {SRC}")
    return strongpfd


def digest(kind: str, result, error: BaseException | None) -> str:
    """Stable fingerprint of an op's full outcome, to compare traced and
    untraced runs."""
    if error is not None:
        body = f"{type(error).__name__}: {error}"
    elif kind == "recognize":
        body = json.dumps(result.to_dict(), sort_keys=True)
    else:
        coords = None if result.coords is None else result.coords.coords
        body = repr(([(f.vertex_count, tuple(f.edges())) for f in result.factors], coords))
    return hashlib.blake2b(body.encode(), digest_size=16).hexdigest()


class Calibration:
    """Machine speed, sampled between ops with a fixed pure-Python graph
    computation that shares no code with strongpfd.

    The sandbox this benchmark was written in drifts by 15-20% in speed
    within minutes, more than the regressions the bounds must catch.  Each
    time is multiplied by ``factor_at`` its start: the nominal calibration
    time over the median of the samples taken within a few seconds of it.
    The program cannot move the factor: the calibration runs between ops,
    with the garbage collector off.
    """

    def __init__(self) -> None:
        rng = random.Random(20171705)
        self.adj: list[set[int]] = [set() for _ in range(600)]
        for _ in range(2400):
            u, v = rng.randrange(600), rng.randrange(600)
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def _work(self) -> int:
        adj = [frozenset(a) for a in self.adj]
        masks = [sum(1 << w for w in a) for a in adj]
        dist = {0: 0}
        queue = [0]
        for u in queue:
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        triangles = sum(len(adj[u] & adj[v]) for u in range(len(adj)) for v in adj[u] if u < v)
        groups: dict[int, list[int]] = {}
        for v in range(len(adj)):
            groups.setdefault(masks[v] & masks[(v + 1) % len(adj)], []).append(v)
        return triangles + len(groups) + len(dist)

    def sample(self) -> None:
        gc.disable()
        try:
            began = perf_counter()
            self._work()
            self.samples.append(perf_counter() - began)
            self.stamps.append(began)
        finally:
            gc.enable()

    def maybe_sample(self) -> None:
        if not self.stamps or perf_counter() - self.stamps[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def factor_at(self, when: float) -> float:
        near = [d for t, d in zip(self.stamps, self.samples) if abs(t - when) <= CALIBRATION_WINDOW_S]
        return CALIBRATION_NOMINAL_S / statistics.median(near or self.samples)


@dataclass
class Op:
    case: object
    seconds: float
    fingerprint: str
    failure: str | None
    start: float


class Runner:
    """Runs single ops: parse untimed, call the entry point timed, check."""

    def __init__(self, package, tracer=None) -> None:
        from check import check
        from strongpfd.io import loads_edgelist

        self.package = package
        self.tracer = tracer
        self.check = check
        self.loads = loads_edgelist

    def run(self, case, op_id: int = 0) -> Op:
        graph = self.loads(case.text)
        entry = getattr(self.package, case.kind)
        result, error = None, None
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = op_id
            tracer.active = True
        start = perf_counter()
        try:
            result = entry(graph)
        except Exception as exc:  # every exception is an outcome to check
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.end_op()
        failure = self.check(case, result, error)
        return Op(case, elapsed, digest(case.kind, result, error), failure, start)


def closed_loop(
    pool, shares: dict[str, float], seconds: float, runner: Runner, calibration: Calibration
) -> list[Op]:
    """One client, one op at a time, over whole passes of each entry point's
    cases.

    The next op goes to the entry point furthest below its share of the
    wall time.  Each entry point makes at least one pass, and makes another
    while that brings its time closer to its share of ``seconds``.  Whole
    passes keep the multiset of inputs behind every median the same from run
    to run, whatever the machine speed.
    """
    kinds = [k for k in shares if pool.cases.get(k)]
    budget = {k: shares[k] * seconds for k in kinds}
    spent = dict.fromkeys(kinds, 0.0)
    done = dict.fromkeys(kinds, 0)
    passes = dict.fromkeys(kinds, 1)
    ops: list[Op] = []
    start = perf_counter()
    while perf_counter() - start < HARD_LIMIT_S:
        live = [k for k in kinds if done[k] < passes[k] * len(pool.cases[k])]
        if not live:
            break
        kind = min(live, key=lambda k: spent[k] / shares[k])
        cases = pool.cases[kind]
        calibration.maybe_sample()
        began = perf_counter()
        ops.append(runner.run(cases[done[kind] % len(cases)]))
        spent[kind] += perf_counter() - began
        done[kind] += 1
        if done[kind] == passes[kind] * len(cases):
            per_pass = spent[kind] / passes[kind]
            if spent[kind] + per_pass / 2 < budget[kind]:
                passes[kind] += 1
    calibration.sample()
    return ops


def fit_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(ops: list[Op], setup_s: float, calibration: Calibration) -> tuple[dict, list[str]]:
    """End-to-end metrics from calibrated op times."""
    metrics = {"setup_s": (setup_s, "s")}
    notes = []
    for kind in ENTRY_POINTS:
        mine = [op for op in ops if op.case.kind == kind]
        times = [op.seconds * calibration.factor_at(op.start) for op in mine]
        ordered = sorted(times)
        rank = max(0, min(len(ordered) - 1 - TAIL_BEYOND, math.ceil(TAIL_MAX * len(ordered)) - 1))
        metrics[f"{kind}.p50_ms"] = (statistics.median(times) * 1e3, "ms")
        metrics[f"{kind}.tail_ms"] = (ordered[rank] * 1e3, "ms")
        raw = sum(op.seconds for op in mine) / sum(times)
        notes.append(
            f"{kind}: {len(times)} samples, tail is p{100 * (rank + 1) / len(ordered):.1f}, "
            f"raw/calibrated time {raw:.3f}"
        )
        if kind == "factor_exact":
            metrics[f"{kind}.graphs_per_s"] = (len(times) / sum(times), "1/s")
            continue
        vertices = sum(op.case.n for op in mine)
        metrics[f"{kind}.vertices_per_s"] = (vertices / sum(times), "1/s")
        sized = [(op.case.n, t) for op, t in zip(mine, times) if op.case.sized]
        metrics[f"{kind}.size_exponent"] = (fit_slope(sized), "1")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mib"] = (rss_kib / 1024, "MiB")
    return metrics, notes


def traced_run(args, package, pool, shares, calibration, problems: list[str]):
    """Untraced ops for half the time, then the same set-up and ops replayed
    with spans; returns all ops and the per-layer metrics."""
    import spans
    import workloads

    untraced = closed_loop(pool, shares, args.seconds / 2, Runner(package), calibration)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        texts = workloads.build(args.workload, args.seed).texts()
        tracer.active = False
        runner = Runner(package, tracer)
        traced = [runner.run(op.case, i) for i, op in enumerate(untraced)]
    finally:
        tracer.active = False
        tracer.uninstall()
    if texts != pool.texts():
        problems.append("traced set-up generated different inputs")
    leftovers = spans.leftover_wrappers()
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    for before, after in zip(untraced, traced):
        if before.fingerprint != after.fingerprint:
            problems.append(f"traced {before.case.kind} on {before.case.label} differs from untraced")
    metrics = tracer.layer_metrics()
    for kind in ENTRY_POINTS:
        plain = sum(op.seconds for op in untraced if op.case.kind == kind)
        spanned = sum(op.seconds for op in traced if op.case.kind == kind)
        metrics[f"trace.overhead_ratio.{kind}"] = spanned / plain
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.bin")
    split = tracer.split([op.case.kind for op in traced])
    (OUT / f"split-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"split": split, "metrics": metrics}, indent=1, sort_keys=True)
    )
    report = {name: (value, spans.unit_of(name)) for name, value in metrics.items()}
    return untraced + traced, report


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    package = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    shares = workloads.SHARES[args.workload]
    problems: list[str] = []

    calibration = Calibration()
    setup_times, texts = [], None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        for _ in range(3):
            calibration.sample()
        began = perf_counter()
        pool = workloads.build(args.workload, args.seed)
        setup_times.append((perf_counter() - began) * calibration.factor_at(began))
        if texts is not None and pool.texts() != texts:
            problems.append("set-up is not deterministic: repeated generation differs")
        texts = pool.texts()
    # The inputs live for the whole run; keep the collector from rescanning
    # them inside the timed ops, which a user's process would not hold.
    gc.collect()
    gc.freeze()

    if args.trace:
        ops, report = traced_run(args, package, pool, shares, calibration, problems)
    else:
        ops = closed_loop(pool, shares, args.seconds, Runner(package), calibration)
        report, notes = end_to_end(ops, statistics.median(setup_times), calibration)
        for note in notes:
            print(note)

    failures = [op.failure for op in ops if op.failure]
    for kind in ENTRY_POINTS:
        mine = [op for op in ops if op.case.kind == kind]
        failed = sum(1 for op in mine if op.failure)
        inputs = len(pool.cases[kind])
        print(f"failed_ratio {kind}: {failed}/{len(mine)} ({len(mine) / inputs:.2f} passes of {inputs} inputs)")
    for line in failures[:20] + problems:
        print(f"FAIL {line}")
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
