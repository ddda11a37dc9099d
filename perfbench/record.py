"""Append one point to perfbench/trajectory.json: the traced layer split of
the code in this checkout, on every workload.

Run from the root of a checkout:

    python3 perfbench/record.py --label seed-1442bb4 --seed 1 --seconds 30

Each workload gets one traced run (``run.py --trace 1``).  The point keeps,
per workload and entry point, every layer's share of op time (self time,
and inclusive time), the per-layer metrics, and the split the benchmark's
design predicts, with whether each prediction held.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
TRAJECTORY = HERE / "trajectory.json"
WORKLOADS = ("king_strips", "dense_prime", "small_products")


def shares(entry: dict, key: str) -> dict[str, float]:
    op_s = entry["op_s"]
    ranked = sorted(entry[key].items(), key=lambda kv: -kv[1])
    return {name: round(value / op_s, 4) for name, value in ranked}


def _share(entry: dict, key: str, prefixes: tuple[str, ...]) -> float:
    part = sum(v for name, v in entry[key].items() if name.startswith(prefixes))
    return part / entry["op_s"]


def _repeat_ratio(entry: dict) -> float:
    return entry["exact_repeats"] / entry["exact_calls"] if entry["exact_calls"] else 0.0


def predictions(runs: dict) -> list[dict]:
    """The split predicted before the seed code was traced."""
    ks_fast = runs["king_strips"]["split"]["pfd_fast"]
    ks_rec = runs["king_strips"]["split"]["recognize"]
    dense_rec = runs["dense_prime"]["split"]["recognize"]
    local = ("factorize.", "isomorphism.")
    coloring = ("coloring.color_fibers_from", "recognize.product_coordinates")
    n2_calls = {w: runs[w]["metrics"]["skeleton.n2_sweep.calls"] for w in WORKLOADS}
    top = max(dense_rec["self_s"], key=dense_rec["self_s"].get)
    claims = [
        ("king_strips pfd_fast: factorize + isomorphism self time >= 0.8 of op time",
         _share(ks_fast, "self_s", local), _share(ks_fast, "self_s", local) >= 0.8),
        ("king_strips pfd_fast: factor_neighborhood inclusive time >= 0.8 of op time",
         _share(ks_fast, "inclusive_s", ("factorize.factor_neighborhood",)),
         _share(ks_fast, "inclusive_s", ("factorize.factor_neighborhood",)) >= 0.8),
        ("king_strips pfd_fast: factor_exact repeat_ratio >= 0.9",
         _repeat_ratio(ks_fast), _repeat_ratio(ks_fast) >= 0.9),
        ("king_strips recognize: color_fibers_from + product_coordinates inclusive time > 0.5",
         _share(ks_rec, "inclusive_s", coloring), _share(ks_rec, "inclusive_s", coloring) > 0.5),
        ("king_strips recognize: color_fibers_from + product_coordinates self time > 0.5",
         _share(ks_rec, "self_s", coloring), _share(ks_rec, "self_s", coloring) > 0.5),
        ("dense_prime: factor_exact repeat_ratio == 0",
         runs["dense_prime"]["metrics"]["factorize.factor_exact.repeat_ratio"],
         runs["dense_prime"]["metrics"]["factorize.factor_exact.repeat_ratio"] == 0),
        ("dense_prime recognize: completion_sweep has the largest self time",
         top, top == "coloring.completion_sweep"),
        ("n2_sweep.calls > 0 only on small_products",
         n2_calls, n2_calls["small_products"] > 0 and not n2_calls["king_strips"]
         and not n2_calls["dense_prime"]),
    ]
    return [{"claim": c, "measured": v, "holds": bool(h)} for c, v, h in claims]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    runs = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        result = json.loads(subprocess.run(command, check=True, capture_output=True,
                                           text=True).stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"traced run of {workload} was not correct")
        runs[workload] = json.loads((OUT / f"split-{workload}-seed{args.seed}.json").read_text())
    point = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {
            w: {
                "metrics": runs[w]["metrics"],
                "split": {
                    kind: {
                        "ops": entry["ops"],
                        "op_s": entry["op_s"],
                        "self_share": shares(entry, "self_s"),
                        "inclusive_share": shares(entry, "inclusive_s"),
                    }
                    for kind, entry in sorted(runs[w]["split"].items())
                },
            }
            for w in WORKLOADS
        },
        "predictions": predictions(runs),
    }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    for p in point["predictions"]:
        print(("holds   " if p["holds"] else "FAILS   ") + p["claim"] + f": {p['measured']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
