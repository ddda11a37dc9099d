"""Command-line front end.

Exit codes: 0 success (for ``recognize``: the graph is locally unrefined),
1 negative pipeline verdict, 2 input or resource errors (malformed file or
option value, empty, disconnected, non-thin where thinness is required, a
quotient above ``--size-cap``, generation parameters that admit no
instance, a search deeper than the recursion limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as gio
from .graph import Graph, GraphError
from .factorize import NeighborhoodCache, factor_exact
from .oracle import GenerationError, random_product_instance
from .recognize import pfd_fast, recognize
from .sclasses import backbone, is_thin, quotient, require_thin_connected
from .skeleton import SkeletonError, build_skeleton


def _sizes(text: str) -> list[int]:
    """An argparse type: a comma-separated list of at least one size, each
    an integer of at least 3, since no connected graph on two vertices is
    thin."""
    try:
        sizes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if not sizes or min(sizes) < 3:
        raise argparse.ArgumentTypeError(f"need one or more sizes of at least 3, got {text!r}")
    return sizes


def _emit_json(data: dict, output: str | None) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args: argparse.Namespace) -> Graph:
    if not args.input:
        raise GraphError("--input is required for this command")
    return gio.load_graph(args.input, fmt=args.format)


def _thin_report(graph: Graph) -> dict:
    if graph.vertex_count == 0:
        raise GraphError("a thinness report needs a nonempty graph")
    try:
        members = list(backbone(graph))
    except GraphError:  # disconnected or not thin: there is no backbone
        members = []
    return {
        "thin": is_thin(graph),
        "s_classes": [list(cls) for cls in quotient(graph).class_members],
        "backbone": members,
    }


def cmd_check_thin(args: argparse.Namespace) -> int:
    graph = _load(args)
    _emit_json(_thin_report(graph), args.output)
    return 0


def cmd_backbone(args: argparse.Namespace) -> int:
    graph = _load(args)
    require_thin_connected(graph, "backbone")
    _emit_json(_thin_report(graph), args.output)
    return 0


def cmd_recognize(args: argparse.Namespace) -> int:
    graph = _load(args)
    report = recognize(graph, size_cap=args.size_cap)
    _emit_json(report.to_dict(), args.output)
    return 0 if report.in_upsilon else 1


def cmd_skeleton(args: argparse.Namespace) -> int:
    graph = _load(args)
    skeleton = build_skeleton(NeighborhoodCache(graph, args.size_cap))
    _emit_json({**skeleton.to_dict(), "diagnostics": skeleton.diagnostics}, args.output)
    if args.dot:
        Path(args.dot).write_text(gio.write_dot(graph, skeleton.edge_color))
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    graph = _load(args)
    anchor = args.anchor if args.anchor is not None else backbone(graph)[0]
    result = pfd_fast(graph, size_cap=args.size_cap, anchor=anchor)
    data = {
        "anchor": anchor,
        "prime_count": result.prime_count,
        "factors": [gio.graph_to_dict(f) for f in result.factors],
    }
    _emit_json(data, args.output)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    instance = random_product_instance(args.factors, seed=args.seed, edge_prob=args.edge_prob)
    data = {
        "graph": gio.graph_to_dict(instance.graph),
        "factors": [gio.graph_to_dict(f) for f in instance.ground_truth_factors],
        "coords": [list(c) for c in instance.ground_truth_coords.coords],
        "seed": instance.seed,
        "thin": instance.thin,
    }
    _emit_json(data, args.output)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    graph = _load(args)
    result = quotient(graph)
    data = {
        "quotient": gio.graph_to_dict(result.quotient),
        "class_members": [list(cls) for cls in result.class_members],
    }
    _emit_json(data, args.output)
    return 0


def cmd_factor_exact(args: argparse.Namespace) -> int:
    graph = _load(args)
    result = factor_exact(graph, size_cap=args.size_cap)
    data = {
        "prime_count": result.prime_count,
        "factors": [gio.graph_to_dict(f) for f in result.factors],
        "coords": [list(c) for c in result.coords.coords] if result.coords else None,
    }
    _emit_json(data, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongpfd",
        description="Local prime factorization of connected graphs under the strong product",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
            p.add_argument("--input", help="graph file (edge list or JSON)")
            p.add_argument(
                "--format", choices=("edgelist", "json"), help="input format override"
            )
        p.add_argument("--output", help="write results here instead of stdout")

    def add_size_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--size-cap",
            type=int,
            default=None,
            help="vertex cap for exact factorization subcalls",
        )

    p = sub.add_parser("recognize", help="decide local unrefinedness and extract factors")
    common(p)
    add_size_cap(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("skeleton", help="colored Cartesian skeleton")
    common(p)
    add_size_cap(p)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("factor", help="prime factors via the single-anchor fast path")
    common(p)
    add_size_cap(p)
    p.add_argument("--anchor", type=int, default=None, help="backbone anchor override")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("factor-exact", help="exhaustive factorization of a small graph")
    common(p)
    add_size_cap(p)
    p.set_defaults(func=cmd_factor_exact)

    p = sub.add_parser("backbone", help="backbone of a thin connected graph")
    common(p)
    p.set_defaults(func=cmd_backbone)

    p = sub.add_parser("check-thin", help="thinness report with global classes")
    common(p)
    p.set_defaults(func=cmd_check_thin)

    p = sub.add_parser("quotient", help="collapse the global classes")
    common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("generate", help="seeded random product instance with ground truth")
    common(p, needs_input=False)
    p.add_argument(
        "--factors",
        type=_sizes,
        required=True,
        help="comma-separated factor sizes, each at least 3, e.g. 3,3",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.45)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    size_cap = getattr(args, "size_cap", None)
    if size_cap is not None and size_cap < 4:
        print("error: --size-cap must be at least 4", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SkeletonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, GenerationError, OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
