"""Graph file formats: edge-list text, JSON, and DOT output with edge colors.

Edge-list format: first line ``n m``, then m lines ``u v`` with 0-based ids.
JSON format: ``{"n": int, "edges": [[u, v], ...]}``, with JSON integers
only.  Both loaders validate simplicity (no loops, no duplicates) and id
ranges.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .graph import Edge, Graph, GraphError, edge_key


def loads_edgelist(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")

    def pairs() -> Iterator[Sequence[int]]:
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise GraphError(f"bad edge line {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(f"non-integer edge line {ln!r}") from exc
            yield u, v

    return Graph(n, _simple_edges(pairs()))


def _simple_edges(pairs: Iterable[Sequence[int]]) -> list[Edge]:
    """The canonical edges of ``pairs``, in input order.  Raises GraphError
    at the first self-loop or repeated edge; ``pairs`` is read lazily, so
    its own errors and these come in the order the input meets them."""
    edges: dict[Edge, None] = {}
    for u, v in pairs:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = edge_key(u, v)
        if key in edges:
            raise GraphError(f"duplicate edge {key}")
        edges[key] = None
    return list(edges)


def dumps_edgelist(graph: Graph) -> str:
    lines = [f"{graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def graph_to_dict(graph: Graph) -> dict:
    return {"n": graph.vertex_count, "edges": [[u, v] for u, v in graph.edges()]}


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer as JSON writes one: no bool, float or
    string."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphError("graph JSON needs 'n' and 'edges' keys")
    n, edges = data["n"], data["edges"]
    if not _is_int(n) or not isinstance(edges, list):
        raise GraphError(
            f"graph JSON needs an integer 'n' and a list 'edges', got n={n!r} "
            f"and edges of type {type(edges).__name__}"
        )

    def pairs() -> Iterator[Sequence[int]]:
        for item in edges:
            if not (isinstance(item, (list, tuple)) and len(item) == 2 and all(map(_is_int, item))):
                raise GraphError(f"bad edge entry {item!r}")
            yield item

    return Graph(n, _simple_edges(pairs()))


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    """Load a graph from ``path``; format inferred from the suffix unless
    given.  Both formats are UTF-8 text; other bytes raise GraphError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path} is not UTF-8 text: {exc}") from exc
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "edgelist"
    if fmt == "json":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphError(f"invalid JSON in {path}: {exc}") from exc
        return graph_from_dict(data)
    if fmt == "edgelist":
        return loads_edgelist(text)
    raise GraphError(f"unknown graph format {fmt!r}")


def save_graph(graph: Graph, path: str | Path) -> None:
    """Save a graph to ``path``: JSON for a ``.json`` suffix, else an edge list."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(graph_to_dict(graph), sort_keys=True) + "\n")
    else:
        path.write_text(dumps_edgelist(graph))


# -- DOT emission -----------------------------------------------------------

_PALETTE = [
    "black", "red", "blue", "forestgreen", "darkorange", "purple",
    "deeppink", "teal", "saddlebrown", "gray40",
]


def write_dot(graph: Graph, edge_colors: dict[Edge, int]) -> str:
    """Render the graph in DOT syntax as ``graph G``, tagging colored edges
    with ``colorclass``."""
    out = ["graph G {"]
    for v in graph.vertices():
        out.append(f"  {v};")
    for u, v in graph.edges():
        color = edge_colors.get(edge_key(u, v))
        if color is None:
            out.append(f"  {u} -- {v};")
        else:
            dot_color = _PALETTE[color % len(_PALETTE)]
            out.append(f'  {u} -- {v} [colorclass="{color}", color="{dot_color}"];')
    out.append("}")
    return "\n".join(out) + "\n"
