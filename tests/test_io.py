from __future__ import annotations

import json
import re

import pytest

from strongpfd import Graph, GraphError, cycle_graph
from strongpfd.io import (
    dumps_edgelist,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    loads_edgelist,
    save_graph,
    write_dot,
)


def test_edgelist_roundtrip(tmp_path):
    g = cycle_graph(5)
    path = tmp_path / "c5.txt"
    save_graph(g, path)
    assert load_graph(path) == g


def test_json_roundtrip(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g
    assert graph_from_dict(graph_to_dict(g)) == g


def test_edgelist_text_shape():
    text = dumps_edgelist(Graph(3, [(0, 1), (1, 2)]))
    assert text.splitlines()[0] == "3 2"
    assert loads_edgelist(text) == Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n",
        "3 2\n0 1\n",
        "3 1\n0 0\n",
        "3 2\n0 1\n0 1\n",
        "3 1\n0 7\n",
        "3 1\nzero one\n",
    ],
)
def test_edgelist_validation(text):
    with pytest.raises(GraphError):
        loads_edgelist(text)


@pytest.mark.parametrize(
    "load, data, message",
    [
        (loads_edgelist, "3 2\n0 0\nx y\n", "self-loop at vertex 0"),
        (loads_edgelist, "3 3\n1 0\n0 1\n0 x\n", "duplicate edge (0, 1)"),
        (loads_edgelist, "3 2\n0 x\n1 1\n", "non-integer edge line '0 x'"),
        (graph_from_dict, {"n": 3, "edges": [[1, 1], [0, "x"]]}, "self-loop at vertex 1"),
        (graph_from_dict, {"n": 3, "edges": [[1, 0], [0, 1], [5]]}, "duplicate edge (0, 1)"),
        (graph_from_dict, {"n": 3, "edges": [[5], [1, 1]]}, "bad edge entry [5]"),
    ],
)
def test_both_loaders_name_the_first_bad_edge(load, data, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        load(data)


# JSON that must be refused: ids and counts are JSON integers only, and
# 'edges' is a list of pairs
MALFORMED_JSON = [
    '{"edges": [[0, 1]]}',
    "{not json",
    '{"n": "x", "edges": []}',
    '{"n": 3, "edges": 5}',
    '{"n": 3, "edges": [[0, null]]}',
    '{"n": 3.7, "edges": [[0, 1.9]]}',
    '{"n": 3, "edges": [[0, 1.0]]}',
    '{"n": true, "edges": []}',
    '{"n": 3, "edges": [[0, "1"]]}',
    "[" * 100000,  # nested deeper than the recursion limit
]


def test_json_validation(tmp_path):
    path = tmp_path / "bad.json"
    for text in MALFORMED_JSON:
        path.write_text(text)
        with pytest.raises(GraphError):
            load_graph(path)


@pytest.mark.parametrize("name", ["g.txt", "g.json"])
def test_bytes_that_are_not_utf8_are_refused_naming_the_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(GraphError, match=f"{name} is not UTF-8"):
        load_graph(path)


def test_dot_uncolored_edges_omitted_from_classes():
    g = Graph(3, [(0, 1), (1, 2)])
    assert write_dot(g, {(0, 1): 3}) == (
        "graph G {\n  0;\n  1;\n  2;\n"
        '  0 -- 1 [colorclass="3", color="forestgreen"];\n'
        "  1 -- 2;\n}\n"
    )
