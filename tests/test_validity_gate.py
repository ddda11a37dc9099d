"""The one validity gate of the pipeline: nonempty, connected and thin.

Every entry point rejects the same inputs with the same exception types,
and the gate's facts are computed once per graph however often it is
consulted.
"""

from __future__ import annotations

from functools import cached_property

import pytest

from strongpfd import (
    DisconnectedError,
    Graph,
    GraphError,
    NeighborhoodCache,
    NotThinError,
    backbone,
    build_skeleton,
    color_fibers_from,
    complete_graph,
    path_graph,
    pfd_fast,
    quotient,
    recognize,
    strong_product,
)
from strongpfd.cli import main
from strongpfd.sclasses import require_thin_connected

ENTRY_POINTS = {
    "recognize": recognize,
    "pfd_fast": pfd_fast,
    "build_skeleton": lambda g: build_skeleton(NeighborhoodCache(g)),
    "color_fibers_from": lambda g: color_fibers_from(NeighborhoodCache(g), 0),
    "backbone": backbone,
}


@pytest.mark.parametrize(
    "graph, error, wording",
    [
        (Graph(0), GraphError, "a nonempty graph"),
        # not thin either: connectivity is checked first
        (Graph(4, [(0, 1), (2, 3)]), DisconnectedError, "a connected graph"),
        (complete_graph(4), NotThinError, "a thin graph; run the quotient first"),
    ],
)
def test_gate_rejects_invalid_input(graph, error, wording):
    with pytest.raises(error, match=f"^backbone requires {wording}$"):
        require_thin_connected(graph, "backbone")


def test_gate_accepts_a_single_vertex():
    require_thin_connected(Graph(1), "backbone")
    assert backbone(Graph(1)) == (0,)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_empty_graph_is_an_input_error(entry):
    with pytest.raises(GraphError, match="requires a nonempty graph"):
        ENTRY_POINTS[entry](Graph(0))


def test_quotient_of_the_empty_graph_stays_valid():
    result = quotient(Graph(0))
    assert result.quotient == Graph(0)
    assert result.class_members == ()


@pytest.mark.parametrize("command", ["recognize", "skeleton", "factor", "backbone"])
def test_cli_empty_input_exits_two(command, tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires a nonempty graph" in captured.err


def count_evaluations(monkeypatch: pytest.MonkeyPatch, graph: Graph) -> dict[str, int]:
    """Count the connectivity BFS and the thinness computation on ``graph``.

    The BFS is every ``distances_from`` call on the graph; thinness is the
    evaluation of the memoized ``Graph.thin``.
    """
    calls = {"bfs": 0, "thin": 0}
    distances_from = Graph.distances_from
    thin = vars(Graph)["thin"]

    def counted_bfs(self, source):
        calls["bfs"] += self is graph
        return distances_from(self, source)

    def counted_thin(self):
        calls["thin"] += self is graph
        return thin.func(self)

    prop = cached_property(counted_thin)
    prop.__set_name__(Graph, "thin")
    monkeypatch.setattr(Graph, "distances_from", counted_bfs)
    monkeypatch.setattr(Graph, "thin", prop)
    return calls


@pytest.mark.parametrize("entry", [recognize, pfd_fast])
def test_one_op_validates_its_input_once(entry, monkeypatch):
    graph, _ = strong_product([path_graph(30), path_graph(3)])
    calls = count_evaluations(monkeypatch, graph)
    entry(graph)
    assert calls == {"bfs": 1, "thin": 1}


@pytest.mark.parametrize("entry", [recognize, pfd_fast])
def test_the_host_masks_are_never_built(entry, monkeypatch):
    # thinness and the backbone come from adjacency sets and the classes
    # from ball positions; factor and quotient graphs may build their masks
    graph, _ = strong_product([path_graph(200), path_graph(3)])
    masks = vars(Graph)["closed_masks"]

    def guarded(self):
        if self is graph:
            raise AssertionError("the host's closed_masks were built")
        return masks.func(self)

    prop = cached_property(guarded)
    prop.__set_name__(Graph, "closed_masks")
    monkeypatch.setattr(Graph, "closed_masks", prop)
    result = entry(graph)
    assert (result.in_upsilon if entry is recognize else result.prime_count == 2)
    assert "closed_masks" not in vars(graph)
