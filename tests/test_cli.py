from __future__ import annotations

import json
from functools import cached_property

import pytest

from strongpfd import Graph, complete_graph, path_graph, strong_product, twisted_instance
from strongpfd.cli import main
from strongpfd.io import graph_to_dict, load_graph, save_graph, write_dot

from conftest import house_graph


def write_product(tmp_path, name="prod.json"):
    graph, _ = strong_product([path_graph(3), path_graph(3)])
    path = tmp_path / name
    save_graph(graph, path)
    return path


def test_recognize_product_exits_zero(tmp_path, capsys):
    path = write_product(tmp_path)
    code = main(["recognize", "--input", str(path)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["in_upsilon"] is True
    assert data["n_factors"] == 2


def test_recognize_twisted_exits_one(tmp_path, capsys):
    path = tmp_path / "twisted.json"
    save_graph(twisted_instance(), path)
    code = main(["recognize", "--input", str(path)])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["in_upsilon"] is False


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 0\n")
    assert main(["recognize", "--input", str(path)]) == 2
    capsys.readouterr()


def test_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"\xff\xfe")
    assert main(["recognize", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "g.txt is not UTF-8" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, graph_json",
    [
        (["check-thin"], '{"n": "x", "edges": []}'),
        (["check-thin"], '{"n": 3, "edges": 5}'),
        (["check-thin"], '{"n": 3, "edges": [[0, null]]}'),
        (["check-thin"], '{"n": 3.7, "edges": [[0, 1.9]]}'),
        (["check-thin"], "[" * 100000),
        (["generate", "--factors", "3,x", "--seed", "1"], None),
        (["generate", "--factors", ",", "--seed", "1"], None),
    ],
    ids=[
        "n-string",
        "edges-number",
        "id-null",
        "n-float",
        "json-too-deep",
        "factors-token",
        "factors-empty",
    ],
)
def test_bad_input_or_option_exits_two_with_one_error_line(tmp_path, capsys, argv, graph_json):
    if graph_json is not None:
        path = tmp_path / "bad.json"
        path.write_text(graph_json)
        argv = argv + ["--input", str(path)]
    try:
        code = main(argv)
    except SystemExit as exit_info:  # argparse refuses an option value
        code = exit_info.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["generate", "--factors", "2", "--seed", "1"], "--factors"),
    ],
)
def test_sizes_below_three_are_refused_naming_the_option(capsys, argv, option):
    # no connected graph on two vertices is thin, so no size-2 factor is generated
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: need one or more sizes of at least 3" in err


def test_non_thin_input_exits_two(tmp_path, capsys):
    path = tmp_path / "k4.json"
    save_graph(complete_graph(4), path)
    assert main(["recognize", "--input", str(path)]) == 2
    assert main(["backbone", "--input", str(path)]) == 2
    capsys.readouterr()


def test_disconnected_input_exits_two(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    assert main(["recognize", "--input", str(path)]) == 2
    capsys.readouterr()


def test_check_thin_refuses_an_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    assert main(["check-thin", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_backbone_and_check_thin_schema(tmp_path, capsys):
    path = write_product(tmp_path)
    assert main(["check-thin", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["thin"] is True
    assert data["backbone"] == [4]
    assert sorted(len(c) for c in data["s_classes"]) == [1] * 9

    assert main(["backbone", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["backbone"] == [4]


def test_skeleton_json_and_dot(tmp_path, capsys):
    path = write_product(tmp_path)
    dot_path = tmp_path / "skel.dot"
    code = main(["skeleton", "--input", str(path), "--dot", str(dot_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_colors"] == 2
    assert len(data["cartesian_edges"]) == 12
    colors = {(u, v): c for u, v, c in data["cartesian_edges"]}
    assert dot_path.read_text() == write_dot(load_graph(path), colors)


def test_factor_fast_path(tmp_path, capsys):
    path = write_product(tmp_path)
    assert main(["factor", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["prime_count"] == 2
    assert all(f["n"] == 3 for f in data["factors"])
    assert main(["factor", "--input", str(path), "--anchor", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["anchor"] == 4
    assert data["prime_count"] == 2


def test_factor_bad_anchor(tmp_path, capsys):
    path = write_product(tmp_path)
    assert main(["factor", "--input", str(path), "--anchor", "0"]) == 2
    capsys.readouterr()


def test_size_cap_floor(tmp_path, capsys):
    path = write_product(tmp_path)
    assert main(["recognize", "--input", str(path), "--size-cap", "2"]) == 2
    capsys.readouterr()


def test_size_cap_only_on_the_commands_that_read_it(tmp_path, capsys):
    path = str(write_product(tmp_path))
    for command in ("recognize", "skeleton", "factor", "factor-exact"):
        assert main([command, "--input", path, "--size-cap", "24"]) == 0, command
        assert main([command, "--input", path, "--size-cap", "3"]) == 2, command
    ignoring = [
        ["backbone", "--input", path],
        ["check-thin", "--input", path],
        ["quotient", "--input", path],
        ["generate", "--factors", "3,3", "--seed", "1"],
    ]
    for argv in ignoring:
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--size-cap", "5"])
        assert exit_info.value.code == 2, argv[0]
        assert "unrecognized arguments: --size-cap" in capsys.readouterr().err
        assert main(argv) == 0, argv[0]
    capsys.readouterr()


def test_n2_cap_overflow_exits_two_like_a_neighborhood_overflow(tmp_path, capsys):
    graph, _ = strong_product([path_graph(4), house_graph()])
    path = str(tmp_path / "p4xhouse.json")
    save_graph(graph, path)
    assert main(["skeleton", "--input", path, "--size-cap", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2-neighborhood of 0 has 15 vertices, size cap is 12" in captured.err
    assert main(["skeleton", "--input", path, "--size-cap", "8"]) == 2
    assert "1-neighborhood" in capsys.readouterr().err


def test_generate_then_recognize_pipeline(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["generate", "--factors", "3,3", "--seed", "7", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == 7
    assert data["thin"] is True
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps(data["graph"]))
    assert main(["recognize", "--input", str(graph_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_factors"] == 2


def test_generate_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", "--factors", "4,4", "--seed", "11", "--output", str(a)])
    main(["generate", "--factors", "4,4", "--seed", "11", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_output_determinism(tmp_path):
    path = write_product(tmp_path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["recognize", "--input", str(path), "--output", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        main(["skeleton", "--input", str(path), "--output", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_quotient_command(tmp_path, capsys):
    path = tmp_path / "k4.json"
    save_graph(complete_graph(4), path)
    assert main(["quotient", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["quotient"]["n"] == 1


def test_generate_without_instance_exits_two(capsys):
    # with edge probability 0 no factor has an edge, so the generator
    # refuses the probability before it samples
    assert main(["generate", "--factors", "3,3", "--seed", "1", "--edge-prob", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_factor_exact_factors_a_long_strip(tmp_path, capsys):
    # P_600 x P_3 places far more pairs than the recursion limit has frames,
    # so the extension search keeps its own stack
    graph, _ = strong_product([path_graph(600), path_graph(3)])
    path = tmp_path / "strip.json"
    save_graph(graph, path)
    assert main(["factor-exact", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["prime_count"] == 2
    assert data["factors"] == [graph_to_dict(path_graph(3)), graph_to_dict(path_graph(600))]


def test_factor_computes_the_backbone_once(tmp_path, capsys, monkeypatch):
    # the default anchor and pfd_fast's backbone come from one pass
    passes = []
    compute = Graph.maximal_vertices.func

    def counted(graph):
        passes.append(graph.vertex_count)
        return compute(graph)

    recorded = cached_property(counted)
    recorded.__set_name__(Graph, "maximal_vertices")
    monkeypatch.setattr(Graph, "maximal_vertices", recorded)
    graph, _ = strong_product([path_graph(40), path_graph(3)])
    path = tmp_path / "strip.json"
    save_graph(graph, path)
    assert main(["factor", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["anchor"], data["prime_count"]) == (4, 2)
    assert passes == [120]
