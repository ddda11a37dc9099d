"""Hypothesis properties on small seeded products and on arbitrary small
command-line inputs.

Examples are drawn with a fixed derandomized seed, so every run checks the
same inputs.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongpfd import canonical_form, oracle_pfd, pfd_fast, random_product_instance, recognize
from strongpfd.cli import main

CLI_COMMANDS = (
    "recognize", "skeleton", "factor", "factor-exact", "backbone", "check-thin", "quotient"
)


def factor_multiset(factors):
    return sorted(canonical_form(f) for f in factors)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    sizes=st.lists(st.integers(3, 5), min_size=2, max_size=2)
    | st.lists(st.just(3), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    edge_prob=st.sampled_from([0.35, 0.5, 0.65]),
    shuffle=st.randoms(use_true_random=False),
)
def test_relabelling_keeps_verdict_and_factors(sizes, seed, edge_prob, shuffle):
    # random labels put labelled-equal quotients out of reach of the memo,
    # so nearly every neighborhood is factored afresh
    graph = random_product_instance(sizes, seed=seed, edge_prob=edge_prob).graph
    perm = list(range(graph.vertex_count))
    shuffle.shuffle(perm)
    relabelled = graph.relabeled(perm)
    before = recognize(graph)
    after = recognize(relabelled)
    assert after.in_upsilon == before.in_upsilon
    if before.in_upsilon:
        factors = factor_multiset(after.extracted_factors)
        assert factors == factor_multiset(before.extracted_factors)
        assert factor_multiset(pfd_fast(relabelled).factors) == factors


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    sizes=st.sampled_from([(3, 3), (3, 4), (3, 5), (4, 4)]),
    seed=st.integers(0, 2**32 - 1),
    edge_prob=st.sampled_from([0.35, 0.5, 0.65]),
    shuffle=st.randoms(use_true_random=False),
)
def test_fast_path_recognition_and_oracle_agree(sizes, seed, edge_prob, shuffle):
    # every product of at most 16 vertices is in reach of the brute-force
    # oracle, which shares no split search with the pipeline
    graph = random_product_instance(sizes, seed=seed, edge_prob=edge_prob).graph
    perm = list(range(graph.vertex_count))
    shuffle.shuffle(perm)
    graph = graph.relabeled(perm)
    truth = factor_multiset(oracle_pfd(graph).factors)
    report = recognize(graph)
    assert report.in_upsilon
    assert factor_multiset(report.extracted_factors) == truth
    assert factor_multiset(pfd_fast(graph).factors) == truth


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


@settings(derandomize=True, deadline=None, max_examples=150)
@given(graph=small_graphs())
@example(graph=(0, []))
def test_no_cli_input_crashes(graph):
    n, edges = graph
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        out = str(Path(tmp) / "out.json")
        for command in CLI_COMMANDS:
            code = main([command, "--input", str(path), "--output", out])
            assert code in (0, 1, 2), (command, graph)
