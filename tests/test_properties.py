"""Hypothesis properties on small seeded products.

Examples are drawn with a fixed derandomized seed, so every run checks the
same inputs.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from strongpfd import canonical_form, random_product_instance, recognize


def factor_multiset(report):
    return sorted(canonical_form(f) for f in report.extracted_factors)


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
    before = recognize(graph)
    after = recognize(graph.relabeled(perm))
    assert after.in_upsilon == before.in_upsilon
    if before.in_upsilon:
        assert factor_multiset(after) == factor_multiset(before)
