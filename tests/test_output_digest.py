"""Byte-identity of the public results, pinned as digests.

Each group below runs its inputs through the entry points and hashes the
outcomes in the format of ``tests/digest_outputs.py``: ``recognize``'s
report as sorted JSON, the factors and coordinate rows of ``pfd_fast`` or
``factor_exact``, or the type and message of the exception raised.  A
refactor that is meant to keep every output as it is must leave every
digest as it is; a change that is meant to alter an output re-pins the
digests it moves and says why.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from strongpfd import Graph, random_connected_graph, random_thin_graph, twisted_instance
from strongpfd.cli import main
from strongpfd.io import save_graph

from conftest import neighborhood_blind_product, recovery_corpus
from digest_outputs import call, outcome


def criterion_11_inputs(count: int = 200):
    """The first ``count`` inputs of acceptance criterion 11: connected
    graphs on 2 to 10 vertices, not all of them thin."""
    rng = random.Random(11)
    graphs = []
    for i in range(count):
        n = rng.randint(2, 10)
        graphs.append(random_connected_graph(n, rng.uniform(0.25, 0.85), seed=700000 + i))
    return graphs


PRIME_ORDERS = (13, 17, 19, 23, 29, 31, 37, 41)


def dense_prime_inputs(count: int = 20):
    """``count`` seeded thin graphs of prime order 13 to 41 and edge
    probability 0.35 to 0.65, prime because their order is."""
    rng = random.Random(41)
    return [
        random_thin_graph(
            PRIME_ORDERS[i % len(PRIME_ORDERS)], rng.uniform(0.35, 0.65), seed=900000 + i
        )
        for i in range(count)
    ]


def blake(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def digest(kind: str, graphs) -> str:
    return blake("\n".join(outcome(kind, call(kind, graph)) for graph in graphs))


GROUPS = {
    "recovery": recovery_corpus,
    "criterion_11": criterion_11_inputs,
    "fixtures": lambda: [twisted_instance(), neighborhood_blind_product()],
    "dense_prime": dense_prime_inputs,
}

PINNED = {
    ("recovery", "recognize"): "3d6f3abf02fc2fb0944ee1975befdc13",
    ("recovery", "pfd_fast"): "e1f26b9144c5f533fd2ad8bb69ed11f5",
    ("recovery", "factor_exact"): "3348900947cf194941a584b5e777f6b9",
    ("criterion_11", "factor_exact"): "f94a40e86c548d8f6fc430cbef6fd9fb",
    ("fixtures", "recognize"): "bdb01b3074f1ca8bbb5a8eb5a2da9862",
    ("fixtures", "pfd_fast"): "09a5da4bf5add1c9625c0579ac26016f",
    ("dense_prime", "pfd_fast"): "b949ad6915cb8cb3adccc54ef49a9751",
}


@pytest.mark.parametrize("group,kind", sorted(PINNED), ids="-".join)
def test_outputs_match_the_pinned_digests(group, kind):
    assert digest(kind, GROUPS[group]()) == PINNED[group, kind]


#: the digest of ``strongpfd check-thin``'s stdout over the criterion-11
#: inputs, non-thin ones included, then a thin and a non-thin disconnected graph
CHECK_THIN_PINNED = "e7804030d19f4cd844fbb8252e6a7ec4"


def test_check_thin_output_matches_its_pinned_digest(tmp_path, capsys):
    graphs = criterion_11_inputs() + [
        Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        Graph(4, [(0, 1), (2, 3)]),
    ]
    path = tmp_path / "graph.txt"
    outputs = []
    for graph in graphs:
        save_graph(graph, path)
        assert main(["check-thin", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert blake("".join(outputs)) == CHECK_THIN_PINNED
