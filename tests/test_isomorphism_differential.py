"""``isomorphism.find_isomorphism`` against its frozen form.

``legacy_isomorphism`` scans every candidate of a vertex's profile in
ascending id order; the package takes the candidates of a vertex with a
placed neighbor from the neighbors of that neighbor's image when that list
is the shorter one.  On seeded
isomorphic and non-isomorphic pairs, connected or not, both must return the
same mapping, in the same insertion order, or both None.
"""

from __future__ import annotations

import random

from strongpfd import Graph, find_isomorphism, path_graph, random_product_instance
from strongpfd.isomorphism import _profiles

from legacy_isomorphism import legacy_find_isomorphism


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def relabeled(rng: random.Random, graph: Graph) -> Graph:
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return graph.relabeled(perm)


def circulant(n: int, steps: list[int]) -> Graph:
    return Graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def swapped(rng: random.Random, graph: Graph) -> Graph:
    """``graph`` after one degree-preserving swap of two edges (a, b), (c, d)
    for (a, d), (c, b), or ``graph`` itself when no swap was found."""
    edges = list(graph.edges())
    for _ in range(50):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not graph.adjacent(a, d) and not graph.adjacent(c, b):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return Graph(graph.vertex_count, kept + [(a, d), (c, b)])
    return graph


def pairs() -> list[tuple[str, Graph, Graph]]:
    """Seeded pairs: random graphs (some disconnected) and relabelled copies,
    relabelled products, and circulants against relabelled circulants of
    the same degree or one swap away, which pass the profile filter and
    make the search backtrack."""
    rng = random.Random(3001)
    cases = []
    for i in range(150):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        other = g if i % 3 else random_graph(rng, n, rng.uniform(0.1, 0.9))
        h = relabeled(rng, other)
        cases.append((f"random#{i}", g, h))
    for i in range(30):
        sizes = [rng.randint(3, 4) for _ in range(2)]
        seed, prob = rng.randrange(2**32), rng.uniform(0.3, 0.7)
        graph = random_product_instance(sizes, seed, prob, True).graph
        cases.append((f"product{sizes}#{i}", graph, relabeled(rng, graph)))
    for i in range(150):
        n = rng.randint(6, 16)
        k = rng.randint(1, 3)
        g = circulant(n, rng.sample(range(1, n // 2 + 1), k))
        h = circulant(n, rng.sample(range(1, n // 2 + 1), k))
        if i % 2:
            h = swapped(rng, h)
        cases.append((f"circulant#{i}", g, relabeled(rng, h)))
    return cases


def test_the_search_returns_the_frozen_mapping():
    found = {True: 0, False: 0}
    searched_none = 0
    for label, g, h in pairs():
        expected = legacy_find_isomorphism(g, h)
        witness = find_isomorphism(g, h)
        assert witness == expected, label
        if witness is not None:
            assert list(witness.items()) == list(expected.items()), label
        found[witness is not None] += 1
        filtered = g.edge_count == h.edge_count and sorted(_profiles(g)) == sorted(_profiles(h))
        searched_none += witness is None and filtered
    # 182, 148 and 69 when written
    assert found[True] > 150 and found[False] > 120
    # non-isomorphic pairs that the profile filter lets through to the search
    assert searched_none > 50


class CountingRows(tuple):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


class CountedGraph(Graph):
    """A graph whose ``adjacency_sets`` counts its row reads: the search
    reads the row of every unused candidate it tests."""

    def __init__(self, graph: Graph):
        super().__init__(graph.vertex_count, graph.edges())
        self.rows = CountingRows(super().adjacency_sets)

    @property
    def adjacency_sets(self) -> CountingRows:
        return self.rows


def test_a_relabelled_long_path_is_matched_in_near_linear_steps():
    # the frozen search tests about n²/4 candidates here, one row read
    # each; the neighbor-drawn candidates make about n
    g = path_graph(1000)
    frozen = CountedGraph(relabeled(random.Random(5), g))
    assert legacy_find_isomorphism(g, frozen) is not None
    assert frozen.rows.reads > 100_000, frozen.rows.reads
    n = 5000
    g = path_graph(n)
    h = CountedGraph(relabeled(random.Random(5), g))
    witness = find_isomorphism(g, h)
    assert witness is not None
    assert all(h.adjacent(witness[u], witness[u + 1]) for u in range(n - 1))
    assert h.rows.reads <= 2 * n, h.rows.reads
