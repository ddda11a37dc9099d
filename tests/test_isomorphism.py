from __future__ import annotations

import random

from strongpfd import (
    Graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    find_isomorphism,
    is_isomorphic,
    path_graph,
    strong_product,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_relabeled_graph_is_isomorphic():
    rng = random.Random(0)
    for trial in range(20):
        n = rng.randint(2, 10)
        g = random_graph(n, 0.5, seed=trial)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        assert is_isomorphic(g, h)
        assert canonical_form(g) == canonical_form(h)


def test_c6_vs_p6_not_isomorphic():
    assert not is_isomorphic(cycle_graph(6), path_graph(6))
    assert canonical_form(cycle_graph(6)) != canonical_form(path_graph(6))


def test_product_commutativity_isomorphism():
    a, _ = strong_product([complete_graph(2), path_graph(3)])
    b, _ = strong_product([path_graph(3), complete_graph(2)])
    assert is_isomorphic(a, b)


def test_same_degree_sequence_non_isomorphic_pair():
    # two 6-vertex graphs with degree sequence [1,1,2,2,3,3]
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
    h = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
    assert sorted(g.degree(v) for v in g.vertices()) == sorted(
        h.degree(v) for v in h.vertices()
    )
    assert is_isomorphic(g, h) == (canonical_form(g) == canonical_form(h))


def test_witness_is_a_real_isomorphism():
    g = cycle_graph(7)
    perm = [3, 5, 0, 1, 6, 2, 4]
    h = g.relabeled(perm)
    witness = find_isomorphism(g, h)
    assert witness is not None
    for u in g.vertices():
        for v in g.vertices():
            if u != v:
                assert g.adjacent(u, v) == h.adjacent(witness[u], witness[v])


def test_canonical_form_separates_small_catalogue():
    graphs = [
        path_graph(4),
        cycle_graph(4),
        complete_graph(4),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]),
        Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]),
    ]
    forms = [canonical_form(g) for g in graphs]
    for i, g in enumerate(graphs):
        for j, h in enumerate(graphs):
            assert (forms[i] == forms[j]) == is_isomorphic(g, h)


def test_agreement_between_both_routes_on_random_pairs():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.uniform(0.2, 0.8), seed=2000 + trial)
        h = random_graph(n, rng.uniform(0.2, 0.8), seed=3000 + trial)
        assert is_isomorphic(g, h) == (canonical_form(g) == canonical_form(h))


def test_a_long_path_is_matched_without_recursion():
    g = path_graph(1500)
    perm = list(range(1500))
    random.Random(7).shuffle(perm)
    assert is_isomorphic(g, g.relabeled(perm))


def recursive_witness(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """``find_isomorphism`` as it was when its search recursed once per
    vertex, frozen to pin the mapping the explicit-stack search returns."""
    n = g1.vertex_count
    profiles = [
        [(g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v)))) for v in g.vertices()]
        for g in (g1, g2)
    ]
    p1, p2 = profiles
    if n != g2.vertex_count or g1.edge_count != g2.edge_count or sorted(p1) != sorted(p2):
        return None
    cands = [[u for u in range(n) if p2[u] == p1[v]] for v in range(n)]
    remaining = set(range(n))
    order: list[int] = []
    while remaining:
        attached = [v for v in remaining if any(u in order for u in g1.neighbors(v))]
        pool = attached if order and attached else list(remaining)
        v = min(pool, key=lambda x: (len(cands[x]), x))
        order.append(v)
        remaining.discard(v)
    mapping: dict[int, int] = {}
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for u in cands[v]:
            if used[u]:
                continue
            if all(g1.adjacent(v, w) == g2.adjacent(u, t) for w, t in mapping.items()):
                mapping[v] = u
                used[u] = True
                if extend(idx + 1):
                    return True
                del mapping[v]
                used[u] = False
        return False

    return dict(mapping) if extend(0) else None


def circulant(n: int, steps: list[int]) -> Graph:
    return Graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def test_the_explicit_stack_returns_the_recursive_mapping():
    # circulants of equal degree pass the profile filter, so the search
    # itself must tell them apart and backtrack
    rng = random.Random(11)
    found = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(6, 13)
        k = rng.randint(1, 3)
        g = circulant(n, rng.sample(range(1, n // 2 + 1), k))
        h = circulant(n, rng.sample(range(1, n // 2 + 1), k))
        perm = list(range(n))
        rng.shuffle(perm)
        h = h.relabeled(perm)
        expected = recursive_witness(g, h)
        witness = find_isomorphism(g, h)
        assert witness == expected
        if witness is not None:
            assert list(witness.items()) == list(expected.items())
        if g.edge_count == h.edge_count:
            found[witness is not None] += 1
    assert found[True] > 50 and found[False] > 50
