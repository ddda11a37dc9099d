from __future__ import annotations

import random
from dataclasses import replace
from functools import partial

import pytest

from strongpfd import (
    ColoringError,
    Graph,
    NeighborhoodCache,
    backbone,
    build_skeleton,
    cartesian_index,
    color_fibers_from,
    cycle_graph,
    is_isomorphic,
    oracle_pfd,
    path_graph,
    pfd_fast,
    random_product_instance,
    recognize,
    strong_product,
)
from strongpfd import coloring as coloring_module
from strongpfd import skeleton as skeleton_module
from strongpfd.coloring import PartialProductColoring, completion_sweep
from strongpfd.graph import edge_key
from strongpfd.oracle import random_thin_graph
from strongpfd.skeleton import fiber_components

from conftest import neighborhood_blind_product, recovery_corpus, wheel_graph
from test_quotient_differential import dense_graphs


def covering_walk(graph, anchor):
    """The backbone vertices that the covering BFS of the anchor's local
    color 0 visits: the centers whose neighborhoods it factored."""
    cache = NeighborhoodCache(graph)
    coloring = PartialProductColoring()
    coloring_module._bfs_one_color(
        anchor, 0, coloring.new_color(), cache, coloring, frozenset(backbone(graph))
    )
    return set(cache.entries)


def test_covering_sequence_on_prime_graphs_covers_backbone():
    rng = random.Random(4)
    found = 0
    trial = 0
    while found < 6 and trial < 60:
        trial += 1
        g = random_thin_graph(rng.randint(3, 9), rng.uniform(0.35, 0.6), seed=11000 + trial)
        if oracle_pfd(g).prime_count != 1:
            continue
        found += 1
        members = backbone(g)
        visited = covering_walk(g, members[0])
        assert visited == set(members)
        covered = set()
        for w in visited:
            covered.update(g.closed_neighborhood(w))
        assert covered == set(g.vertices())
    assert found == 6


def test_covering_sequence_single_vertex_backbones(p3xp3):
    graph, coords = p3xp3
    center = coords.vertex_at((1, 1))
    assert covering_walk(graph, center) == {center}
    assert covering_walk(wheel_graph(5), 5) == {5}


def test_color_fibers_p3_product(p3xp3):
    graph, coords = p3xp3
    center = coords.vertex_at((1, 1))
    coloring = color_fibers_from(NeighborhoodCache(graph), center)
    assert len(coloring.parent) == 2
    # every colored edge is a ground-truth product edge with consistent label
    label_dir = {}
    for (u, v), raw in coloring.colors.items():
        true_dir = cartesian_index(graph, coords, u, v)
        assert true_dir is not None
        assert label_dir.setdefault(raw, true_dir) == true_dir
    # both fibers through the anchor are complete, two edges each
    comp, comps, _ = fiber_components(graph, coloring.colors, 2)
    for raw in (0, 1):
        members = comps[raw][comp[raw][center]]
        assert len(members) == 3
        edges = [
            e for e, c in coloring.colors.items() if c == raw and set(e) <= set(members)
        ]
        assert len(edges) == 2
    # all four parallel copies are colored too
    assert len(coloring.colors) == 12


def test_color_fibers_recovers_both_factors():
    graph, coords = strong_product([path_graph(4), cycle_graph(5)])
    anchor = min(backbone(graph))
    coloring = color_fibers_from(NeighborhoodCache(graph), anchor)
    comp, comps, _ = fiber_components(graph, coloring.colors, len(coloring.parent))
    shapes = []
    for raw in range(len(coloring.parent)):
        sub, _ = graph.induced_subgraph(comps[raw][comp[raw][anchor]])
        shapes.append(sub)
    assert sorted(s.vertex_count for s in shapes) == [4, 5]
    assert any(is_isomorphic(s, path_graph(4)) for s in shapes)
    assert any(is_isomorphic(s, cycle_graph(5)) for s in shapes)


def test_color_fibers_on_prime_cycle_covers_all_edges():
    g = cycle_graph(7)
    anchor = min(backbone(g))
    coloring = color_fibers_from(NeighborhoodCache(g), anchor)
    assert len(coloring.parent) == 1
    assert set(coloring.colors) == set(g.edges())


def test_blind_fiber_stays_uncolored():
    graph, coords = neighborhood_blind_product()
    anchor = min(backbone(graph))
    coloring = color_fibers_from(NeighborhoodCache(graph), anchor)
    fiber = [v for v in range(graph.vertex_count) if coords.coords[v][1] == 0]
    blind_edges = [
        edge_key(u, v) for u in fiber for v in fiber if u < v and graph.adjacent(u, v)
    ]
    for e in blind_edges:
        assert e not in coloring.colors
    # while plenty of other product edges are colored
    assert len(coloring.colors) > 10


def test_mismatched_local_counts_abort(p3xp3):
    # a pendant hung off a product corner promotes the corner into the
    # backbone with a prime neighborhood, while the center still factors
    # into two parts; the anchored run must refuse to continue, and the
    # skeleton stitching aborts through the same check with the same error
    from strongpfd import ColoringError, Graph, backbone as bb, build_skeleton

    base, _ = p3xp3
    graph = Graph(10, list(base.edges()) + [(0, 9)])
    assert bb(graph) == (0, 4)
    with pytest.raises(ColoringError, match="local factors") as anchored:
        color_fibers_from(NeighborhoodCache(graph), 0)
    with pytest.raises(ColoringError) as stitched:
        build_skeleton(NeighborhoodCache(graph))
    assert str(stitched.value) == str(anchored.value)


def test_unlifted_parent_edge_aborts_the_continuation():
    # a neighborhood with the anchor's local factor count that does not lift
    # the edge from its BFS parent leaves the color nowhere to go
    graph, _ = strong_product([path_graph(4), path_graph(3)])
    anchor, v = backbone(graph)
    cache = NeighborhoodCache(graph)
    nf = cache.get(v)
    assert nf.prime_count == cache.get(anchor).prime_count == 2
    edge = edge_key(anchor, v)
    assert edge in nf.lifted
    cache.entries[v] = replace(nf, lifted={e: i for e, i in nf.lifted.items() if e != edge})
    with pytest.raises(ColoringError) as raised:
        color_fibers_from(cache, anchor)
    assert str(raised.value) == (
        f"no color continuation into the neighborhood of {v} through edge {edge}"
    )


def test_extend_is_idempotent_after_run(p3xp3):
    graph, coords = p3xp3
    center = coords.vertex_at((1, 1))
    coloring = color_fibers_from(NeighborhoodCache(graph), center)
    before = dict(coloring.colors)
    assert completion_sweep(graph, coloring) == 0
    assert coloring.colors == before


def test_pfd_fast_ends_at_its_covering_walks(monkeypatch):
    # the covering walks fix the fibers through the anchor, so no sweep runs
    graph, _ = strong_product([path_graph(4), cycle_graph(5)])
    swept = []
    sweep = coloring_module.completion_sweep

    def recorded(*args, **kwargs):
        swept.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(coloring_module, "completion_sweep", recorded)
    monkeypatch.setattr(skeleton_module, "completion_sweep", recorded)
    factors = pfd_fast(graph).factors
    assert [f.vertex_count for f in factors] == [4, 5]
    assert is_isomorphic(factors[0], path_graph(4))
    assert is_isomorphic(factors[1], cycle_graph(5))
    assert swept == []


def test_sweep_of_a_fully_colored_graph_adds_nothing(p3xp3, monkeypatch):
    # with no uncolored edge left, the sweep returns before it reads the graph
    graph, _ = p3xp3
    coloring = PartialProductColoring()
    color = coloring.new_color()
    for edge in graph.edges():
        coloring.assign(edge, color)
    colors = dict(coloring.colors)

    def unread(self, v):
        raise AssertionError(f"adjacency set of {v} read")

    def unread_all(self):
        raise AssertionError("adjacency sets read")

    monkeypatch.setattr(Graph, "adjacency_set", unread)
    monkeypatch.setattr(Graph, "adjacency_sets", property(unread_all))
    assert completion_sweep(graph, coloring) == 0
    assert coloring.colors == colors


PERTURBATIONS = {"edge-added": (14, 22), "edge-removed": (5, 21)}


def perturbed_product(edge) -> Graph:
    """A seeded 5x5 product with ``edge`` toggled: a prime graph whose
    neighborhoods leave a few product edges uncolored."""
    base = random_product_instance([5, 5], seed=985715, edge_prob=0.6).graph
    return Graph(base.vertex_count, sorted(set(base.edges()) ^ {edge}))


def anchor_fibers(graph, coloring, anchor):
    """The fiber of each raw color through the anchor."""
    comp_of, comps_of, _ = fiber_components(graph, coloring.colors, len(coloring.parent))
    return [comps[comp[anchor]] for comp, comps in zip(comp_of, comps_of)]


@pytest.mark.parametrize("edge", PERTURBATIONS.values(), ids=PERTURBATIONS.keys())
def test_sweep_completes_the_skeleton_of_a_perturbed_product(edge, monkeypatch):
    # the sweep colors the edges no neighborhood lifts, in the skeleton
    # assembly, and in the anchored coloring when it is swept explicitly;
    # there it moves no fiber through the anchor
    graph = perturbed_product(edge)
    added = []
    sweep = coloring_module.completion_sweep

    def recorded(*args, **kwargs):
        added.append(sweep(*args, **kwargs))
        return added[-1]

    monkeypatch.setattr(coloring_module, "completion_sweep", recorded)
    monkeypatch.setattr(skeleton_module, "completion_sweep", recorded)
    report = recognize(graph)
    assert report.in_upsilon and len(report.extracted_factors) == 1
    assert set(report.coloring.cartesian_edges) == set(graph.edges())
    assert len(added) == 1 and added[0] > 0
    anchor = backbone(graph)[0]
    anchored = color_fibers_from(NeighborhoodCache(graph), anchor)
    fibers = anchor_fibers(graph, anchored, anchor)
    assert completion_sweep(graph, anchored) > 0
    assert anchor_fibers(graph, anchored, anchor) == fibers
    # the anchor's neighborhood is prime, so pfd_fast returns the input
    # without coloring, let alone sweeping
    assert pfd_fast(graph).factors == (graph,)
    assert len(added) == 1


def test_the_sweep_moves_no_fiber(monkeypatch):
    # why pfd_fast ends at its covering walks: the sweep colors an edge only
    # when a vertex joins both its ends by edges of its color, so every
    # color keeps its fibers, in each anchored and each stitched coloring
    graphs = [(i, g) for i, g in enumerate(recovery_corpus())] + dense_graphs()
    graphs += [(label, perturbed_product(edge)) for label, edge in PERTURBATIONS.items()]
    added = {"anchored": 0, "stitched": 0}

    def checked(kind, graph, coloring, *args, **kwargs):
        colors = len(coloring.parent)
        fibers = fiber_components(graph, coloring.colors, colors)[:2]
        count = completion_sweep(graph, coloring, *args, **kwargs)
        assert fiber_components(graph, coloring.colors, colors)[:2] == fibers, (label, kind)
        added[kind] += count
        return count

    monkeypatch.setattr(skeleton_module, "completion_sweep", partial(checked, "stitched"))
    for label, graph in graphs:
        cache = NeighborhoodCache(graph)
        for anchor in backbone(graph):
            try:
                anchored = color_fibers_from(cache, anchor)
            except ColoringError:
                continue
            checked("anchored", graph, anchored)
        build_skeleton(cache)
    assert added["anchored"] > 0 and added["stitched"] > 0


def test_coloring_is_deterministic():
    graph, _ = strong_product([path_graph(4), cycle_graph(5)])
    anchor = min(backbone(graph))
    a = color_fibers_from(NeighborhoodCache(graph), anchor)
    b = color_fibers_from(NeighborhoodCache(graph), anchor)
    assert a.colors == b.colors
    assert a.parent == b.parent


def test_anchor_choice_gives_same_partition_where_both_color():
    # coverage depends on the anchor, but on the commonly colored edges the
    # class structure must agree up to renaming
    graph, _ = strong_product([path_graph(4), cycle_graph(5)])
    anchors = backbone(graph)
    colorings = [color_fibers_from(NeighborhoodCache(graph), anchor) for anchor in anchors[:3]]
    for other in colorings[1:]:
        common = set(colorings[0].colors) & set(other.colors)
        assert common

        def restricted(coloring):
            classes = {}
            for e in common:
                classes.setdefault(coloring.colors[e], set()).add(e)
            return {frozenset(s) for s in classes.values()}

        assert restricted(colorings[0]) == restricted(other)
