from __future__ import annotations

import random

import pytest

from strongpfd import (
    Graph,
    GraphError,
    NotThinError,
    ProductInstance,
    backbone,
    is_thin,
    path_graph,
    random_product_instance,
    strong_product,
)
from strongpfd.graph import VertexSet
from strongpfd.sclasses import relative_quotient


def house_graph() -> Graph:
    """Five-cycle with one chord under the apex.

    The apex (vertex 0) has no neighbor that sees it in a singleton class,
    which makes fibers through it invisible to 1-neighborhood analysis in
    products; several tests rely on that.
    """
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


def wheel_graph(rim: int = 5) -> Graph:
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


def relative_classes(graph: Graph, host) -> list[VertexSet]:
    """The classes of the vertex set ``host`` relative to itself, as
    ascending vertex ids, read through ``relative_quotient``."""
    members = tuple(sorted(host))
    positions, _, _ = relative_quotient(graph, members)
    return [tuple(members[p] for p in cls) for cls in positions]


def s_class_size(graph: Graph, z: int, x: int) -> int:
    """Size of the class of x relative to the closed neighborhood of z."""
    classes = relative_classes(graph, graph.closed_neighborhood(z))
    return next(len(cls) for cls in classes if x in cls)


def s1_witness(graph: Graph, u: int, v: int) -> int | None:
    """Witness z with u, v in N[z] and a singleton class at u or v, if any.

    Backbone vertices are searched first in ascending order, then the rest,
    so a backbone witness is returned whenever one exists.
    """
    if not graph.adjacent(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    if not is_thin(graph):
        raise NotThinError("the singleton-class condition is defined on thin graphs")
    bset = set(backbone(graph))
    common = set(graph.closed_neighborhood(u)).intersection(graph.closed_neighborhood(v))
    for z in sorted(common & bset) + sorted(common - bset):
        if s_class_size(graph, z, u) == 1 or s_class_size(graph, z, v) == 1:
            return z
    return None


def neighborhood_blind_product():
    """Product of a path and the house graph; the path-direction fiber over
    the apex satisfies no singleton-class condition in any 1-neighborhood."""
    return strong_product([path_graph(3), house_graph()])


def recovery_instances() -> list[ProductInstance]:
    """The 200 seeded two-factor instances of the acceptance suite, with
    their ground truth."""
    rng = random.Random(20260809)
    instances = []
    for i in range(200):
        sizes = [rng.randint(3, 6), rng.randint(3, 6)]
        prob = rng.uniform(0.35, 0.6)
        instances.append(random_product_instance(sizes, seed=100000 + i, edge_prob=prob))
    return instances


def recovery_corpus() -> list[Graph]:
    """The graphs of the 200 seeded two-factor instances of the acceptance
    suite."""
    return [instance.graph for instance in recovery_instances()]


@pytest.fixture(scope="session")
def p3xp3():
    return strong_product([path_graph(3), path_graph(3)])
