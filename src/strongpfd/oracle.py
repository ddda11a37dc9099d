"""Independent brute-force factorization oracle and seeded instance generators.

The oracle deliberately avoids the pruned split search of the main
factorizer: it enumerates every vertex-subset pair through a fixed anchor,
builds the product of the induced candidates outright, and tests graph
isomorphism.  It shares only the graph primitives and the isomorphism
checker with the pipeline, so cross-checks between the two are meaningful.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import isqrt

from .graph import DisconnectedError, Graph, GraphError
from .factorize import LocalFactorization, factor_neighborhood
from .isomorphism import canonical_form, find_isomorphism
from .products import Coordinatization, strong_product
from .sclasses import backbone, is_thin

ORACLE_CAP = 16


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its budget."""


@dataclass(frozen=True)
class ProductInstance:
    """A constructed product with its ground truth, reproducible by seed."""

    graph: Graph
    ground_truth_factors: tuple[Graph, ...]
    ground_truth_coords: Coordinatization
    seed: int
    thin: bool


# -- brute-force factorization ------------------------------------------------


def _product_graph(a: Graph, b: Graph) -> Graph:
    """Plain quadratic strong-product construction, kept local to the oracle."""
    na, nb = a.vertex_count, b.vertex_count
    edges = []
    for i in range(na * nb):
        ai, bi = divmod(i, nb)
        for j in range(i + 1, na * nb):
            aj, bj = divmod(j, nb)
            if (ai == aj or a.adjacent(ai, aj)) and (bi == bj or b.adjacent(bi, bj)):
                edges.append((i, j))
    return Graph(na * nb, edges)


def _oracle_split(graph: Graph):
    """First subset pair (A, B) through the anchor with graph iso to A x B."""
    n = graph.vertex_count
    degs = [graph.degree(v) for v in range(n)]
    anchor = max(range(n), key=lambda v: (degs[v], -v))
    rest = [v for v in range(n) if v != anchor]
    for d in range(2, isqrt(n) + 1):
        if n % d:
            continue
        size_b = n // d
        for extra_a in itertools.combinations(rest, d - 1):
            fa = sorted((anchor,) + extra_a)
            sub_a, _ = graph.induced_subgraph(fa)
            if not sub_a.is_connected():
                continue
            ma = sub_a.edge_count
            pool = [v for v in rest if v not in extra_a]
            for extra_b in itertools.combinations(pool, size_b - 1):
                fb = sorted((anchor,) + extra_b)
                fb_set = frozenset(fb)
                mb = sum(len(graph.adjacency_set(v) & fb_set) for v in fb) // 2
                # a strong product has ((2ma+na)(2mb+nb) - na*nb)/2 edges
                if (2 * ma + d) * (2 * mb + size_b) - d * size_b != 2 * graph.edge_count:
                    continue
                sub_b, _ = graph.induced_subgraph(fb)
                if not sub_b.is_connected():
                    continue
                product = _product_graph(sub_a, sub_b)
                witness = find_isomorphism(product, graph)
                if witness is not None:
                    return sub_a, sub_b, witness
    return None


def _oracle_pfd(graph: Graph) -> tuple[list[Graph], list[tuple[int, ...]]]:
    n = graph.vertex_count
    if n == 1:
        return [], [()]
    split = _oracle_split(graph)
    if split is None:
        return [graph], [(v,) for v in range(n)]
    sub_a, sub_b, witness = split
    nb = sub_b.vertex_count
    factors_a, coords_a = _oracle_pfd(sub_a)
    factors_b, coords_b = _oracle_pfd(sub_b)
    coords: list[tuple[int, ...] | None] = [None] * n
    for pid, vertex in witness.items():
        ai, bi = divmod(pid, nb)
        coords[vertex] = coords_a[ai] + coords_b[bi]
    return factors_a + factors_b, coords  # type: ignore[return-value]


def oracle_pfd(graph: Graph, cap: int = ORACLE_CAP) -> LocalFactorization:
    """Ground-truth prime factorization by exhaustive subset-pair search."""
    n = graph.vertex_count
    if n == 0:
        raise GraphError("cannot factor an empty graph")
    if n > cap:
        raise GraphError(f"oracle is capped at {cap} vertices, got {n}")
    if not graph.is_connected():
        raise DisconnectedError("prime factorization requires a connected graph")
    factors, rows = _oracle_pfd(graph)
    order = sorted(
        range(len(factors)),
        key=lambda i: (factors[i].vertex_count, canonical_form(factors[i])),
    )
    factors = [factors[i] for i in order]
    rows = [tuple(row[i] for i in order) for row in rows]
    coords = Coordinatization(tuple(f.vertex_count for f in factors), tuple(rows))
    return LocalFactorization(tuple(factors), coords)


# -- seeded generators ---------------------------------------------------------


def _sample_graph(n: int, edge_prob: float, seed: int, max_tries: int, thin: bool) -> Graph:
    """Seeded G(n, p) by rejection sampling until connected (and thin).

    Edges are sampled over ascending vertex pairs from Python's Mersenne
    Twister, so a seed pins the graph exactly.
    """
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(max_tries):
        graph = Graph(n, [e for e in pairs if rng.random() < edge_prob])
        if graph.is_connected() and (not thin or is_thin(graph)):
            return graph
    raise GenerationError(
        f"no {'thin ' if thin else ''}connected graph found in {max_tries} tries "
        f"(n={n}, p={edge_prob}, seed={seed})"
    )


def random_connected_graph(
    n: int, edge_prob: float, seed: int, max_tries: int = 20000
) -> Graph:
    """Seeded G(n, p) conditioned on connectivity."""
    if n < 1:
        raise GraphError("need at least one vertex")
    return _sample_graph(n, edge_prob, seed, max_tries, thin=False)


def random_thin_graph(
    n: int, edge_prob: float, seed: int, max_tries: int = 20000
) -> Graph:
    """Seeded connected thin graph by rejection sampling."""
    if n < 2:
        raise GraphError("thin sampling needs at least two vertices")
    return _sample_graph(n, edge_prob, seed, max_tries, thin=True)


def random_product_instance(
    factor_sizes: list[int] | tuple[int, ...],
    seed: int,
    edge_prob: float = 0.45,
    thin: bool = True,
) -> ProductInstance:
    """Strong product of seeded random factors with recorded ground truth."""
    if any(s < 2 for s in factor_sizes):
        raise GraphError("factor sizes must be at least 2")
    rng = random.Random(seed)
    factors = []
    for size in factor_sizes:
        sub_seed = rng.randrange(2**32)
        if thin:
            factors.append(random_thin_graph(size, edge_prob, sub_seed))
        else:
            factors.append(random_connected_graph(size, edge_prob, sub_seed))
    graph, coords = strong_product(factors)
    return ProductInstance(
        graph=graph,
        ground_truth_factors=tuple(factors),
        ground_truth_coords=coords,
        seed=seed,
        thin=all(is_thin(f) for f in factors),
    )


# -- twisted fixture -----------------------------------------------------------


def _mobius_king_strip(columns: int) -> Graph:
    """Three path-rows of king-connected columns closed into a ring with one
    row-reversing seam."""
    rows = 3

    def vid(col: int, row: int) -> int:
        return col * rows + row

    edges = []
    for col in range(columns):
        for row in range(rows - 1):
            edges.append((vid(col, row), vid(col, row + 1)))
    for col in range(columns):
        nxt = (col + 1) % columns
        flip = nxt == 0
        for r1 in range(rows):
            for r2 in range(rows):
                r2_glued = (rows - 1 - r2) if flip else r2
                if abs(r1 - r2_glued) <= 1:
                    edges.append((vid(col, r1), vid(nxt, r2)))
    return Graph(columns * rows, edges)


def _king_circulant(n: int, step: int) -> Graph:
    offsets = (1, step - 1, step, step + 1)
    edges = set()
    for v in range(n):
        for o in offsets:
            edges.add(tuple(sorted((v, (v + o) % n))))
    return Graph(n, sorted(edges))


def _twisted_candidates():
    yield _mobius_king_strip(4)
    yield _mobius_king_strip(5)
    yield _king_circulant(16, 4)
    yield _king_circulant(13, 4)


@functools.cache
def twisted_instance() -> Graph:
    """A prime graph whose backbone neighborhoods all factor into two parts.

    Searches a small family of ring-glued path products with a twisted seam
    and freezes the first member that verifies: thin, connected, every
    backbone neighborhood with exactly two local prime factors, and prime
    according to the brute-force oracle.
    """
    for candidate in _twisted_candidates():
        if candidate.vertex_count > ORACLE_CAP:
            continue
        if not candidate.is_connected() or not is_thin(candidate):
            continue
        anchors = backbone(candidate)
        counts = {factor_neighborhood(candidate, v).prime_count for v in anchors}
        if counts != {2}:
            continue
        if oracle_pfd(candidate).prime_count != 1:
            continue
        return candidate
    raise GenerationError("no twisted fixture found in the candidate family")


__all__ = [
    "GenerationError",
    "ProductInstance",
    "ORACLE_CAP",
    "oracle_pfd",
    "random_connected_graph",
    "random_thin_graph",
    "random_product_instance",
    "twisted_instance",
]
