"""Independent brute-force factorization oracle and seeded instance generators.

The oracle deliberately avoids the pruned split search of the main
factorizer: it enumerates every vertex-subset pair through a fixed anchor,
builds the product of the induced candidates outright, and tests graph
isomorphism, also on graphs that are not thin.  It shares only the graph
primitives, the thinness test of ``sclasses``, the isomorphism checker and
the public factor order (``ordered_factorization``) with the pipeline, and
none of its split search or its quotient route, so cross-checks between
the two are meaningful.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import isqrt

from .graph import DisconnectedError, Graph, GraphError
from .factorize import LocalFactorization, ordered_factorization
from .isomorphism import find_isomorphism
from .products import Coordinatization, strong_product
from .sclasses import is_thin

ORACLE_CAP = 16
# the rejection sampler's budget of draws per graph
MAX_TRIES = 20000


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
    """First subset pair (A, B) through the anchor with graph iso to A x B.

    B is tested by the edge law and the degree law on its in-set degrees,
    read off the closed masks, before it is built and checked connected;
    each test is a necessary condition, so their order does not change which
    pair is found first.
    """
    n = graph.vertex_count
    masks = graph.closed_masks
    degs = [graph.degree(v) for v in range(n)]
    degree_sequence = sorted(degs)
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
            spans_a = [sub_a.degree(v) + 1 for v in range(d)]
            pool = [v for v in rest if v not in extra_a]
            for extra_b in itertools.combinations(pool, size_b - 1):
                fb = (anchor,) + extra_b
                fb_mask = sum(1 << v for v in fb)
                # closed in-set degrees: deg_B + 1 per member
                spans_b = [(masks[v] & fb_mask).bit_count() for v in fb]
                # a strong product has ((2ma+na)(2mb+nb) - na*nb)/2 edges
                if (2 * ma + d) * sum(spans_b) - d * size_b != 2 * graph.edge_count:
                    continue
                # a product vertex has degree (deg_A + 1)(deg_B + 1) - 1
                if sorted(x * y - 1 for x in spans_a for y in spans_b) != degree_sequence:
                    continue
                sub_b, _ = graph.induced_subgraph(sorted(fb))
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


def oracle_pfd(graph: Graph) -> LocalFactorization:
    """Ground-truth prime factorization by exhaustive subset-pair search, of
    at most ``ORACLE_CAP`` vertices."""
    n = graph.vertex_count
    if n == 0:
        raise GraphError("cannot factor an empty graph")
    if n > ORACLE_CAP:
        raise GraphError(f"oracle is capped at {ORACLE_CAP} vertices, got {n}")
    if not graph.is_connected():
        raise DisconnectedError("prime factorization requires a connected graph")
    factors, rows = _oracle_pfd(graph)
    return ordered_factorization(factors, rows)


# -- seeded generators ---------------------------------------------------------


def _sample_graph(n: int, edge_prob: float, seed: int, thin: bool) -> Graph:
    """Seeded G(n, p) by rejection sampling until connected (and thin).

    Edges are sampled over ascending vertex pairs from Python's Mersenne
    Twister, so a seed pins the graph exactly.
    """
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(MAX_TRIES):
        graph = Graph(n, [e for e in pairs if rng.random() < edge_prob])
        if graph.is_connected() and (not thin or is_thin(graph)):
            return graph
    raise GenerationError(
        f"no {'thin ' if thin else ''}connected graph found in {MAX_TRIES} tries "
        f"(n={n}, p={edge_prob}, seed={seed})"
    )


def random_connected_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded G(n, p) conditioned on connectivity."""
    if n < 1:
        raise GraphError("need at least one vertex")
    return _sample_graph(n, edge_prob, seed, thin=False)


def random_thin_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded connected thin graph by rejection sampling.

    On two or more vertices, p <= 0 (or NaN) gives no edge and p >= 1 the
    complete graph, whose vertices are all twins, so such a p is refused
    before any sampling.
    """
    if n < 2:
        raise GraphError("thin sampling needs at least two vertices")
    if not 0 < edge_prob < 1:
        raise GraphError(f"thin sampling needs 0 < edge probability < 1, got {edge_prob}")
    return _sample_graph(n, edge_prob, seed, thin=True)


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


@functools.cache
def twisted_instance() -> Graph:
    """A prime graph whose backbone neighborhoods all factor into two parts:
    the Möbius king strip on four columns.

    It is thin, connected and prime, and the quotient of every backbone
    neighborhood has exactly two prime factors; ``tests/test_oracle.py``
    checks each of these with the brute-force oracle.
    """
    return _mobius_king_strip(4)


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
