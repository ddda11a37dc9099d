"""Exact prime factorization of small graphs under the strong product,
plus the neighborhood factorizer that feeds the coloring pipeline.

A graph of prime order is prime.  A thin graph is split by a search that
fixes candidate fiber pairs through an anchor vertex and tries to extend
them to a full product bijection by constraint propagation with
backtracking; a verified extension is a factorization by construction.
The factorizer works on closed masks, not graphs: the fibers, the placed
image and each pair's placed neighbors of the extension are bitmasks, a
split recurses on each fiber's masks renumbered by rank, the factors are
closed masks, and the one product check reads the edges and
closed-neighborhood sizes off the masks.  Factors of a thin graph are
thin, so the search only ever sees thin graphs.  Candidate generation has
two routes:

1. graphs that own a universal vertex (every closed neighborhood and every
   quotient of one is of this kind): candidate fibers are read off the
   neighborhood-containment order, giving a quadratic candidate set; its
   down-sets come as masks from ``_down_sets``, the one reader of that
   order, which the memo's prime verdict reads too;
2. the others: the anchor's neighborhood is factored and its local factor
   boxes are grown into fiber candidates along the backbone.  This route
   takes masks too, and builds the one graph its ball cache and backbone
   read.

A graph that is not thin is factored through its thin quotient G/S.  In
A ⊠ B, N[(a, b)] = N[a] × N[b], so the classes of a product are products
of classes, G/S = A/S ⊠ B/S and class sizes multiply.  The quotient's
prime factors are grouped as finely as the class sizes allow, each group's
product is blown up by its share of the sizes, and what is left of the
sizes is one complete prime factor per prime.  This route builds no graph:
the classes and the quotient's masks come from ``sclasses.classes_of``,
the one class routine, and each blow-up is written as masks.  All routes
are exact; the size cap only bounds running time.

``NeighborhoodCache`` owns neighborhood factoring for one graph: its
``factor_ball`` is the one path from a ball around a vertex to a factored
quotient.  The classes of the ball and the key of its quotient come from
``sclasses.relative_quotient`` in the ball's own positions, the size cap is
checked on the quotient, and the quotient is factored on its masks only
when the memo has no entry under that key and the masks do not decide it
prime; no subgraph of the host is built, and a graph of the quotient only
where route 2 runs.  The
1-neighborhoods of the coloring stages, the 2-neighborhoods of the N2
sweep and the split search of route 2 all take this path.  The memo
serves one public call: ``recognize``, ``pfd_fast`` and ``factor_exact``
each open a root cache, and the factorization below passes it down, so
route 2, inside a memo miss, on the factors of a split or under a
quotient, opens its cache on its own graph through the enclosing cache's
``on`` and shares the memo.  Within one call each labelled quotient is
factored once.

The memo keeps, per quotient, each quotient vertex's coordinate row and
the quotient's closed masks, its key.  The prime count is the length of a
row, and the Cartesian edges, the quotient edges whose ends' rows differ in
exactly one coordinate, are walked off the masks when the entry is first
lifted (``FactoredQuotient.cartesian``), so no entry keeps an edge list
until then.
A coloring stage keeps, per center, the local prime count and the lifted
edges (``factor_neighborhood``), or only the count (``count``); the N2
sweep lifts its 2-neighborhoods through ``factor_neighborhood`` too.
Route 2 reads each member's local coordinate row straight off the ball's
entry and lifts nothing.  A miss whose quotient is of prime order, or has
a universal vertex, as every 1-ball's has, and no two down-sets whose sizes
multiply to its order, is decided prime on its masks (``_prime_on_masks``,
off the down-sets of ``_down_sets``).  Any other miss costs one split
search and one verification on its masks, builds a graph only for route 2,
and builds no public result type: it reads the rows of
``_factor_verified``, left in the order the split search found them.
``factor_exact`` is the one door that checks its input; it returns a graph
of prime order as its one factor before reading its masks, and otherwise
builds each public factor's graph once, off its masks.
``ordered_factorization`` is the one order and the one builder of the
public results, those of ``factor_exact``, ``pfd_fast`` and
``oracle_pfd``.  ``rebuilds_strong_product`` is the door of the one
product check for graphs, where a one-factor result under identity
coordinates is verified by graph equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator, Sequence

from .graph import (
    DisconnectedError,
    Edge,
    Graph,
    GraphError,
    VertexSet,
    edge_key,
    mask_bits,
)
from .isomorphism import canonical_form
from .products import Coordinatization
from .sclasses import NotThinError, backbone, classes_of, is_thin, relative_quotient

DEFAULT_SIZE_CAP = 24

#: A graph as its closed masks: bit u of entry v is set when u is in N[v].
Masks = tuple[int, ...]


class FactorSizeError(GraphError):
    """Input exceeds the configured factorization size cap."""


@dataclass(frozen=True)
class LocalFactorization:
    """Prime factors plus a coordinatization of the factored graph.

    Trivial one-vertex factors are omitted, so a one-vertex input yields an
    empty factor list.  ``coords`` is None only in ``pfd_fast``'s result,
    which carries no coordinates.
    """

    factors: tuple[Graph, ...]
    coords: Coordinatization | None

    @property
    def prime_count(self) -> int:
        return len(self.factors)


def rebuilds_strong_product(
    graph: Graph, coords: Sequence[tuple[int, ...]], factors: Sequence[Graph]
) -> bool:
    """Whether ``coords`` is an isomorphism from ``graph`` onto the strong
    product of ``factors``, in O(n·k + m·k): the door of ``_product_check``
    for graphs.

    With one factor and identity coordinates the check holds exactly when
    the factor equals the graph, so that case is a graph comparison.
    Otherwise the graph goes in as its edges and closed-neighborhood sizes,
    read off its adjacency sets, so a host's n-bit masks are never built,
    and each factor as its closed masks.
    """
    n = graph.vertex_count
    if len(factors) == 1 and len(coords) == n and all(c == (u,) for u, c in enumerate(coords)):
        return factors[0] == graph
    closed = [len(near) + 1 for near in graph.adjacency_sets]
    return _product_check(list(graph.edges()), closed, coords, [f.closed_masks for f in factors])


def _product_check(
    edges: list[Edge], closed: list[int], coords: Sequence[tuple[int, ...]], factors: Sequence[Masks]
) -> bool:
    """The one product check: whether ``coords`` is an isomorphism from the
    graph with edges ``edges`` and closed-neighborhood sizes ``closed`` onto
    the strong product of the graphs with closed masks ``factors``.

    In A ⊠ B, N[(a, b)] = N[a] × N[b].  So once the coordinates are a
    bijection onto the product's vertices, every edge obeying the strong
    rule and every closed-neighborhood size matching the product of the
    factors' sizes leave no room for a missing or extra edge.  The checks
    run column by column: each factor's coordinate column is range-checked,
    walked once over the edges against that factor's closed masks and
    multiplied into the size products, so no per-edge or per-vertex loop
    runs a generator over all k coordinates.
    """
    n = len(closed)
    sizes = [len(f) for f in factors]
    if len(coords) != n or math.prod(sizes) != n or len(set(coords)) != n:
        return False
    if any(len(c) != len(sizes) for c in coords):
        return False
    columns = list(zip(*coords))
    if any(min(col) < 0 or max(col) >= s for col, s in zip(columns, sizes)):
        return False
    for col, masks in zip(columns, factors):
        rows = [masks[x] for x in col]
        if not all(rows[u] >> col[v] & 1 for u, v in edges):
            return False
    products = [1] * n
    for col, masks in zip(columns, factors):
        own = [m.bit_count() for m in masks]
        products = [p * own[x] for p, x in zip(products, col)]
    return products == closed


def reconstructs(graph: Graph, factorization: LocalFactorization) -> bool:
    """Edge-exact check that the factorization rebuilds ``graph``."""
    coords = factorization.coords
    if coords is None:
        return False
    return rebuilds_strong_product(graph, coords.coords, factorization.factors)


def factor_exact(graph: Graph, size_cap: int | None = DEFAULT_SIZE_CAP) -> LocalFactorization:
    """Complete prime factor decomposition of a connected graph.

    The one door of the exact factorizer: it checks its input, and its
    factors are verified and then put in the order of
    ``ordered_factorization``.  Raises FactorSizeError above ``size_cap``,
    GraphError on a cap that is not None or an ``int``, on the empty graph,
    and DisconnectedError on disconnected input.  A graph of prime order is
    prime, so it is returned as its one factor before its closed masks are
    read; any other input is factored on its closed masks, and a graph is
    built once per factor, for the result.
    """
    require_size_cap(size_cap)
    n = graph.vertex_count
    if size_cap is not None and n > size_cap:
        raise FactorSizeError(f"graph has {n} vertices, size cap is {size_cap}")
    if n == 0:
        raise GraphError("cannot factor an empty graph")
    if not graph.is_connected():
        raise DisconnectedError("prime factorization requires a connected graph")
    if n > 1 and _least_prime_factor(n) == n:
        return ordered_factorization([graph], [(v,) for v in range(n)])
    factors, rows = _factor_verified(graph.closed_masks, NeighborhoodCache(graph))
    # an input found prime is its own one factor
    public = [graph if f == graph.closed_masks else Graph.from_closed_masks(f) for f in factors]
    return ordered_factorization(public, rows)


def require_size_cap(size_cap: object) -> None:
    """Raise GraphError unless ``size_cap`` is None or an ``int``: a bool or
    a string is none."""
    if size_cap is not None and type(size_cap) is not int:
        raise GraphError(f"size cap {size_cap!r} is not None or an int")


def ordered_factorization(
    factors: Sequence[Graph], rows: Sequence[tuple[int, ...]] | None
) -> LocalFactorization:
    """The one factor order of the public results: the factors sorted by
    vertex count, edge count and degree sequence, and by canonical form
    among factors that tie on all three, with each coordinate row permuted
    alike.

    A canonical form is computed only for a factor that ties with another
    on the cheap keys; the others are already placed by them.  Fewer than
    two factors have nothing to order, so their rows are kept as they are.
    With ``rows`` None the result carries no coordinates, as
    ``pfd_fast``'s.
    """
    ordered = tuple(factors)
    if len(ordered) > 1:
        cheap = [
            (f.vertex_count, f.edge_count, tuple(sorted(map(len, f.adjacency_sets))))
            for f in ordered
        ]
        keys = [
            (k, canonical_form(f) if cheap.count(k) > 1 else b"") for k, f in zip(cheap, ordered)
        ]
        order = sorted(range(len(ordered)), key=keys.__getitem__)
        ordered = tuple(ordered[i] for i in order)
        if rows is not None:
            rows = [tuple(row[i] for i in order) for row in rows]
    if rows is None:
        return LocalFactorization(ordered, None)
    coords = Coordinatization(tuple(f.vertex_count for f in ordered), tuple(rows))
    return LocalFactorization(ordered, coords)


def _factor_verified(
    masks: Masks, cache: NeighborhoodCache
) -> tuple[list[Masks], list[tuple[int, ...]]]:
    """The prime factors, as closed masks, of the nonempty connected graph
    with closed masks ``masks``, in the order they were found, and each
    vertex's coordinate row, verified against ``masks``.

    No public result type is built, and a graph only for route 2 (see
    ``_pfd``): a memo miss reads the rows as they are, and ``factor_exact``
    checks its input, builds the factor graphs and orders the result.  The
    product check reads the edges and closed-neighborhood sizes off the
    masks.  ``cache`` is the enclosing cache, whose quotient memo every
    split search below shares."""
    factors, rows = _pfd(masks, cache)
    edges = []
    for u, m in enumerate(masks):
        later = m >> u + 1 << u + 1
        while later:
            low = later & -later
            later ^= low
            edges.append((u, low.bit_length() - 1))
    if not _product_check(edges, [m.bit_count() for m in masks], rows, factors):
        raise RuntimeError("internal error: factorization failed verification")
    return factors, rows


def _least_prime_factor(n: int) -> int:
    """The least prime dividing ``n`` > 1, or ``n`` itself when it is 1."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def _pfd(masks: Masks, cache: NeighborhoodCache) -> tuple[list[Masks], list[tuple[int, ...]]]:
    """Prime factors, as closed masks, and coordinates, split by split.

    The order test comes first, since a graph of prime order is prime, thin
    or not.  A graph that is not thin goes through its quotient, a thin one
    with a universal vertex through route 1 and the others through route 2;
    all three take the masks, and none but route 2 builds a graph.  A split
    recurses on each fiber's masks, renumbered by rank (``_fiber``)."""
    n = len(masks)
    if n == 1:
        return [], [()]
    split = None
    if _least_prime_factor(n) < n:
        if len(set(masks)) < n:
            return _factor_through_quotient(masks, cache)
        if (1 << n) - 1 in masks:
            split = _split_via_containment(masks)
        else:
            split = _split_grown(masks, cache)
    if split is None:
        return [masks], [(v,) for v in range(n)]
    fa, fb, phi = split
    masks_a, rank_a = _fiber(masks, fa)
    masks_b, rank_b = _fiber(masks, fb)
    factors_a, coords_a = _pfd(masks_a, cache)
    factors_b, coords_b = _pfd(masks_b, cache)
    coords: list[tuple[int, ...] | None] = [None] * n
    for (a, b), vertex in phi.items():
        coords[vertex] = coords_a[rank_a[a]] + coords_b[rank_b[b]]
    assert all(row is not None for row in coords)
    return factors_a + factors_b, coords  # type: ignore[return-value]


def _fiber(masks: Masks, members: list[int]) -> tuple[Masks, dict[int, int]]:
    """The closed masks of the subgraph induced by the ascending vertex list
    ``members``, each member renumbered by its rank there, and that rank."""
    rank = {v: i for i, v in enumerate(members)}
    inside = sum(1 << v for v in members)
    return tuple(sum(1 << rank[u] for u in mask_bits(masks[v] & inside)) for v in members), rank


# -- graphs that are not thin -------------------------------------------------


def _factor_through_quotient(
    masks: Masks, cache: NeighborhoodCache
) -> tuple[list[Masks], list[tuple[int, ...]]]:
    """Prime factors and coordinates of the graph with closed masks
    ``masks``, which is not thin, read off the prime factors of its thin
    quotient and its class sizes s.

    If G = A ⊠ B, then G/S = A/S ⊠ B/S and s is the product of the factors'
    size functions.  So each prime factor of G is a group of the quotient's
    prime factors blown up by a size function of the group's coordinates,
    or a K_p that only scales s.  The groups are the finest over which s
    splits as a product: coordinates i and j belong together when
    s(x)·s(x^ij) ≠ s(x^i)·s(x^j) for some x, where x^A is x with the
    coordinates in A reset to the base's.  Between unlinked groups the
    differences of log s along one group do not depend on the other, so s
    is the product of its restrictions to the groups up to a constant.  A
    restriction over its gcd is a prime blow-up: a gcd of 1 leaves it no
    K_p and no coarser grouping splits it.  The gcd of s is what is left.
    Twins are interchangeable, so the members of a class get their digits
    in mixed radix by their rank in the class.

    No graph is built.  The classes and the quotient's masks come from
    ``classes_of``.  A group's product has its cells in row-major order,
    and its blow-up is written as masks: cell y is a block of weights[y]
    vertices, and each of them has the union of the blocks of y's product
    neighbors as its mask.
    """
    classes, class_map, quotient = classes_of(masks)
    factors, rows = _pfd(quotient, cache)
    sizes = [len(members) for members in classes]
    at = {row: x for x, row in enumerate(rows)}
    base = rows[0]

    def size_at(row: tuple[int, ...], reset: Iterable[int]) -> int:
        kept = dict(enumerate(row))
        kept.update((i, base[i]) for i in reset)
        return sizes[at[tuple(kept.values())]]

    k = len(factors)
    label = list(range(k))
    for i, j in combinations(range(k), 2):
        if label[i] != label[j] and any(
            s * size_at(row, (i, j)) != size_at(row, (i,)) * size_at(row, (j,))
            for row, s in zip(rows, sizes)
        ):
            old = label[j]
            label = [label[i] if g == old else g for g in label]
    blown, groups = [], []
    for g in dict.fromkeys(label):
        # each quotient vertex's cell in the group's product, in row-major
        # order (the group's first coordinate slowest), and each cell's
        # closed mask there
        members = [i for i in range(k) if label[i] == g]
        cell, core = [0] * len(rows), (1,)
        for i in members:
            f = factors[i]
            cell = [y * len(f) + row[i] for y, row in zip(cell, rows)]
            core = tuple(sum(fx << z * len(f) for z in mask_bits(cy)) for cy in core for fx in f)
        weights = [0] * len(core)
        for y, row, s in zip(cell, rows, sizes):
            if all(row[i] == base[i] for i in range(k) if i not in members):
                weights[y] = s
        common = math.gcd(*weights)
        weights = [w // common for w in weights]
        starts = [0, *accumulate(weights)]
        blocks = [(1 << w) - 1 << a for w, a in zip(weights, starts)]
        near = [sum(blocks[z] for z in mask_bits(cy)) for cy in core]
        blown.append(tuple(m for m, w in zip(near, weights) for _ in range(w)))
        groups.append((cell, weights, starts))
    primes = []
    rest = math.gcd(*sizes)
    while rest > 1:
        primes.append(_least_prime_factor(rest))
        rest //= primes[-1]
    if len(blown) + len(primes) == 1:
        return [masks], [(v,) for v in range(len(masks))]
    coords = []
    for v, x in enumerate(class_map):
        rank = classes[x].index(v)
        row = []
        for cell, weights, starts in groups:
            rank, digit = divmod(rank, weights[cell[x]])
            row.append(starts[cell[x]] + digit)
        for p in primes:
            rank, digit = divmod(rank, p)
            row.append(digit)
        coords.append(tuple(row))
    return blown + [((1 << p) - 1,) * p for p in primes], coords


# -- candidate route 1: thin graphs with a universal vertex ------------------


def _down_sets(masks: Sequence[int]) -> Iterator[int]:
    """Each vertex's down-set D(u) = {v : N[v] ⊆ N[u]} in the containment
    order of the closed neighborhoods ``masks``, as a mask, vertex by vertex.

    By symmetry, N[v] leaves N[u] exactly when v lies in the closed
    neighborhood of a vertex outside N[u], so D(u) is N[u] less the closed
    neighborhoods of the vertices outside N[u].
    """
    full = (1 << len(masks)) - 1
    for mu in masks:
        outside, rest = 0, full ^ mu
        while rest:
            low = rest & -rest
            rest ^= low
            outside |= masks[low.bit_length() - 1]
        yield mu & ~outside


def _split_via_containment(masks: Masks):
    """Candidate fibers from the closed-neighborhood containment order.

    In a thin product with a universal vertex, the down-set D(u) of
    ``_down_sets`` is, for suitable u, exactly one fiber through one
    vertex; trying all pairs of down-sets of sizes at least 2 that multiply
    to n and meet in one vertex covers every factorization.  So where no
    two sizes multiply to n, no split exists.  The down-sets of a thin
    graph are distinct, so a pair recurs only in the other order, and
    ``_try_extension`` is exhaustive, so a pair fails in both orders or in
    neither; the retry of a failed pair changes no result.
    """
    n = len(masks)
    down = list(_down_sets(masks))
    sizes = [d.bit_count() for d in down]
    for p1, s1 in zip(down, sizes):
        if s1 < 2 or n % s1:
            continue
        for p2, s2 in zip(down, sizes):
            inter = p1 & p2
            # the pair meets in exactly one vertex
            if s2 < 2 or s1 * s2 != n or not inter or inter & inter - 1:
                continue
            fa, fb = list(mask_bits(p2)), list(mask_bits(p1))
            phi = _try_extension(masks, fa, fb, inter.bit_length() - 1)
            if phi is not None:
                return fa, fb, phi
    return None


def _prime_on_masks(masks: tuple[int, ...]) -> bool:
    """Whether ``_factor_verified`` returns the quotient with closed
    neighborhoods ``masks`` as its one factor, as far as the masks decide it
    with no graph built; False also where only the full path can tell.

    A relative quotient is thin, since two of its vertices with one closed
    neighborhood would be one class.  So ``_pfd`` on a quotient of order
    n ≥ 2 returns it whole when n is prime, and otherwise returns what its
    split search finds.  With a universal vertex that is route 1 alone,
    which finds no split where no two down-set sizes multiply to n (see
    ``_split_via_containment``).  Without a universal vertex route 2 runs,
    which the masks do not decide, and n = 1 has rows ((),), not (0,).  The
    first pair of sizes that multiply to n ends the count, so a composite
    quotient pays little before the full path.
    """
    n = len(masks)
    if n < 2:
        return False
    if _least_prime_factor(n) == n:
        return True
    if (1 << n) - 1 not in masks:
        return False
    sizes: set[int] = set()
    for down in _down_sets(masks):
        size = down.bit_count()
        if size > 1 and not n % size:
            if n // size in sizes:
                return False
            sizes.add(size)
    return True


# -- candidate route 2: thin graphs without a universal vertex ----------------


def _box(coords: dict[int, tuple[int, ...]], center: int, inside: frozenset[int]):
    """Members of N[center], given by their local coordinates ``coords``,
    whose coordinates agree with the center's outside ``inside``."""
    cv = coords[center]
    span = range(len(cv))
    return frozenset(
        u for u, cu in coords.items() if all(cu[i] == cv[i] for i in span if i not in inside)
    )


def _grow_fiber_candidates(
    n: int,
    seed: frozenset[int],
    cross_box_size: int,
    backbone_set: frozenset[int],
    neighborhood,
) -> list[frozenset[int]]:
    """Grow fiber candidates from a seed box through the anchor.

    Backbone vertices of the growing set are expanded one by one, each
    through ``neighborhood(v)``, the local coordinates of N[v] by host id:
    the local factor directions that point along the fiber are inferred
    from already-known members, with branching over the directions that
    remain ambiguous.  The box complementary to a valid choice must
    have the same size as the seed's complementary box, which prunes almost
    every wrong branch, and a candidate holds at most half of the host's
    ``n`` vertices.
    """
    results: set[frozenset[int]] = set()
    seen_states: set[tuple[frozenset[int], tuple[int, ...]]] = set()
    # depth first over (current, pending) states, children in pick order;
    # one expansion per backbone vertex of a fiber, so no call stack
    stack = [(seed, tuple(sorted(seed & backbone_set)))]
    while stack:
        state = stack.pop()
        if state in seen_states:
            continue
        seen_states.add(state)
        current, pending = state
        if not pending:
            results.add(current)
            continue
        v, rest = pending[0], pending[1:]
        coords = neighborhood(v)
        cv = coords[v]
        m_v = len(cv)
        forced: set[int] = set()
        for u in current.intersection(coords):
            forced.update(i for i in range(m_v) if coords[u][i] != cv[i])
        free = [i for i in range(m_v) if i not in forced]
        children = []
        for pick in range(1 << len(free)):
            inside = frozenset(forced | {free[j] for j in range(len(free)) if pick >> j & 1})
            if not inside or len(inside) == m_v:
                continue
            if len(_box(coords, v, frozenset(range(m_v)) - inside)) != cross_box_size:
                continue
            grown = current | _box(coords, v, inside)
            if len(grown) * 2 > n:
                continue
            fresh = sorted((grown & backbone_set) - current - set(rest) - {v})
            children.append((grown, rest + tuple(fresh)))
        stack.extend(reversed(children))
    return sorted(results, key=lambda s: (len(s), sorted(s)))


def _split_grown(masks: Masks, cache: NeighborhoodCache):
    """Split search for thin graphs without a universal vertex.

    The anchor neighborhood is factored; every bipartition of its local
    factors seeds a pair of boxes through the anchor, which are grown into
    full fiber candidates along the backbone and verified by extension.
    The anchor, a vertex of largest closed neighborhood, is read off the
    masks, as the extension reads them.  The one graph built, off the
    masks, serves the backbone and the cache on it that ``cache``, the
    enclosing one, opens to factor the balls: it shares the quotient memo
    of the whole public call, so a quotient the caller or an earlier split
    already factored is a hit.  Each neighborhood is read once off its
    factored ball as the local coordinate row of every member, by host id;
    the members of a class share theirs.
    """
    n = len(masks)
    anchor = max(range(n), key=lambda v: (masks[v].bit_count(), -v))
    graph = Graph.from_closed_masks(masks)
    balls = cache.on(graph)
    local: dict[int, dict[int, tuple[int, ...]]] = {}

    def neighborhood(v: int) -> dict[int, tuple[int, ...]]:
        coords = local.get(v)
        if coords is None:
            members, _, class_map, entry = balls.factor_ball(v, 1)
            coords = local[v] = {u: entry.rows[c] for u, c in zip(members, class_map)}
        return coords

    around = neighborhood(anchor)
    m = len(around[anchor])
    if m < 2:
        return None
    backbone_set = frozenset(backbone(graph))
    all_dirs = frozenset(range(m))
    for pick in range(1, 1 << (m - 1)):
        side = frozenset(i for i in range(m) if pick >> i & 1)
        seed_a = _box(around, anchor, side)
        seed_b = _box(around, anchor, all_dirs - side)
        cands_a = _grow_fiber_candidates(n, seed_a, len(seed_b), backbone_set, neighborhood)
        cands_b = _grow_fiber_candidates(n, seed_b, len(seed_a), backbone_set, neighborhood)
        for fa in cands_a:
            if n % len(fa):
                continue
            for fb in cands_b:
                if len(fa) * len(fb) != n or fa & fb != {anchor}:
                    continue
                phi = _try_extension(masks, sorted(fa), sorted(fb), anchor)
                if phi is not None:
                    return sorted(fa), sorted(fb), phi
    return None


# -- bijection extension ------------------------------------------------------


def _induced_bfs(v0: int, members: int, masks: tuple[int, ...]):
    """Distances and parents from v0 within the induced candidate fiber,
    the bits of ``members``."""
    dist = {v0: 0}
    parent = {v0: v0}
    seen = 1 << v0
    frontier = [v0]
    while frontier:
        nxt = []
        for u in frontier:
            fresh = masks[u] & members & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                w = low.bit_length() - 1
                dist[w] = dist[u] + 1
                parent[w] = u
                nxt.append(w)
        frontier = nxt
    if seen != members:
        return None, None
    return dist, parent


def _try_extension(masks: Masks, fa: list[int], fb: list[int], v0: int):
    """Try to realize the graph with closed masks ``masks`` as <fa> box <fb>
    with both fibers through v0.

    Returns the complete pair-to-vertex bijection or None.  The fibers must
    meet in v0 alone.  Adjacency and non-adjacency against every previously
    placed pair are enforced at each step, so a completed map is an
    isomorphism by construction.  The fibers, the placed image and each
    pair's placed neighbors are vertex masks, read against ``masks``.
    """
    ma, mb = sum(1 << a for a in fa), sum(1 << b for b in fb)
    da, parent_a = _induced_bfs(v0, ma, masks)
    if da is None:
        return None
    db, parent_b = _induced_bfs(v0, mb, masks)
    if db is None:
        return None

    # off v0, a meets the rest of fb in v0's neighbors there when a is a
    # neighbor of v0, and nowhere otherwise
    rest_b = mb ^ 1 << v0
    near_b = masks[v0] & rest_b
    for a in fa:
        if a != v0 and masks[a] & rest_b != (near_b if masks[v0] >> a & 1 else 0):
            return None

    phi = {(a, v0): a for a in fa} | {(v0, b): b for b in fb}
    used = ma | mb

    pairs = [(a, b) for a in fa if a != v0 for b in fb if b != v0]
    pairs.sort(key=lambda p: (da[p[0]] + db[p[1]], p[0], p[1]))
    closed_a = {a: list(mask_bits(masks[a] & ma)) for a in fa}
    closed_b = {b: list(mask_bits(masks[b] & mb)) for b in fb}

    # depth-first over the pairs in order; left[i] holds the candidates
    # pairs[i] has not tried yet
    left = [0] * len(pairs)
    depth = 0
    while depth < len(pairs):
        pair = pairs[depth]
        a, b = pair
        if pair in phi:
            used ^= 1 << phi.pop(pair)
        else:
            left[depth] = masks[phi[(parent_a[a], b)]] & masks[phi[(a, parent_b[b])]]
        # used is the image of phi, one to one as the fibers meet in v0
        # alone, so u fits exactly when its placed neighbors are the images
        # of the pair's placed product neighbors
        near = sum(1 << phi[q] for q in product(closed_a[a], closed_b[b]) if q in phi)
        m = left[depth] & ~used
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if masks[u] & used == near:
                phi[pair] = u
                used |= low
                break
        left[depth] = m
        if pair in phi:
            depth += 1
        elif depth == 0:
            return None
        else:
            depth -= 1
    return phi


# -- neighborhood factorization ----------------------------------------------


@dataclass(frozen=True)
class FactoredQuotient:
    """What the memo keeps of one factored quotient: each quotient vertex's
    coordinate row and its closed masks, the memo key the entry is stored
    under.

    The factors of the quotient are dropped once the rows are read off, and
    the prime count and the Cartesian edges are read off the two fields.
    No entry keeps an edge list until it is first lifted: an edge is
    Cartesian exactly when its ends' rows differ in one coordinate, so
    ``cartesian`` reads each vertex's partners off the masks and the masks
    of the vertices sharing a coordinate value, once, and keeps the result.
    A prime quotient's rows are (v,), so every one of its edges is
    Cartesian with index 0.
    """

    rows: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]

    @property
    def prime_count(self) -> int:
        return len(self.rows[0])

    @cached_property
    def cartesian(self) -> tuple[tuple[int, int, int], ...]:
        """The Cartesian edges as (qa, qb, factor index), qa < qb, in
        ascending order.

        The rows are distinct, so qa's partners in coordinate i are its
        later neighbors that agree with it in every other coordinate:
        masks[qa] & ⋂_{j≠i} same_j[row(qa)_j], where same_j[x] is the mask
        of the vertices whose coordinate j is x.
        """
        rows = self.rows
        same: list[dict[int, int]] = [{} for _ in rows[0]]
        for q, row in enumerate(rows):
            for values, x in zip(same, row):
                values[x] = values.get(x, 0) | 1 << q
        found = []
        for qa, (m, row) in enumerate(zip(self.masks, rows)):
            later = m >> qa + 1 << qa + 1
            if not later:
                continue
            agree = [values[x] for values, x in zip(same, row)]
            near, union = [], 0
            for i in range(len(agree)):
                part = later
                for j, mask in enumerate(agree):
                    if j != i:
                        part &= mask
                near.append(part)
                union |= part
            # the partners ascend, each in the one near[i] of its coordinate;
            # on these small masks the bit loop costs less than ``mask_bits``
            while union:
                low = union & -union
                union ^= low
                i = 0
                while not near[i] & low:
                    i += 1
                found.append((qa, low.bit_length() - 1, i))
        return tuple(found)


#: A factored ball, as ``NeighborhoodCache.factor_ball`` returns it: the
#: members, their classes (as positions), each position's class, and the
#: memo entry of its quotient.
Ball = tuple[VertexSet, tuple[VertexSet, ...], tuple[int, ...], FactoredQuotient]


@dataclass(frozen=True)
class NeighborhoodFactorization:
    """What the local algorithm keeps of one closed neighborhood: the number
    of local prime factors of its quotient and the lifted edges.

    ``lifted`` maps host-graph edges inside N[center] to a local factor
    index; an edge is lifted when its quotient image changes exactly one
    local coordinate and at least one endpoint class is a singleton.  The
    classes come from the cache's ``factor_ball``, the rest from its memo.
    """

    center: int
    prime_count: int
    lifted: dict[Edge, int]


@dataclass
class NeighborhoodCache:
    """The one path from a ball in one graph to its factored quotient,
    under one size cap and the quotient memo of one public call.

    ``quotients`` maps a quotient's ``closed_masks``, which fix the labelled
    graph, to its ``FactoredQuotient``: the coordinate rows and the masks.
    A miss whose quotient is of prime order, or has a universal vertex and
    no two down-sets whose sizes multiply to its order, writes identity
    rows decided on the masks alone, with no graph, split search or product
    check (``_prime_on_masks``); any other miss hands its masks to
    ``_factor_verified`` with no quotient graph, and keeps only the rows.  No
    entry keeps an edge list until it is first lifted.  On bounded-degree
    products most neighborhoods have labelled-equal quotients, so each
    distinct one is factored once, and a hit factors nothing.  The memo is
    shared by every cache that ``on`` opens from this one, on the graphs of
    the split searches below it, so within one public call each labelled
    quotient is factored once: the key fixes the quotient, its
    factorization is deterministic, and only verified results are stored.

    ``count`` reads a center's local prime count off its factored 1-ball
    without lifting anything, and keeps the ball in ``balls`` until ``get``
    lifts it, so no ball is classified twice.  ``entries`` holds, per
    center that ``get`` was asked for, its local prime count and the edges
    lifted through that neighborhood's own classes and host ids; nothing
    else of the neighborhood is kept.  Both start empty: only the memo is
    passed in, by ``on``.
    """

    graph: Graph
    size_cap: int | None = None
    quotients: dict[tuple[int, ...], FactoredQuotient] = field(default_factory=dict)
    entries: dict[int, NeighborhoodFactorization] = field(init=False, default_factory=dict)
    balls: dict[int, Ball] = field(init=False, default_factory=dict)

    def on(self, graph: Graph) -> NeighborhoodCache:
        """A cache on ``graph`` without a size cap that shares this cache's
        quotient memo; the split searches open theirs through it."""
        return NeighborhoodCache(graph, quotients=self.quotients)

    def get(self, v: int) -> NeighborhoodFactorization:
        nf = self.entries.get(v)
        if nf is None:
            nf = self.entries[v] = factor_neighborhood(self, v)
        return nf

    def count(self, v: int) -> int:
        """The local prime count of N[v], read off its factored 1-ball with
        no lifting; the ball is kept in ``balls`` for ``get`` to lift."""
        nf = self.entries.get(v)
        if nf is not None:
            return nf.prime_count
        ball = self.balls.get(v)
        if ball is None:
            ball = self.balls[v] = self.factor_ball(v, 1)
        return ball[3].prime_count

    def factor_ball(self, center: int, radius: int) -> Ball:
        """The vertices within ``radius`` of ``center``, their classes (as
        positions), each position's class, and the memo entry of its
        quotient.

        Raises FactorSizeError, naming the center, the radius and the
        quotient's size, when that size exceeds the cap; the coordinate
        columns come in the order the split search found the factors.
        """
        members = self.graph.n_neighborhood(center, radius)
        classes, class_map, masks = relative_quotient(self.graph, members)
        if self.size_cap is not None and len(masks) > self.size_cap:
            raise FactorSizeError(
                f"quotient of the {radius}-neighborhood of {center} has "
                f"{len(masks)} vertices, size cap is {self.size_cap}"
            )
        entry = self.quotients.get(masks)
        if entry is None:
            if _prime_on_masks(masks):
                rows = [(q,) for q in range(len(masks))]
            else:
                _, rows = _factor_verified(masks, self)
            entry = self.quotients[masks] = FactoredQuotient(tuple(rows), masks)
        return members, classes, class_map, entry


def factor_neighborhood(
    cache: NeighborhoodCache, v: int, radius: int = 1
) -> NeighborhoodFactorization:
    """Factor the quotient of the ball of ``radius`` around v through
    ``cache`` and lift its identifiable product edges: radius 1 for the
    neighborhoods of the coloring stages, 2 for the N2 sweep.

    The lifting always goes through this ball's own classes and host ids,
    also when the quotient came from the memo; a 1-ball that ``count``
    already read is taken, not read again.  Classes ascend with their least
    member, so an edge between two singleton classes is keyed as it comes.
    In a thin host, v is a singleton class of its 2-ball: a class mate u
    of v lies in N[v], so N[u] lies inside the ball and equals N[v].  So
    every Cartesian edge at v lifts, to every member of its far class.
    """
    if not is_thin(cache.graph):
        raise NotThinError("neighborhood factorization requires a thin host graph")
    # a radius of 1.0 or True takes no staged ball: n_neighborhood refuses it
    staged = cache.balls.pop(v, None) if radius == 1 and type(radius) is int else None
    members, classes, _, entry = staged or cache.factor_ball(v, radius)
    single = [members[cls[0]] if len(cls) == 1 else None for cls in classes]
    lifted = {}
    for qa, qb, idx in entry.cartesian:
        ha, hb = single[qa], single[qb]
        if ha is not None and hb is not None:
            lifted[ha, hb] = idx
        elif ha is not None or hb is not None:
            for pa in classes[qa]:
                for pb in classes[qb]:
                    lifted[edge_key(members[pa], members[pb])] = idx
    return NeighborhoodFactorization(v, entry.prime_count, lifted)
