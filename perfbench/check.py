"""Ground-truth checks written apart from the pipeline under test.

Graphs here are plain ``(n, edges)`` pairs.  Results of the program are read
only through ``Graph.vertex_count`` and ``Graph.edges``; isomorphism,
backbones and quotients are recomputed by this module's own few lines.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

Edges = list[tuple[int, int]]

#: Factors up to this many vertices are compared by an exact canonical form;
#: larger ones are paths and cycles, which their invariants pin down.
CANON_LIMIT = 6


def adjacency(n: int, edges: Edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected(n: int, edges: Edges) -> bool:
    if n == 0:
        return True
    adj = adjacency(n, edges)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def thin(n: int, edges: Edges) -> bool:
    adj = adjacency(n, edges)
    return len({frozenset(adj[v] | {v}) for v in range(n)}) == n


def triangle_free(n: int, edges: Edges) -> bool:
    adj = adjacency(n, edges)
    return all(not (adj[u] & adj[v]) for u, v in edges)


def is_prime_number(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def backbone(n: int, edges: Edges) -> list[int]:
    """Vertices whose closed neighborhood lies in no neighbor's."""
    adj = adjacency(n, edges)
    closed = [adj[v] | {v} for v in range(n)]
    return [v for v in range(n) if not any(closed[v] <= closed[u] for u in adj[v])]


def closed_neighborhood(n: int, edges: Edges, x: int) -> tuple[int, Edges]:
    """The subgraph induced by N[x], relabelled in ascending order."""
    adj = adjacency(n, edges)
    order = sorted(adj[x] | {x})
    pos = {v: i for i, v in enumerate(order)}
    sub = sorted((pos[u], pos[v]) for u, v in edges if u in pos and v in pos)
    return len(order), sub


def quotient(n: int, edges: Edges) -> tuple[int, Edges]:
    """Collapse vertices with equal closed neighborhoods."""
    adj = adjacency(n, edges)
    classes: dict[frozenset, int] = {}
    cls = [classes.setdefault(frozenset(adj[v] | {v}), len(classes)) for v in range(n)]
    q_edges = {(min(cls[u], cls[v]), max(cls[u], cls[v])) for u, v in edges if cls[u] != cls[v]}
    return len(classes), sorted(q_edges)


def mobius_degree_cycle(n: int, edges: Edges) -> bool:
    """True when the degree pattern is that of C_k x P_3 (n = 3k) but the
    degree-5 vertices induce one 2k-cycle instead of two k-cycles, which
    rules out the only degree-feasible factorization."""
    adj = adjacency(n, edges)
    if n % 3 or sorted(len(a) for a in adj) != [5] * (2 * n // 3) + [8] * (n // 3):
        return False
    rim = sorted(v for v in range(n) if len(adj[v]) == 5)
    pos = {v: i for i, v in enumerate(rim)}
    sub = [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos]
    sub_adj = adjacency(len(rim), sub)
    return all(len(a) == 2 for a in sub_adj) and connected(len(rim), sub)


def verify_strong_product(n: int, edges: Edges, coords, factors) -> None:
    """Check a generated product against its coordinates: every edge obeys
    the strong rule and every degree is prod(deg_i + 1) - 1, which together
    force the edge set to be exactly the strong product."""
    fadj = [adjacency(f.vertex_count, list(f.edges())) for f in factors]
    degree = [0] * n
    for u, v in edges:
        cu, cv = coords[u], coords[v]
        if cu == cv or any(a != b and b not in fadj[i][a] for i, (a, b) in enumerate(zip(cu, cv))):
            raise ValueError(f"generated edge ({u}, {v}) breaks the strong rule")
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        want = 1
        for i, c in enumerate(coords[v]):
            want *= len(fadj[i][c]) + 1
        if degree[v] != want - 1:
            raise ValueError(f"generated vertex {v} has the wrong degree")


def _canon(n: int, edges: Edges) -> tuple:
    """Exact canonical form for small graphs: minimum edge code over all
    orderings that respect a degree-based vertex partition."""
    adj = adjacency(n, edges)
    key = [(len(adj[v]), tuple(sorted(len(adj[u]) for u in adj[v]))) for v in range(n)]
    blocks: dict = {}
    for v in range(n):
        blocks.setdefault(key[v], []).append(v)
    shape = tuple(sorted(blocks))
    best = None
    for perm in itertools.product(*(itertools.permutations(blocks[k]) for k in shape)):
        pos = {v: i for i, v in enumerate(itertools.chain.from_iterable(perm))}
        code = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges))
        if best is None or code < best:
            best = code
    return shape, best


@functools.lru_cache(maxsize=4096)
def factor_key(n: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    """Isomorphism key of a prime factor: exact for small graphs, and for
    larger ones the invariants that determine paths and cycles."""
    if n <= CANON_LIMIT:
        return ("canon", n, _canon(n, edges))
    degrees = tuple(sorted(len(a) for a in adjacency(n, edges)))
    return ("inv", n, len(edges), degrees, connected(n, edges))


def graph_keys(graphs) -> list:
    return sorted(factor_key(g.vertex_count, tuple(sorted(g.edges()))) for g in graphs)


def _equals_input(case, factors) -> bool:
    return (
        len(factors) == 1
        and factors[0].vertex_count == case.n
        and sorted(factors[0].edges()) == case.edges
    )


def check(case, result, error: BaseException | None) -> str | None:
    """None when the outcome of one op is correct, else why it is not."""
    if error is not None:
        name = type(error).__name__
        if name in case.allowed:
            return None
        return f"{case.kind} on {case.label} raised {name}: {error}"
    if case.kind == "recognize":
        factors = result.extracted_factors
        if case.prime:
            if result.in_upsilon and not _equals_input(case, factors):
                return f"recognize on prime {case.label} did not return the input as its factor"
            if not result.in_upsilon and not result.diagnostics:
                return f"recognize on prime {case.label} rejected without a diagnostic"
            return None
        if result.in_upsilon != case.positive:
            return f"recognize on {case.label} gave verdict {result.in_upsilon}"
        if case.positive and not (result.reconstruction_ok and graph_keys(factors) == case.factors):
            return f"recognize on {case.label} extracted the wrong factors"
        if not case.positive and not result.diagnostics:
            return f"recognize on {case.label} rejected without a diagnostic"
        return None
    factors = result.factors
    if case.prime:
        if not _equals_input(case, factors):
            return f"{case.kind} on prime {case.label} did not return the input as its factor"
        return None
    if graph_keys(factors) != case.factors:
        return f"{case.kind} on {case.label} returned the wrong factors"
    return None
