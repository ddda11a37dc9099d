"""Seeded inputs and their ground truth for the three benchmark workloads.

Every input is an edge-list text plus an expectation derived without the
pipeline under test: factor graphs are known by construction, their prime
decompositions come from the triangle-free argument or the brute-force
oracle, and verdicts follow from the neighborhood rule in
``expected_positive``.  The same seed always yields byte-identical texts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from strongpfd import io, products
from strongpfd.graph import Graph, cycle_graph, path_graph
from strongpfd.oracle import (
    oracle_pfd,
    random_connected_graph,
    random_thin_graph,
    twisted_instance,
)

import check

RECOGNIZE, PFD_FAST, FACTOR_EXACT = "recognize", "pfd_fast", "factor_exact"
ENTRY_POINTS = (RECOGNIZE, PFD_FAST, FACTOR_EXACT)


@dataclass
class Case:
    """One input for one entry point, with what a correct answer looks like.

    ``factors`` is the sorted list of ``check.factor_key`` values of the
    prime factors; ``positive`` the expected recognize verdict; ``prime``
    marks inputs known to be prime, whose single factor must equal the
    input; ``allowed`` names exceptions that are a correct outcome.
    ``sized`` puts the case in the family that ``size_exponent`` is fitted on.
    """

    kind: str
    label: str
    n: int
    text: str
    edges: list[tuple[int, int]]
    factors: list | None = None
    positive: bool | None = None
    prime: bool = False
    allowed: tuple[str, ...] = ()
    sized: bool = False


@dataclass
class Pool:
    """All cases of one workload, grouped by entry point in visiting order."""

    cases: dict[str, list[Case]] = field(default_factory=dict)

    def add(self, case: Case) -> None:
        self.cases.setdefault(case.kind, []).append(case)

    def texts(self) -> list[str]:
        return [c.text for kind in ENTRY_POINTS for c in self.cases.get(kind, [])]


# -- helpers -------------------------------------------------------------------


def edge_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def log_grid(lo: float, hi: float, count: int) -> list[int]:
    """Integer midpoints of ``count`` strata of [lo, hi], equal on a log scale:
    a fixed quadrature of the log-uniform distribution, so every seed runs
    the same size mix and medians do not swing with an unlucky draw."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


def spread_order(items: list) -> list:
    """Size-sorted items visited in golden-ratio order, so that a pass cut
    short by the time limit still samples the whole size range."""
    ranked = sorted(items, key=lambda c: (c.n, c.label))
    phi = (math.sqrt(5) - 1) / 2
    order = sorted(range(len(ranked)), key=lambda i: (i * phi) % 1.0)
    return [ranked[i] for i in order]


def prime_factors(factor: Graph) -> list[Graph]:
    """Prime decomposition of a generating factor, independent of the pipeline.

    A strong product of two nontrivial connected graphs contains K4, so a
    connected triangle-free graph is prime; anything else goes to the oracle.
    """
    edges = list(factor.edges())
    if check.triangle_free(factor.vertex_count, edges):
        return [factor]
    return list(oracle_pfd(factor).factors)


def _closed_quotient_count(n: int, edges: list[tuple[int, int]], x: int) -> int:
    """Prime count of the quotient of the closed neighborhood of x; a
    one-vertex quotient has no prime factors."""
    sub_n, sub_edges = check.closed_neighborhood(n, edges, x)
    q_n, q_edges = check.quotient(sub_n, sub_edges)
    return len(prime_factors(Graph(q_n, q_edges))) if q_n > 1 else 0


def expected_positive(factors: list[Graph]) -> bool:
    """Verdict rule for products: positive iff for every factor F and every
    backbone vertex x of F, the quotient of N_F[x] has as many prime factors
    as F itself (the backbone and quotient laws of the product)."""
    for f in factors:
        edges = list(f.edges())
        count = len(prime_factors(f))
        for x in check.backbone(f.vertex_count, edges):
            if _closed_quotient_count(f.vertex_count, edges, x) != count:
                return False
    return True


def _prime_keys(factors: list[Graph]) -> list:
    return check.graph_keys([p for f in factors for p in prime_factors(f)])


def _product_case(kind: str, label: str, factors: list[Graph], sized: bool = False) -> Case:
    graph, coords = products.strong_product(factors)
    edges = sorted(graph.edges())
    check.verify_strong_product(graph.vertex_count, edges, coords.coords, factors)
    return Case(
        kind=kind,
        label=label,
        n=graph.vertex_count,
        text=edge_text(graph.vertex_count, edges),
        edges=edges,
        factors=_prime_keys(factors),
        positive=expected_positive(factors) if kind == RECOGNIZE else None,
        sized=sized,
    )


def _prime_case(kind: str, label: str, graph: Graph, allowed: tuple[str, ...] = ()) -> Case:
    n = graph.vertex_count
    edges = sorted(graph.edges())
    if not (check.is_prime_number(n) and check.connected(n, edges) and check.thin(n, edges)):
        raise ValueError(f"{label} is not a thin connected graph of prime order")
    return Case(kind, label, n, edge_text(n, edges), edges, prime=True, allowed=allowed, sized=True)


def _negative_case(label: str, graph: Graph, prime_by_oracle: bool) -> Case:
    """A globally prime graph with a decomposable backbone neighborhood: the
    local count exceeds the global one, so recognize must reject it."""
    n = graph.vertex_count
    edges = sorted(graph.edges())
    if prime_by_oracle:
        globally_prime = oracle_pfd(graph).prime_count == 1
    else:
        globally_prime = check.mobius_degree_cycle(n, edges)
    refined = any(_closed_quotient_count(n, edges, x) >= 2 for x in check.backbone(n, edges))
    if not (globally_prime and refined):
        raise ValueError(f"{label} is not a locally refined prime graph")
    return Case(RECOGNIZE, label, n, edge_text(n, edges), edges, positive=False)


def mobius_king_strip(k: int) -> Graph:
    """M_k: three path rows of king-connected columns closed into a ring whose
    seam reverses the rows; its degree-5 vertices form one 2k-cycle."""
    edges = set()
    for col in range(k):
        nxt = (col + 1) % k
        for r1 in range(3):
            if r1 < 2:
                edges.add((3 * col + r1, 3 * col + r1 + 1))
            for r2 in range(3):
                glued = 2 - r2 if nxt == 0 else r2
                if abs(r1 - glued) <= 1:
                    u, v = 3 * col + r1, 3 * nxt + r2
                    edges.add((min(u, v), max(u, v)))
    return Graph(3 * k, sorted(edges))


def house_graph() -> Graph:
    """Five-cycle with one chord; fibers through its apex are invisible to
    1-neighborhoods in products, so the N2 sweep has to run."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


# -- workloads -------------------------------------------------------------------


def king_strips(rng: random.Random) -> Pool:
    pool = Pool()
    p3 = path_graph(3)
    for kind, lo, hi, strata in ((PFD_FAST, 100, 800, 32), (RECOGNIZE, 30, 150, 24)):
        for shape, make in (("P", path_graph), ("C", cycle_graph)):
            for k in log_grid(lo, hi, strata):
                pool.add(_product_case(kind, f"{shape}{k}xP3", [make(k), p3], sized=True))
    for _ in range(24):
        a, b, c = (rng.randint(4, 12) for _ in range(3))
        pool.add(_product_case(PFD_FAST, f"P{a}xP{b}xP{c}", [path_graph(a), path_graph(b), path_graph(c)]))
    for a in range(3, 9):
        for b in range(3, 9):
            if a <= b and a * b <= 24:
                pool.add(_product_case(FACTOR_EXACT, f"P{a}xP{b}", [path_graph(a), path_graph(b)]))
    for a in range(4, 9):
        pool.add(_product_case(FACTOR_EXACT, f"C{a}xP3", [cycle_graph(a), p3]))
    return pool


def grid(lo: float, hi: float, count: int) -> list[float]:
    """``count`` evenly spaced design points from lo to hi inclusive."""
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


#: Graphs per prime order in a dense_prime pass, about inversely to the cost
#: of recognize (~n^3.8), so every order gets a similar share of the time and
#: the median pools many similar ops instead of resting on two outliers.
DENSE_ORDERS = {41: 12, 43: 10, 47: 7, 53: 5, 59: 3, 61: 3}


def dense_prime(rng: random.Random) -> Pool:
    pool = Pool()
    probs = grid(0.4, 0.6, 4)
    for n, count in DENSE_ORDERS.items():
        for i in range(count):
            p = probs[i % len(probs)]
            graph = random_thin_graph(n, p, rng.randrange(2**32))
            label = f"G({n},{p:.3f})#{i}"
            pool.add(_prime_case(RECOGNIZE, label, graph))
            pool.add(_prime_case(PFD_FAST, label, graph, allowed=("ColoringError",)))
    for n in (13, 17, 19, 23):
        for p in grid(0.4, 0.6, 3):
            graph = random_thin_graph(n, p, rng.randrange(2**32))
            pool.add(_prime_case(FACTOR_EXACT, f"G({n},{p:.3f})", graph))
    return pool


def _size_pairs(lo: int, hi: int, cap: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1) if a * b <= cap]


#: small_products draws its random factors from one fixed corpus, as the
#: acceptance tests do.  recognize and factor_exact costs on these graphs are
#: heavy-tailed, so a corpus redrawn per seed would move the medians and
#: totals more than most changes to the code would.  The run's seed relabels
#: every factor, so each seed still gets its own edge lists.
CORPUS_SEED = 20171705


def _relabel(rng: random.Random, graph: Graph) -> Graph:
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return Graph(graph.vertex_count, [(perm[u], perm[v]) for u, v in graph.edges()])


def _random_factors(corpus, rng, sizes, p: float, thin: bool = True) -> list[Graph]:
    make = random_thin_graph if thin else random_connected_graph
    return [_relabel(rng, make(size, p, corpus.randrange(2**32))) for size in sizes]


def small_products(rng: random.Random) -> Pool:
    pool = Pool()
    corpus = random.Random(CORPUS_SEED)
    positives: list[Case] = []
    for sizes in _size_pairs(3, 6, 36):
        for p in grid(0.35, 0.6, 4) * 8:
            factors = _random_factors(corpus, rng, sizes, p)
            label = f"thin{sizes}p{p:.2f}#{len(positives)}"
            positives.append(_product_case(RECOGNIZE, label, factors, sized=True))
    for sizes in ((3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4)) * 8:
        factors = _random_factors(corpus, rng, sizes, 0.45)
        positives.append(_product_case(RECOGNIZE, f"thin{sizes}#{len(positives)}", factors))
    house = house_graph()
    for k in (3, 4, 5, 6, 7, 8, 10, 12):
        positives.append(_product_case(RECOGNIZE, f"P{k}xhouse", [path_graph(k), house]))
    positives.append(_product_case(RECOGNIZE, "housexhouse", [house, house]))
    for case in positives:
        pool.add(case)
        if case.positive:
            pool.add(Case(PFD_FAST, case.label, case.n, case.text, case.edges,
                          factors=case.factors, sized=case.sized))
    for k in (4, 5, 6, 8, 10, 12, 15, 20):
        pool.add(_negative_case(f"M{k}", mobius_king_strip(k), prime_by_oracle=False))
    pool.add(_negative_case("twisted", twisted_instance(), prime_by_oracle=True))
    for i, sizes in enumerate(_size_pairs(3, 6, 24) * 4):
        for p in grid(0.35, 0.6, 4):
            factors = _random_factors(corpus, rng, sizes, p)
            pool.add(_product_case(FACTOR_EXACT, f"thin{sizes}p{p:.2f}#{i}", factors))
    for i, sizes in enumerate(_size_pairs(2, 4, 16) * 24):
        for p in grid(0.35, 0.6, 5):
            factors = _random_factors(corpus, rng, sizes, p, thin=False)
            pool.add(_product_case(FACTOR_EXACT, f"any{sizes}p{p:.2f}#{i}", factors))
    return pool


WORKLOADS = {
    "king_strips": king_strips,
    "dense_prime": dense_prime,
    "small_products": small_products,
}

#: Share of a run's wall time each entry point gets, per workload.  Set so
#: that, in a 30 s run, an entry point makes a whole number of passes with
#: room to spare on both sides: the costly ones one or two passes of at
#: least 24 ops, so their tail still lies above their median.
SHARES = {
    "king_strips": {RECOGNIZE: 0.50, PFD_FAST: 0.40, FACTOR_EXACT: 0.10},
    "dense_prime": {RECOGNIZE: 0.82, PFD_FAST: 0.12, FACTOR_EXACT: 0.06},
    "small_products": {RECOGNIZE: 0.30, PFD_FAST: 0.25, FACTOR_EXACT: 0.45},
}


def build(workload: str, seed: int) -> Pool:
    """Generate, check and parse one workload's inputs from its seed.

    This is the whole set-up a user pays before the first operation: input
    generation, ground truth, and parsing every edge-list text with
    ``strongpfd.io`` (the parsed graph must match the generated edges).
    """
    check.factor_key.cache_clear()
    rng = random.Random(f"{workload}:{seed}")
    pool = WORKLOADS[workload](rng)
    for kind, cases in pool.cases.items():
        for case in cases:
            graph = io.loads_edgelist(case.text)
            if graph.vertex_count != case.n or sorted(graph.edges()) != case.edges:
                raise ValueError(f"{case.label}: parsed graph differs from the generated one")
        pool.cases[kind] = spread_order(cases)
    return pool
