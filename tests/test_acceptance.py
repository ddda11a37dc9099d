"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from strongpfd import (
    NeighborhoodCache,
    backbone,
    canonical_form,
    cartesian_edge_set,
    cartesian_index,
    complete_graph,
    factor_exact,
    factor_neighborhood,
    is_isomorphic,
    oracle_pfd,
    path_graph,
    pfd_fast,
    quotient,
    random_connected_graph,
    random_product_instance,
    random_thin_graph,
    recognize,
    strong_product,
    twisted_instance,
)
from strongpfd.cli import main as cli_main
from strongpfd.coloring import STAGE_N2
from strongpfd.io import save_graph

from conftest import house_graph, s_class_size


def report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


def canon_multiset(factors):
    return sorted(canonical_form(f) for f in factors)


def truth_direction_partition(instance: ProductInstance):
    coords = instance.ground_truth_coords
    partition: dict[int, set] = {}
    for u, v in cartesian_edge_set(instance.graph, coords):
        d = cartesian_index(instance.graph, coords, u, v)
        partition.setdefault(d, set()).add((u, v))
    return {frozenset(s) for s in partition.values()}


@pytest.fixture(scope="module")
def recovery_corpus():
    """200 seeded two-factor instances plus their recognition reports."""
    rng = random.Random(20260809)
    instances = []
    for i in range(200):
        sizes = [rng.randint(3, 6), rng.randint(3, 6)]
        prob = rng.uniform(0.35, 0.6)
        instances.append(
            random_product_instance(sizes, seed=100000 + i, edge_prob=prob)
        )
    start = time.perf_counter()
    reports = [recognize(inst.graph) for inst in instances]
    elapsed = time.perf_counter() - start
    return instances, reports, elapsed


def test_criterion_01_factor_recovery(recovery_corpus):
    instances, reports, elapsed = recovery_corpus
    accepted = 0
    for inst, rep in zip(instances, reports):
        oracle_count = sum(
            oracle_pfd(f).prime_count for f in inst.ground_truth_factors
        )
        local_counts = {
            factor_neighborhood(NeighborhoodCache(inst.graph), v).prime_count
            for v in backbone(inst.graph)
        }
        expected = local_counts == {oracle_count}
        assert rep.in_upsilon == expected
        if rep.in_upsilon:
            accepted += 1
            truth = canon_multiset(
                [
                    prime
                    for f in inst.ground_truth_factors
                    for prime in oracle_pfd(f).factors
                ]
            )
            assert canon_multiset(rep.extracted_factors) == truth
    assert elapsed < 60.0
    report(1, "factor recovery", f"{accepted}/200 accepted, {elapsed:.1f}s")


def test_criterion_02_backbone_connected_dominating():
    rng = random.Random(2)
    for i in range(500):
        n = rng.randint(3, 12)
        g = random_thin_graph(n, rng.uniform(0.3, 0.6), seed=200000 + i)
        members = backbone(g)
        sub, _ = g.induced_subgraph(members)
        assert sub.is_connected()
        covered = set(members)
        for v in members:
            covered.update(g.neighbors(v))
        assert covered == set(g.vertices())
    report(2, "backbone is a connected dominating set", "500 graphs")


def test_criterion_03_backbone_product_law():
    rng = random.Random(3)
    for i in range(100):
        inst = random_product_instance(
            [rng.randint(3, 5), rng.randint(3, 5)], seed=300000 + i
        )
        f1, f2 = inst.ground_truth_factors
        coords = inst.ground_truth_coords
        expected = {
            coords.vertex_at((a, b)) for a in backbone(f1) for b in backbone(f2)
        }
        assert set(backbone(inst.graph)) == expected
    report(3, "product backbone equals product of backbones", "100 instances")


def test_criterion_04_distance_law():
    rng = random.Random(4)
    draws = 0
    while draws < 1000:
        inst = random_product_instance(
            [rng.randint(3, 6), rng.randint(3, 6)], seed=400000 + draws
        )
        f1, f2 = inst.ground_truth_factors
        coords = inst.ground_truth_coords
        n = inst.graph.vertex_count
        for _ in range(20):
            u, v = rng.randrange(n), rng.randrange(n)
            cu, cv = coords.coords[u], coords.coords[v]
            expected = max(f1.distances_from(cu[0])[cv[0]], f2.distances_from(cu[1])[cv[1]])
            assert inst.graph.distances_from(u)[v] == expected
            draws += 1
    report(4, "product distance is the max over factors", f"{draws} draws")


def test_criterion_05_neighborhood_subproduct_law():
    rng = random.Random(5)
    for i in range(100):
        inst = random_product_instance(
            [rng.randint(3, 5), rng.randint(3, 5)], seed=500000 + i
        )
        f1, f2 = inst.ground_truth_factors
        coords = inst.ground_truth_coords
        v = rng.randrange(inst.graph.vertex_count)
        x, y = coords.coords[v]
        for radius in (1, 2):
            ball, _ = inst.graph.induced_subgraph(
                inst.graph.n_neighborhood(v, radius)
            )
            b1, _ = f1.induced_subgraph(f1.n_neighborhood(x, radius))
            b2, _ = f2.induced_subgraph(f2.n_neighborhood(y, radius))
            expected, _ = strong_product([b1, b2])
            assert is_isomorphic(ball, expected)
    report(5, "neighborhoods factor as subproducts", "100 instances, radii 1-2")


def test_criterion_06_quotient_and_class_size_laws():
    rng = random.Random(6)
    for i in range(100):
        factors = []
        for _ in range(2):
            kind = rng.randrange(3)
            if kind == 0:
                factors.append(complete_graph(rng.choice((2, 3))))
            elif kind == 1:
                factors.append(random_connected_graph(rng.randint(3, 5), 0.55, seed=600000 + i))
            else:
                factors.append(random_thin_graph(rng.randint(3, 5), 0.5, seed=610000 + i))
        graph, coords = strong_product(factors)
        q = quotient(graph)
        expected, _ = strong_product(
            [quotient(f).quotient for f in factors]
        )
        assert is_isomorphic(q.quotient, expected)
        for _ in range(5):
            x = rng.randrange(graph.vertex_count)
            v = rng.choice(graph.closed_neighborhood(x))
            x1, x2 = coords.coords[x]
            v1, v2 = coords.coords[v]
            assert s_class_size(graph, v, x) == s_class_size(
                factors[0], v1, x1
            ) * s_class_size(factors[1], v2, x2)
    report(6, "quotient and class-size product laws", "100 instances")


def test_criterion_07_skeleton_exactness(recovery_corpus):
    instances, reports, _ = recovery_corpus
    blind_graph, blind_coords = strong_product([path_graph(3), house_graph()])
    checked = 0
    for inst, rep in zip(instances, reports):
        if not rep.in_upsilon:
            continue
        checked += 1
        truth = cartesian_edge_set(inst.graph, inst.ground_truth_coords)
        assert set(rep.coloring.cartesian_edges) == truth
        classes: dict[int, set] = {}
        for e, c in rep.coloring.edge_color.items():
            classes.setdefault(c, set()).add(e)
        assert {frozenset(s) for s in classes.values()} == truth_direction_partition(inst)
    blind_report = recognize(blind_graph)
    assert blind_report.in_upsilon
    assert set(blind_report.coloring.cartesian_edges) == cartesian_edge_set(
        blind_graph, blind_coords
    )
    report(7, "skeleton exactness on accepted instances", f"{checked} instances")


def test_criterion_08_twisted_negative_control(tmp_path):
    graph = twisted_instance()
    assert oracle_pfd(graph).prime_count == 1
    counts = {factor_neighborhood(NeighborhoodCache(graph), v).prime_count for v in backbone(graph)}
    assert counts == {2}
    rep = recognize(graph)
    assert not rep.in_upsilon
    path = tmp_path / "twisted.json"
    save_graph(graph, path)
    assert cli_main(["recognize", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 1
    report(8, "twisted fixture rejected", f"{graph.vertex_count} vertices")


def test_criterion_09_blind_fibers_recovered_by_second_stage():
    h = house_graph()
    family = [
        strong_product([path_graph(3), h]),
        strong_product([path_graph(4), h]),
        strong_product([h, h]),
    ]
    for graph, coords in family:
        rep = recognize(graph)
        assert rep.in_upsilon
        skeleton = rep.coloring
        assert skeleton.n2_ran
        late = [e for e, s in skeleton.stage_of.items() if s == STAGE_N2]
        assert late
        # the late edges include at least one full ground-truth fiber
        truth = cartesian_edge_set(graph, coords)
        assert set(late) <= truth
        assert set(skeleton.cartesian_edges) == truth
    report(9, "unwitnessed fibers recovered in 2-neighborhoods", f"{len(family)} products")


def test_criterion_10_scaling_smoke():
    # best of 3 calls, each on a fresh graph (nothing memoized on it), so a
    # full collection of a heap that earlier tests left behind does not
    # land on the one timed call of some k
    times: dict[int, float] = {}
    total_start = time.perf_counter()
    for k in (50, 100, 200, 400, 800):
        times[k] = math.inf
        for _ in range(3):
            graph = strong_product([path_graph(k), path_graph(3)])[0]
            start = time.perf_counter()
            result = pfd_fast(graph)
            times[k] = min(times[k], time.perf_counter() - start)
            assert sorted(f.vertex_count for f in result.factors) == [3, k]
    total = time.perf_counter() - total_start
    ks = sorted(times)
    xs = [math.log(k) for k in ks]
    ys = [math.log(times[k]) for k in ks]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert slope <= 1.3
    assert total < 30.0
    report(10, "quasi-linear scaling", f"slope {slope:.2f}, {total:.1f}s total")


def test_criterion_11_oracle_agreement():
    rng = random.Random(11)
    for i in range(500):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng.uniform(0.25, 0.85), seed=700000 + i)
        assert canon_multiset(factor_exact(g).factors) == canon_multiset(
            oracle_pfd(g).factors
        )
    report(11, "factorizer agrees with oracle", "500 graphs")


def test_criterion_12_byte_deterministic_output(tmp_path):
    product_path = tmp_path / "prod.json"
    graph, _ = strong_product([path_graph(3), path_graph(3)])
    save_graph(graph, product_path)
    twisted_path = tmp_path / "twisted.json"
    save_graph(twisted_instance(), twisted_path)
    for command in ("recognize", "skeleton"):
        for source in (product_path, twisted_path):
            runs = []
            for attempt in range(2):
                out = tmp_path / f"{command}-{source.stem}-{attempt}.json"
                cli_main([command, "--input", str(source), "--output", str(out)])
                runs.append(out.read_bytes())
            assert runs[0] == runs[1]
            json.loads(runs[0])
    report(12, "byte-identical repeated runs", "recognize + skeleton")
