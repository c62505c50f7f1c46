"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (tolerance-free combinatorics) with a wall-clock
budget. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from circgraph.canonical import are_isomorphic, canonical_form
from circgraph.census import (
    enumerate_circular,
    enumerate_circular_trees,
    free_trees,
)
from circgraph.circular import CheckStatus, Verdict, check_linear_axioms, classify
from circgraph.circular import (
    verify_distance_profile,
    verify_metric_bounds,
    verify_w_pair_bound,
)
from circgraph.constructions import derive_linear, neighborhood_graph, star, triangular
from circgraph.fileio import dumps_obj, parse_payload, payload_to_obj
from circgraph.graphs import SimpleGraph, as_simple, disjoint_union, metric_summary

from helpers import brute_force_classify, random_bipartite, relabeled


def _finish(num, name, failures, started, budget):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"


def test_criterion_01_recognition():
    started = time.perf_counter()
    failures = []
    for n in range(4, 9):
        if classify(triangular(n)).verdict is not Verdict.NON_TRIVIAL_CIRCULAR:
            failures.append(f"triangular({n}) not recognized as non-trivial")
    for n in range(4, 11):
        if classify(star(n)).verdict is not Verdict.TRIVIAL_CIRCULAR:
            failures.append(f"star({n}) not recognized as trivial")
    _finish(1, "recognition of the named families", failures, started, 1.0)


def test_criterion_02_circle_pair_bound_sweep():
    started = time.perf_counter()
    failures = []
    graphs = [e.graph for u in (3, 4, 5) for e in enumerate_circular(u)]
    graphs += [triangular(n) for n in range(4, 9)]
    for g in graphs:
        report = verify_w_pair_bound(g)
        if report.status is not CheckStatus.PASS or report.evidence["max_cn"] > 2:
            failures.append(f"circle-pair bound violated on {len(g.part_u)}+{len(g.part_w)} graph")
    _finish(2, "circle-pair common neighbors <= 2", failures, started, 5.0)


def test_criterion_03_circular_trees():
    started = time.perf_counter()
    failures = []
    counts = [len(free_trees(n)) for n in range(1, 10)]
    if counts != [1, 1, 1, 2, 3, 6, 11, 23, 47]:
        failures.append(f"free-tree counts off: {counts}")
    entries = enumerate_circular_trees(9)
    shape = [(e.u_size, e.w_size) for e in entries]
    if shape != [(m, 1) for m in range(3, 9)]:
        failures.append(f"tree census is not exactly the stars: {shape}")
    for m, entry in zip(range(4, 10), entries):
        if not are_isomorphic(entry.graph, star(m)).isomorphic:
            failures.append(f"entry with {entry.u_size} points is not the star on {m} vertices")
    _finish(3, "circular trees are exactly the stars", failures, started, 30.0)


def test_criterion_04_distance_profile_and_metric_bounds():
    started = time.perf_counter()
    failures = []
    graphs = [
        e.graph
        for u in (3, 4, 5)
        for e in enumerate_circular(u)
        if e.verdict is Verdict.NON_TRIVIAL_CIRCULAR
    ]
    graphs += [triangular(n) for n in range(4, 9)]
    for g in graphs:
        profile = verify_distance_profile(g)
        if profile.status is not CheckStatus.PASS:
            failures.append(f"distance profile failed: {profile.counterexample}")
            continue
        ev = profile.evidence
        if not (
            set(ev["u_pair_distances"]) <= {2}
            and set(ev["w_pair_distances"]) <= {2, 4}
            and set(ev["u_w_distances"]) <= {1, 3}
        ):
            failures.append(f"distance sets out of range: {ev}")
        metric = verify_metric_bounds(g)
        if metric.status is not CheckStatus.PASS:
            failures.append(f"metric bounds failed: {metric.evidence}")
        elif metric.evidence["radius"] != 3 or metric.evidence["diameter"] not in (3, 4):
            failures.append(f"metric values out of range: {metric.evidence}")
    if metric_summary(triangular(5)).diameter != 3:
        failures.append("diameter of triangular(5) is not 3")
    if metric_summary(triangular(6)).diameter != 4:
        failures.append("diameter of triangular(6) is not 4")
    _finish(4, "distance trichotomy and diameter/radius", failures, started, 10.0)


def _replay_mapping(g1, g2, mapping):
    if sorted(mapping) != sorted(g1.vertex_labels):
        return False
    if sorted(mapping.values()) != sorted(g2.vertex_labels):
        return False
    mapped = {frozenset((mapping[a], mapping[b])) for a, b in g1.edges}
    return mapped == {frozenset(e) for e in g2.edges} and len(g1.edges) == len(g2.edges)


def test_criterion_05_neighborhood_doubling():
    started = time.perf_counter()
    failures = []
    graphs = [star(n) for n in range(4, 9)]
    graphs += [triangular(n) for n in range(4, 7)]
    graphs += [e.graph for u in (3, 4, 5) for e in enumerate_circular(u)]
    for g in graphs:
        doubled = disjoint_union(g, g)
        cert = are_isomorphic(neighborhood_graph(g), doubled)
        if not cert.isomorphic:
            failures.append(f"doubling failed on {len(g.part_u)}+{len(g.part_w)} graph")
        elif not _replay_mapping(neighborhood_graph(g), doubled, cert.mapping):
            failures.append("certificate mapping did not replay edge-exactly")
    _finish(5, "neighborhood graph doubles the graph", failures, started, 30.0)


def test_criterion_06_neighborhood_of_k4():
    started = time.perf_counter()
    failures = []
    k4 = SimpleGraph(
        ("a", "b", "c", "d"),
        (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    )
    if not are_isomorphic(neighborhood_graph(k4), triangular(4)).isomorphic:
        failures.append("neighborhood graph of K4 is not the triangular circular graph")
    _finish(6, "neighborhood of K4 is triangular(4)", failures, started, 1.0)


def test_criterion_07_pivot_deletion_yields_linear():
    started = time.perf_counter()
    failures = []
    for n in range(4, 9):
        g = triangular(n)
        for pivot in g.part_u:
            derived = derive_linear(g, pivot)
            if check_linear_axioms(derived).status is not CheckStatus.PASS:
                failures.append(f"pivot {pivot} of triangular({n}) is not linear")
    c6 = SimpleGraph(
        ("c1", "c2", "c3", "c4", "c5", "c6"),
        (("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5"), ("c5", "c6"), ("c1", "c6")),
    )
    if not are_isomorphic(as_simple(derive_linear(triangular(4), "1")), c6).isomorphic:
        failures.append("pivot deletion on triangular(4) is not the 6-cycle")
    _finish(7, "pivot deletion yields linear graphs", failures, started, 5.0)


def test_criterion_08_census_ground_truth():
    started = time.perf_counter()
    failures = []
    expected_non_trivial = {3: 0, 4: 1, 5: 2}
    for u, want in expected_non_trivial.items():
        entries = enumerate_circular(u)
        got = sum(1 for e in entries if e.verdict is Verdict.NON_TRIVIAL_CIRCULAR)
        if got != want:
            failures.append(f"u={u}: {got} non-trivial classes, expected {want}")
        for entry in entries:
            if brute_force_classify(entry.graph) != classify(entry.graph):
                failures.append(f"oracle disagrees on a census entry at u={u}")
        if u == 4:
            non_trivial = [e for e in entries if e.verdict is Verdict.NON_TRIVIAL_CIRCULAR]
            if not are_isomorphic(non_trivial[0].graph, triangular(4), respect_parts=True).isomorphic:
                failures.append("the u=4 non-trivial class is not triangular(4)")
    _finish(8, "census class counts", failures, started, 60.0)


def test_criterion_09_differential_oracle():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20260808)
    for i in range(1000):
        g = random_bipartite(rng)
        if classify(g) != brute_force_classify(g):
            failures.append(f"disagreement on random graph #{i}")
    for u in (3, 4, 5):
        for entry in enumerate_circular(u):
            if classify(entry.graph) != brute_force_classify(entry.graph):
                failures.append(f"disagreement on census entry at u={u}")
    for entry in enumerate_circular_trees(9):
        if classify(entry.graph) != brute_force_classify(entry.graph):
            failures.append("disagreement on a tree census entry")
    _finish(9, "recognizer agrees with the naive oracle", failures, started, 60.0)


def test_criterion_10_determinism():
    import io
    import sys

    from circgraph.cli import main

    started = time.perf_counter()
    failures = []
    corpus = [star(n) for n in range(4, 9)]
    corpus += [triangular(n) for n in range(4, 8)]
    corpus += [e.graph for u in (3, 4, 5) for e in enumerate_circular(u)]
    corpus += [e.graph for e in enumerate_circular_trees(6)]
    k4 = SimpleGraph(
        ("a", "b", "c", "d"),
        (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    )
    corpus.append(neighborhood_graph(k4))
    rng = random.Random(1234)
    for g in corpus:
        base = canonical_form(as_simple(g)).key
        for _ in range(100):
            h, _ = relabeled(as_simple(g), rng)
            if canonical_form(h).key != base:
                failures.append(f"canonical form varies under relabeling ({base[0]} vertices)")
                break

    def cli_export(text):
        old_in, old_out = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        try:
            code = main(["export", "--format", "json", "-"])
            return code, sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = old_in, old_out

    for g in corpus:
        text1 = dumps_obj(payload_to_obj(g))
        if dumps_obj(payload_to_obj(parse_payload(text1))) != text1:
            failures.append("JSON round-trip is not byte-identical")
            break
    for g in (triangular(5), star(6)):
        code1, out1 = cli_export(dumps_obj(payload_to_obj(g)))
        code2, out2 = cli_export(out1)
        if code1 != 0 or code2 != 0 or out1 != out2:
            failures.append("CLI export round-trip is not byte-identical")
    first = enumerate_circular(5)
    second = enumerate_circular(5)
    if [e.graph for e in first] != [e.graph for e in second] or [
        e.canonical.key for e in first
    ] != [e.canonical.key for e in second]:
        failures.append("census differs between two runs")
    _finish(10, "determinism of forms, files, and censuses", failures, started, 120.0)
