"""Tests of the benchmark's own generators, oracle and span arithmetic.

Run with: python -m pytest bench
None of these import circgraph; the census counts pinned in workloads.py
are confirmed here by a naive enumeration of the benchmark's own.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations

import networkx as nx
import pytest

import corpus
import oracle
import spans
import workloads
from run import op_latency


def covers_every_triple_once(d: corpus.Design) -> bool:
    counts = oracle.triple_counts(d.blocks)
    return all(counts.get(t, 0) == 1 for t in combinations(range(d.points), 3))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_inversive_plane_is_a_steiner_system(q):
    d = corpus.inversive_plane(q)
    assert d.points == q * q + 1
    assert len(d.blocks) == q * (q * q + 1)
    assert {len(b) for b in d.blocks} == {q + 1}
    assert len(set(d.blocks)) == len(d.blocks)
    assert covers_every_triple_once(d)


def test_sqs8_is_a_steiner_quadruple_system():
    d = corpus.sqs8()
    assert (d.points, len(d.blocks), {len(b) for b in d.blocks}) == (8, 14, {4})
    assert covers_every_triple_once(d)


def test_field_arithmetic_of_gf64():
    f = corpus.Field(2, 6)
    assert all(f.mul[a][f.inv[a]] == 1 for a in range(1, 64))
    assert all(f.add[a][f.neg[a]] == 0 for a in range(64))
    assert all(f.power(a, 63) == 1 for a in range(1, 64))


def labeled(d: corpus.Design, fmt="bigraph-v1", seed=0) -> corpus.LabeledDesign:
    return corpus.label_design(d, random.Random(seed), fmt)


@pytest.mark.parametrize("fmt", ["bigraph-v1", "design-v1"])
def test_bases_are_circular_and_perturbations_are_not(fmt):
    rng = random.Random(7)
    for d in (corpus.inversive_plane(3), corpus.sqs8(), corpus.triangular(6), corpus.star(5)):
        verdict = oracle.classification(*labeled(d, fmt)[1:])["verdict"]
        assert verdict == ("TrivialCircular" if len(d.blocks) == 1 else "NonTrivialCircular")
        for _ in range(20):
            _, bad = corpus.perturb(d, rng, keep_size_3=fmt == "design-v1")
            if fmt == "design-v1":
                assert min(len(b) for b in bad.blocks) >= 3
            assert oracle.classification(*labeled(bad, fmt)[1:])["verdict"] == "NotCircular"


def test_witness_is_the_first_violation_in_label_order():
    ld = corpus.LabeledDesign("bigraph-v1", ("a", "b", "c", "d"),
                              (("w1", ("a", "b", "c")), ("w2", ("a", "b", "c", "d"))))
    assert oracle.classification(ld.points, ld.circles)["witness"] == {
        "kind": "TripleOvercovered", "vertices": ["a", "b", "c"], "detail": 2}
    ld = ld._replace(circles=(("w1", ("a", "b")), ("w0", ("a", "c", "d"))))
    assert oracle.classification(ld.points, ld.circles)["witness"] == {
        "kind": "CircleDegreeTooSmall", "vertices": ["w1"], "detail": 2}


def test_edge_switch_keeps_degrees_and_breaks_isomorphism():
    d = corpus.triangular(8)
    switched = corpus.edge_switch(d, random.Random(3))
    assert sorted(map(len, switched.blocks)) == sorted(map(len, d.blocks))
    g1 = oracle.file_graph(labeled(d).to_obj())
    g2 = oracle.file_graph(labeled(switched, seed=1).to_obj())
    assert oracle.pair_profile(g1) != oracle.pair_profile(g2)
    assert oracle.pair_profile(g1) == oracle.pair_profile(oracle.file_graph(labeled(d, seed=2).to_obj()))


def test_shrikhande_and_rook_are_cospectral_strangers():
    for n, edges in (corpus.shrikhande(), corpus.rook4()):
        g = nx.Graph(edges)
        assert (n, g.number_of_edges(), {deg for _, deg in g.degree}) == (16, 48, {6})
    assert not nx.is_isomorphic(nx.Graph(corpus.shrikhande()[1]), nx.Graph(corpus.rook4()[1]))


def test_doubling_pair_is_isomorphic():
    nbhd, (n, union) = corpus.doubling_pair(corpus.triangular(5))
    g1 = oracle.file_graph(labeled(nbhd).to_obj())
    assert nx.is_isomorphic(g1, nx.Graph(union))


def test_replay_rejects_a_wrong_mapping():
    g1 = oracle.file_graph({"format": "graph-v1", "vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
    g2 = oracle.file_graph({"format": "graph-v1", "vertices": ["x", "y", "z"], "edges": [["y", "z"]]})
    assert oracle.replay_mapping({"a": "y", "b": "z", "c": "x"}, g1, g2, False) is None
    assert oracle.replay_mapping({"a": "x", "b": "z", "c": "y"}, g1, g2, False)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plans_are_seeded_and_never_repeat_a_graph(tmp_path, name):
    def build(seed, sub):
        (tmp_path / sub).mkdir()
        plan = workloads.Plan(tmp_path, tmp_path / sub)
        workloads.BUILDERS[name](plan, random.Random(seed))
        return [p.read_text() for p in sorted((tmp_path / sub).iterdir())], plan

    first, plan = build(1, "a")
    again, _ = build(1, "b")
    other, _ = build(2, "c")
    assert first == again
    if name == "census":  # no input files; the census has no seed to follow
        return
    assert first != other
    with pytest.raises(AssertionError, match="repeats the graph"):
        plan.write("repeat", json.loads(first[0]))


def test_tail_is_the_highest_percentile_with_ten_operations_above():
    one_pass = [float(i) for i in range(1, 41)]
    assert op_latency([one_pass]) == (20.5, 30.25, 75.0)
    assert op_latency([one_pass, one_pass]) == (20.5, 30.25, 75.0)
    # Each figure is the mean of the passes' own figures.
    slower = [2 * ms for ms in one_pass]
    assert op_latency([one_pass, slower]) == (30.75, 45.375, 75.0)
    with pytest.raises(ValueError):
        op_latency([[3.0, 1.0], [5.0, 2.0]])


def test_self_time_subtracts_direct_children():
    ms = 1_000_000
    trace = [
        ["cli", 0, 100 * ms, -1, None],
        ["canonical.are_isomorphic", 10 * ms, 90 * ms, 0, None],
        ["canonical.canonical_form", 10 * ms, 40 * ms, 1, None],
        ["canonical.canonical_form", 40 * ms, 85 * ms, 1, None],
    ]
    m = spans.layer_metrics(trace, bytes_out=12)
    assert m["cli.self_ms"] == 20.0
    assert m["canonical.replay.ms"] == 5.0
    assert (m["canonical.canonical_form.ms"], m["canonical.canonical_form.calls"]) == (75.0, 2)
    assert m["canonical.canonical_form.max_ms"] == 45.0


def test_groups_add_totals_and_keep_the_longest_span():
    first = {"canonical.canonical_form.ms": 10.0, "canonical.canonical_form.max_ms": 6.0}
    second = {"canonical.canonical_form.ms": 2.0, "canonical.canonical_form.max_ms": 1.5}
    assert spans.combine_groups([first, second]) == {
        "canonical.canonical_form.ms": 12.0, "canonical.canonical_form.max_ms": 6.0}


# --- the pinned census counts, by naive enumeration ----------------------


def count_orbits(families, points) -> int:
    """Isomorphism classes of labeled families: the orbits of the point
    permutations, each found by applying every permutation to one member."""
    remaining = {frozenset(map(frozenset, fam)) for fam in families}
    orbits = 0
    while remaining:
        fam = remaining.pop()
        orbits += 1
        for image in permutations(points):
            remaining.discard(frozenset(frozenset(image[x] for x in b) for b in fam))
    return orbits


def test_circular_census_has_the_pinned_class_count():
    u = workloads.CENSUS_U
    blocks = [frozenset(c) for k in range(3, u + 1) for c in combinations(range(u), k)]
    inside = {b: frozenset(combinations(sorted(b), 3)) for b in blocks}
    families: list[list[frozenset]] = []

    def extend(uncovered: frozenset, chosen: list) -> None:
        if not uncovered:
            families.append(chosen[:])
            return
        first = min(uncovered)
        for b in blocks:
            if first in inside[b] and inside[b] <= uncovered:
                chosen.append(b)
                extend(uncovered - inside[b], chosen)
                chosen.pop()

    extend(frozenset(combinations(range(u), 3)), [])
    assert count_orbits(families, range(u)) == workloads.CENSUS_CLASSES


def test_tree_census_up_to_10_has_7_entries():
    found = []  # (points, blocks) of every circular orientation of every free tree
    for n in range(2, workloads.TREES_MAX + 1):
        for tree in nx.nonisomorphic_trees(n):
            sides = nx.bipartite.sets(tree)
            for points, circles in (sides, sides[::-1]):
                named = [(f"w{c}", tuple(str(x) for x in tree[c])) for c in circles]
                pts = [str(p) for p in points]
                if oracle.classification(pts, named)["verdict"] != "NotCircular":
                    found.append((pts, [b for _, b in named]))
    classes: list = []
    for pts, blocks in found:
        if not any(oracle.design_isomorphic(pts, blocks, p, b) for p, b in classes):
            classes.append((pts, blocks))
    assert len(classes) == workloads.TREE_ENTRIES
