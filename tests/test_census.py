"""Exhaustive enumeration: circular censuses, circular trees, oracle agreement."""

import random

import pytest
from hypothesis import given, settings

from circgraph import census, circular
from circgraph.canonical import are_isomorphic
from circgraph.census import (
    enumerate_circular,
    enumerate_circular_trees,
    free_trees,
)
from circgraph.circular import CheckStatus, Verdict, classify, run_all_checks
from circgraph.constructions import neighborhood_graph, star, triangular
from circgraph.graphs import GraphError, disjoint_union, metric_summary

from helpers import brute_force_classify, dumb_circular_families, random_bipartite
from strategies import bipartite_graphs

# Known free-tree counts, the independent anchor for the generator.
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47]


class TestCircularCensus:
    def test_u3_single_trivial_entry(self):
        entries = enumerate_circular(3)
        assert len(entries) == 1
        (entry,) = entries
        assert entry.verdict is Verdict.TRIVIAL_CIRCULAR
        assert (entry.u_size, entry.w_size) == (3, 1)

    def test_u4_two_entries(self):
        entries = enumerate_circular(4)
        assert [e.verdict for e in entries].count(Verdict.NON_TRIVIAL_CIRCULAR) == 1
        assert len(entries) == 2
        non_trivial = next(e for e in entries if e.verdict is Verdict.NON_TRIVIAL_CIRCULAR)
        assert are_isomorphic(non_trivial.graph, triangular(4), respect_parts=True).isomorphic

    def test_u5_three_entries(self):
        entries = enumerate_circular(5)
        assert len(entries) == 3
        assert sorted(e.w_size for e in entries) == [1, 7, 10]
        verdicts = [e.verdict for e in entries]
        assert verdicts.count(Verdict.NON_TRIVIAL_CIRCULAR) == 2
        biggest = next(e for e in entries if e.w_size == 10)
        assert are_isomorphic(biggest.graph, triangular(5), respect_parts=True).isomorphic

    @pytest.mark.parametrize("u_size", [3, 4, 5])
    def test_matches_powerset_filter(self, u_size):
        expected = dumb_circular_families(u_size)
        entries = enumerate_circular(u_size)
        # Regenerate the labeled families behind the census by brute force and
        # compare class-by-class: every dumb family must be isomorphic to
        # exactly one census entry.
        from circgraph.constructions import Design, from_design
        from circgraph.canonical import canonical_form

        points = tuple(str(i + 1) for i in range(u_size))
        keys = set()
        for family in expected:
            blocks = tuple(tuple(points[i] for i in b) for b in family)
            g = from_design(Design(points, blocks))
            keys.add(canonical_form(g, respect_parts=True).key)
        assert keys == {e.canonical.key for e in entries}

    def test_guard_rejected(self):
        with pytest.raises(GraphError):
            enumerate_circular(2)
        with pytest.raises(GraphError):
            enumerate_circular(8)

    @pytest.mark.parametrize("u_size", [3, 4, 5, 6])
    def test_entries_validate_and_pass_all_checks(self, u_size):
        entries = enumerate_circular(u_size)
        keys = [e.canonical.key for e in entries]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        for entry in entries:
            cls = classify(entry.graph)
            assert cls.verdict is entry.verdict
            assert brute_force_classify(entry.graph) == cls
            for report in run_all_checks(entry.graph):
                assert report.status is not CheckStatus.FAIL
            summary = metric_summary(entry.graph)
            assert summary.connected
            assert (summary.diameter, summary.radius) == (entry.diameter, entry.radius)

    def test_invariant_summaries(self):
        entries = enumerate_circular(4)
        tri = next(e for e in entries if e.verdict is Verdict.NON_TRIVIAL_CIRCULAR)
        assert tri.u_degrees == (3, 3, 3, 3)
        assert tri.w_degrees == (3, 3, 3, 3)
        assert (tri.diameter, tri.radius) == (3, 3)

    def test_repeat_determinism(self):
        first = enumerate_circular(4)
        second = enumerate_circular(4)
        assert [e.graph for e in first] == [e.graph for e in second]

    def test_doubling_holds_across_census(self):
        for entry in enumerate_circular(5):
            g = entry.graph
            assert are_isomorphic(neighborhood_graph(g), disjoint_union(g, g)).isomorphic

    def test_doubling_holds_at_u6(self):
        for entry in enumerate_circular(6):
            g = entry.graph
            cert = are_isomorphic(neighborhood_graph(g), disjoint_union(g, g))
            assert cert.isomorphic

    def test_only_class_winners_are_described(self, monkeypatch):
        calls = {"from_design": 0, "classify": 0, "metric_summary": 0}
        for name in calls:

            def counting(*args, _name=name, _real=getattr(census, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(census, name, counting)
        enumerate_circular(5)
        # 7 labeled families fall into 3 classes.
        assert calls == {"from_design": 7, "classify": 3, "metric_summary": 3}


class TestCircularTrees:
    def test_max4_star_only(self):
        entries = enumerate_circular_trees(4)
        assert len(entries) == 1
        assert (entries[0].u_size, entries[0].w_size) == (3, 1)
        assert entries[0].verdict is Verdict.TRIVIAL_CIRCULAR

    def test_max9_exactly_the_stars(self):
        entries = enumerate_circular_trees(9)
        assert [(e.u_size, e.w_size) for e in entries] == [(m, 1) for m in range(3, 9)]
        assert all(e.verdict is Verdict.TRIVIAL_CIRCULAR for e in entries)
        for m, entry in zip(range(4, 10), entries):
            assert are_isomorphic(entry.graph, star(m)).isomorphic

    def test_each_orientation_classified_once(self, monkeypatch):
        # The 7 class winners reuse the verdict their orientation got.
        calls = []
        real = circular._classify
        monkeypatch.setattr(
            circular, "_classify", lambda g, idx: calls.append(g) or real(g, idx)
        )
        enumerate_circular_trees(10)
        assert len(calls) == 402

    def test_max2_empty(self):
        assert enumerate_circular_trees(2) == ()

    def test_guard_rejected(self):
        with pytest.raises(GraphError):
            enumerate_circular_trees(0)
        with pytest.raises(GraphError):
            enumerate_circular_trees(11)

    def test_free_tree_counts_match_the_known_sequence(self):
        assert [len(free_trees(n)) for n in range(1, 10)] == FREE_TREE_COUNTS

    def test_free_trees_are_trees(self):
        for n in range(1, 8):
            for t in free_trees(n):
                assert len(t.vertices) == n
                assert len(t.edges) == n - 1


class TestBruteForceOracle:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_agrees_on_triangular(self, n):
        g = triangular(n)
        assert brute_force_classify(g) == classify(g)

    def test_agrees_on_seeded_random_graphs(self):
        rng = random.Random(424242)
        for _ in range(300):
            g = random_bipartite(rng)
            assert brute_force_classify(g) == classify(g)

    @settings(max_examples=80)
    @given(bipartite_graphs())
    def test_agrees_on_generated_graphs(self, g):
        assert brute_force_classify(g) == classify(g)

    def test_agrees_on_tree_census(self):
        for entry in enumerate_circular_trees(7):
            assert brute_force_classify(entry.graph) == classify(entry.graph)


@pytest.mark.slow
class TestLargestGuardedCensus:
    def test_u7_smoke(self):
        entries = enumerate_circular(7)
        keys = [e.canonical.key for e in entries]
        assert len(set(keys)) == len(keys)
        assert any(e.w_size == 1 for e in entries)
        assert any(
            are_isomorphic(e.graph, triangular(7), respect_parts=True).isomorphic
            for e in entries
            if e.w_size == 35
        )
        for entry in entries:
            assert brute_force_classify(entry.graph).verdict is entry.verdict
