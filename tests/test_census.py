"""Exhaustive enumeration: circular censuses, circular trees, oracle agreement."""

import hashlib
import json
import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings

from circgraph import census, circular
from circgraph.canonical import are_isomorphic, canonical_form
from circgraph.census import enumerate_circular, enumerate_circular_trees
from circgraph.circular import CheckStatus, Verdict, classify, run_all_checks
from circgraph.cli import main
from circgraph.constructions import Design, neighborhood_graph, star, triangular
from circgraph.fileio import coerce_bipartite, parse_payload
from circgraph.graphs import BipartiteGraph, GraphError, disjoint_union, metric_summary

from helpers import (
    brute_force_circular_trees,
    brute_force_classify,
    dumb_circular_families,
    free_trees,
    random_bipartite,
)
from strategies import bipartite_graphs

# Known free-tree counts, the independent anchor for the generator.
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


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
        calls = {"from_design": 0, "canonical_form": 0, "classify": 0, "metric_summary": 0}
        for name in calls:

            def counting(*args, _name=name, _real=getattr(census, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(census, name, counting)
        enumerate_circular(5)
        # 7 labeled families fall into 3 orbits; only their winners are built.
        assert calls == {"from_design": 3, "canonical_form": 3, "classify": 3, "metric_summary": 3}


def entry_blocks(entry):
    """The entry's blocks as sorted tuples of point labels, in sorted order."""
    g = entry.graph
    return tuple(sorted(tuple(sorted(g.neighbors(w))) for w in g.part_w))


def relabelings(entry):
    """The entry's block set under each of the u! point permutations."""
    points = entry.graph.part_u
    for image in permutations(points):
        to = dict(zip(points, image))
        yield tuple(sorted(tuple(sorted(to[p] for p in b)) for b in entry_blocks(entry)))


class TestOrbitStage:
    """Brute-force oracles for the orbit table: each class keeps the least of
    its point relabelings, and the classes' orbits add up to the labeled
    families."""

    LABELED = {3: 1, 4: 2, 5: 7, 6: 83}

    @pytest.mark.parametrize("u_size", [3, 4, 5, 6])
    def test_each_entry_is_its_least_relabeling(self, u_size):
        for entry in enumerate_circular(u_size):
            assert entry_blocks(entry) == min(relabelings(entry))

    @pytest.mark.parametrize("u_size", [3, 4, 5, 6])
    def test_orbit_sizes_sum_to_the_labeled_count(self, u_size):
        total = 0
        for entry in enumerate_circular(u_size):
            aut = sum(1 for image in relabelings(entry) if image == entry_blocks(entry))
            assert factorial(u_size) % aut == 0
            total += factorial(u_size) // aut
        assert total == self.LABELED[u_size]
        if u_size <= 5:
            assert total == len(dumb_circular_families(u_size))


class TestCensusGate:
    """The orbit table must hold exactly the families the exact cover
    yielded, so a family dropped from an orbit the cover still reaches, or
    one yielded twice, raises. The gate cannot see a class lost whole, such
    as the star, which is alone in its orbit: only `test_matches_powerset_filter`
    catches that."""

    @staticmethod
    def drop_second(designs):
        # The first family at u = 5 is all ten triples, alone in its orbit,
        # so dropping it would lose a class whole. The second lies in an
        # orbit of five, whose other four the cover still yields.
        yield next(designs)
        next(designs)
        yield from designs

    @staticmethod
    def repeat_first(designs):
        first = next(designs)
        yield first
        yield first
        yield from designs

    @pytest.fixture(params=["drop_second", "repeat_first"])
    def broken_cover(self, request, monkeypatch):
        real, alter = census._designs, getattr(self, request.param)
        monkeypatch.setattr(census, "_designs", lambda points: alter(real(points)))

    def test_enumeration_raises(self, broken_cover):
        with pytest.raises(RuntimeError, match="census gate"):
            enumerate_circular(5)

    def test_cli_exits_three_with_nothing_on_stdout(self, capsys, broken_cover):
        assert main(["enum", "circular", "--u", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: RuntimeError: census gate")


class TestNonCircularGuard:
    """Every class winner is re-validated: a non-circular family from the
    exact cover raises instead of entering the census."""

    @staticmethod
    def add_non_circular_family(monkeypatch):
        real = census._designs

        def designs(points):
            yield from real(points)
            yield Design(points, (points[:3],))

        monkeypatch.setattr(census, "_designs", designs)

    def test_enumeration_raises(self, monkeypatch):
        self.add_non_circular_family(monkeypatch)
        with pytest.raises(RuntimeError, match="non-circular graph"):
            enumerate_circular(4)

    def test_cli_exits_three_with_nothing_on_stdout(self, capsys, monkeypatch):
        self.add_non_circular_family(monkeypatch)
        assert main(["enum", "circular", "--u", "4"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: RuntimeError: enumeration produced")


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

    @pytest.mark.parametrize("max_n", range(1, 11))
    def test_matches_brute_force(self, max_n):
        # The oracle classifies both orientations of every free tree.
        def fields(e):
            return (e.graph, e.canonical.key, e.verdict, e.diameter, e.radius, e.u_degrees, e.w_degrees)

        got = [fields(e) for e in enumerate_circular_trees(max_n)]
        assert got == [fields(e) for e in brute_force_circular_trees(max_n)]

    def test_each_star_classified_once(self, monkeypatch):
        calls = []
        real = circular._classify
        monkeypatch.setattr(
            circular, "_classify", lambda g, idx: calls.append(g) or real(g, idx)
        )
        enumerate_circular_trees(10)
        assert len(calls) == 7

    def test_max2_empty(self):
        assert enumerate_circular_trees(2) == ()

    def test_guard_rejected(self):
        with pytest.raises(GraphError):
            enumerate_circular_trees(0)
        with pytest.raises(GraphError):
            enumerate_circular_trees(11)

    def test_free_tree_counts_match_the_known_sequence(self):
        assert [len(free_trees(n)) for n in range(1, len(FREE_TREE_COUNTS) + 1)] == FREE_TREE_COUNTS

    def test_free_trees_guard_rejected(self):
        with pytest.raises(GraphError, match="between 1 and 12: got 0"):
            free_trees(0)
        with pytest.raises(GraphError, match="between 1 and 12: got 13"):
            free_trees(13)

    def test_free_trees_are_trees(self):
        for n in range(1, 8):
            for t in free_trees(n):
                assert len(t.vertices) == n
                assert len(t.edges) == n - 1


class TestWinners:
    """The class rule shared by both censuses and the test oracle
    `helpers.brute_force_circular_trees`: each candidate stands for its own
    class, and the winners come in canonical-key order."""

    @staticmethod
    def star(centre, leaves):
        """K1,m with the leaves as points and the centre as the circle."""
        return BipartiteGraph(tuple(leaves), (centre,), tuple((v, centre) for v in leaves))

    def test_one_key_twice_raises(self):
        edge, path = self.star("b", "a"), self.star("b", "ac")
        square = BipartiteGraph(
            ("a", "c"), ("b", "d"), (("a", "b"), ("c", "b"), ("c", "d"), ("a", "d"))
        )
        winners = census._winners([square, edge, path])
        assert [g for g, _ in winners] == sorted(
            [edge, path, square], key=lambda g: canonical_form(g, respect_parts=True).key
        )
        for g, form in winners:
            assert form.key == canonical_form(g, respect_parts=True).key
        with pytest.raises(RuntimeError, match="share a class"):
            census._winners([square, edge, path, self.star("a", "cb")])

    def test_respect_parts_separates_the_orientations(self):
        # K_{1,2} with the centre as the point, and with the centre as the circle.
        one_point = BipartiteGraph(("c",), ("l1", "l2"), (("c", "l1"), ("c", "l2")))
        two_points = BipartiteGraph(("l1", "l2"), ("c",), (("c", "l1"), ("c", "l2")))
        parted = census._winners([one_point, two_points])
        assert {g for g, _ in parted} == {one_point, two_points}
        assert [form.key for _, form in parted] == sorted(
            canonical_form(g, respect_parts=True).key for g in (one_point, two_points)
        )


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


class TestLargestGuardedCensus:
    # sha256 of the exact stdout of `enum circular --u 7`.
    U7_SHA256 = "9323c274d61e94b47179445096176dc67db9cc8329f5bc69c91dff8c932a8247"

    def test_u7_smoke(self, capsys):
        # One census run: the pinned stdout, then the entries rebuilt from it.
        assert main(["enum", "circular", "--u", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.U7_SHA256
        entries = json.loads(out)["census"]
        assert len(entries) == 19
        keys = [tuple(sorted(e["canonical"].items())) for e in entries]
        assert len(set(keys)) == len(keys)
        assert any(e["w_size"] == 1 for e in entries)
        graphs = [coerce_bipartite(parse_payload(json.dumps(e["graph"]))) for e in entries]
        assert any(
            are_isomorphic(g, triangular(7), respect_parts=True).isomorphic
            for g, e in zip(graphs, entries)
            if e["w_size"] == 35
        )
        for g, e in zip(graphs, entries):
            assert brute_force_classify(g).verdict is Verdict(e["verdict"])
