"""Classification and the structural check suite."""

import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings

from circgraph import circular, graphs
from circgraph.circular import (
    CheckStatus,
    CircularClassification,
    Verdict,
    ViolationKind,
    check_linear_axioms,
    classify,
    run_all_checks,
    verify_distance_profile,
    verify_metric_bounds,
    verify_point_degrees,
    verify_w_pair_bound,
)
from circgraph.graphs import UNREACHABLE, BipartiteGraph, common_neighbors
from circgraph.census import enumerate_circular
from circgraph.constructions import derive_linear, star, triangular

from helpers import (
    PERTURBATIONS,
    brute_force_classify,
    oracle_bfs,
    oracle_distance,
    perturbed,
    random_bipartite,
    relabeled,
)
from strategies import bipartite_graphs


def k_uw(nu, nw):
    """Complete bipartite graph with nu points and nw circles."""
    us = tuple(f"u{i}" for i in range(1, nu + 1))
    ws = tuple(f"w{i}" for i in range(1, nw + 1))
    return BipartiteGraph(us, ws, tuple((u, w) for u in us for w in ws))


def six_cycle_bipartite():
    us = ("u1", "u2", "u3")
    ws = ("w1", "w2", "w3")
    edges = (("u1", "w1"), ("u2", "w1"), ("u2", "w2"), ("u3", "w2"), ("u3", "w3"), ("u1", "w3"))
    return BipartiteGraph(us, ws, edges)


def p4_bipartite():
    return BipartiteGraph(("a", "c"), ("b", "d"), (("a", "b"), ("c", "b"), ("c", "d")))


def fresh(g):
    """An equal graph value with its own index, so nothing is cached on it."""
    return BipartiteGraph(g.part_u, g.part_w, g.edges)


def circular_corpus():
    """Circular graphs of every shape the census knows: the triangular
    family, stars, and every census class for 3 to 6 points."""
    graphs = [triangular(n) for n in range(3, 9)]
    graphs += [star(n) for n in (4, 5, 6, 10, 21)]
    for u in range(3, 7):
        graphs += [fresh(entry.graph) for entry in enumerate_circular(u)]
    return graphs


def raw_w_pair_evidence(g):
    """`w_pair_bound` evidence by a raw loop over circle pairs in label order."""
    max_cn, max_pair = 0, None
    for w1, w2 in combinations(g.part_w, 2):
        c = len(g.neighbors(w1) & g.neighbors(w2))
        if c > max_cn:
            max_cn, max_pair = c, (w1, w2)
    evidence = {"max_cn": max_cn, "pair_count": len(g.part_w) * (len(g.part_w) - 1) // 2}
    if max_pair is not None:
        evidence["max_pair"] = max_pair
    return evidence


def raw_first_unmet(g, t):
    """The first t-set of points in label order not on exactly one circle, by
    a raw loop with a running count: (its rank, the set, its circle count),
    or (the number of sets, None, None) when every set passes."""
    count = 0
    for points in combinations(g.part_u, t):
        count += 1
        c = len(frozenset.intersection(*(g.neighbors(p) for p in points)))
        if c != 1:
            return count, points, c
    return count, None, None


def perturbed_copies(graphs):
    """Each graph with every seeded perturbation of it (seeds 1 to 3)."""
    out = list(graphs)
    for g in graphs:
        for seed in (1, 2, 3):
            for kind in PERTURBATIONS:
                h = perturbed(g, random.Random(seed), kind)
                if h is not None:
                    out.append(h)
    return out


def unmet_corpus():
    """Circular graphs, the linear graphs derived from triangular(5..8) at
    every pivot, and seeded perturbations of both."""
    graphs = [triangular(n) for n in range(4, 9)]
    graphs += [star(n) for n in (4, 5, 6, 10, 21)]
    for u in range(3, 7):
        graphs += [fresh(entry.graph) for entry in enumerate_circular(u)]
    for n in range(5, 9):
        g = triangular(n)
        graphs += [derive_linear(g, p) for p in g.part_u]
    return perturbed_copies(graphs)


class TestClassify:
    def test_star_is_trivial(self):
        cls = classify(star(5))
        assert cls.verdict is Verdict.TRIVIAL_CIRCULAR
        assert cls.witness is None

    def test_triangular_is_non_trivial(self):
        cls = classify(triangular(4))
        assert cls.verdict is Verdict.NON_TRIVIAL_CIRCULAR

    def test_k32_overcovered_triple(self):
        cls = classify(k_uw(3, 2))
        assert cls.verdict is Verdict.NOT_CIRCULAR
        assert cls.witness.kind is ViolationKind.TRIPLE_OVERCOVERED
        assert cls.witness.vertices == ("u1", "u2", "u3")
        assert cls.witness.detail == 2

    def test_six_cycle_degree_witness(self):
        cls = classify(six_cycle_bipartite())
        assert cls.verdict is Verdict.NOT_CIRCULAR
        assert cls.witness.kind is ViolationKind.CIRCLE_DEGREE_TOO_SMALL
        assert cls.witness.detail == 2

    def test_uncovered_triple(self):
        g = BipartiteGraph(("a", "b", "c", "d"), ("x",), (("a", "x"), ("b", "x"), ("c", "x")))
        cls = classify(g)
        assert cls.witness.kind is ViolationKind.TRIPLE_UNCOVERED
        assert cls.witness.vertices == ("a", "b", "d")

    def test_single_point_flagged(self):
        g = BipartiteGraph(("a",), ("x",), (("a", "x"),))
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_CIRCULAR
        assert cls.triple_axiom_vacuous
        assert "single point" in cls.note

    def test_empty_parts_ruled_out(self):
        cls = classify(BipartiteGraph((), (), ()))
        assert cls.verdict is Verdict.NOT_CIRCULAR
        assert cls.witness.kind is ViolationKind.PART_ERROR

    def test_star_with_center_among_points_not_circular(self):
        g = BipartiteGraph(("c",), ("l1", "l2", "l3"), (("c", "l1"), ("c", "l2"), ("c", "l3")))
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_CIRCULAR
        assert cls.witness.kind is ViolationKind.CIRCLE_DEGREE_TOO_SMALL

    @settings(max_examples=80)
    @given(bipartite_graphs())
    def test_witness_replays(self, g):
        cls = classify(g)
        if cls.witness is None or cls.witness.kind is ViolationKind.PART_ERROR:
            return
        if cls.witness.kind is ViolationKind.CIRCLE_DEGREE_TOO_SMALL:
            (w,) = cls.witness.vertices
            assert g.degree(w) == cls.witness.detail
        else:
            assert len(common_neighbors(g, cls.witness.vertices)) == cls.witness.detail

    @settings(max_examples=60)
    @given(bipartite_graphs())
    def test_invariant_under_relabeling(self, g):
        h, _ = relabeled(g, random.Random(7))
        assert classify(h).verdict is classify(g).verdict

    @settings(max_examples=40)
    @given(bipartite_graphs())
    def test_invariant_under_edge_permutation(self, g):
        shuffled = list(g.edges)
        random.Random(11).shuffle(shuffled)
        h = BipartiteGraph(g.part_u, g.part_w, tuple(shuffled))
        assert classify(h) == classify(g)


class TestCountingIdentity:
    """`classify` decides circular inputs by the identity sum C(deg, 3) =
    C(u, 3) with no two circles sharing three points, and scans triples only
    for a witness. Random graphs almost never satisfy the count, so these
    inputs are circular graphs and small perturbations of them."""

    def test_agrees_with_brute_force_on_circular_graphs(self):
        for g in circular_corpus():
            assert classify(g).is_circular
            assert brute_force_classify(g) == classify(g)

    @pytest.mark.parametrize("kind", PERTURBATIONS)
    def test_agrees_with_brute_force_on_perturbations(self, kind):
        rng = random.Random(f"counting-{kind}")
        tried = 0
        for g in circular_corpus():
            for _ in range(3):
                h = perturbed(g, rng, kind)
                if h is not None:
                    tried += 1
                    assert brute_force_classify(h) == classify(h)
        assert tried >= 30

    def test_count_matches_but_two_circles_share_three_points(self):
        # Four circles of three points on four points: the count is C(4, 3),
        # but a and b are one triple twice and the triple 2, 3, 4 is uncovered.
        circles = {"a": "123", "b": "123", "c": "124", "d": "134"}
        edges = tuple((p, w) for w, ps in circles.items() for p in ps)
        g = BipartiteGraph(("1", "2", "3", "4"), tuple(circles), edges)
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_CIRCULAR
        assert cls.witness.kind is ViolationKind.TRIPLE_OVERCOVERED
        assert cls.witness.vertices == ("1", "2", "3")
        assert cls.witness.detail == 2
        assert brute_force_classify(g) == cls

    def test_circular_inputs_never_scan_triples(self, monkeypatch):
        def scan(idx, t):
            raise AssertionError("triple scan on a circular input")

        monkeypatch.setattr(circular, "_first_unmet", scan)
        graphs = [triangular(9), star(60)]
        graphs += [fresh(entry.graph) for entry in enumerate_circular(6)]
        for g in graphs:
            assert classify(g).is_circular
        # The patch is live: an input failing the count reaches the scan.
        with pytest.raises(AssertionError, match="triple scan"):
            classify(k_uw(3, 2))


def assert_triple_witness_is_first_unmet(g):
    cls = classify(g)
    if cls.witness is not None and cls.witness.kind in (
        ViolationKind.CIRCLE_DEGREE_TOO_SMALL,
        ViolationKind.PART_ERROR,
    ):
        return
    _, triple, c = raw_first_unmet(g, 3)
    if triple is None:
        assert cls.witness is None
        return
    kind = ViolationKind.TRIPLE_UNCOVERED if c == 0 else ViolationKind.TRIPLE_OVERCOVERED
    assert (cls.witness.kind, cls.witness.vertices, cls.witness.detail) == (kind, triple, c)


def assert_pair_evidence_is_first_unmet(g):
    report = check_linear_axioms(g)
    rank, pair, c = raw_first_unmet(g, 2)
    if pair is None:
        assert report.evidence["pair_count"] == rank
        assert "pair_cn" not in report.evidence
    else:
        assert report.status is CheckStatus.FAIL
        assert report.evidence == {"pair_cn": c, "pair_count": rank}
        assert report.counterexample == pair


class TestFirstUnmetSet:
    """`classify`'s triple witness and `check_linear_axioms`'s pair evidence
    name the first point set, in label order, not on exactly one circle, as a
    raw loop over `part_u` finds it."""

    @settings(max_examples=80)
    @given(bipartite_graphs())
    def test_random_graphs(self, g):
        assert_triple_witness_is_first_unmet(g)
        assert_pair_evidence_is_first_unmet(g)

    def test_circular_linear_and_perturbed_graphs(self):
        graphs = unmet_corpus()
        triples = pairs = 0
        for g in graphs:
            assert_triple_witness_is_first_unmet(g)
            assert_pair_evidence_is_first_unmet(g)
            witness = classify(g).witness
            triples += witness is not None and witness.kind in (
                ViolationKind.TRIPLE_UNCOVERED,
                ViolationKind.TRIPLE_OVERCOVERED,
            )
            pairs += check_linear_axioms(g).status is CheckStatus.PASS
        # Both branches of both scans are reached.
        assert triples >= 50 and pairs >= 26

    def test_pair_fail_names_its_rank(self):
        g = BipartiteGraph(
            ("1", "2", "3"), ("a", "b"), (("1", "a"), ("2", "a"), ("2", "b"), ("3", "b"))
        )
        report = check_linear_axioms(g)
        assert report.status is CheckStatus.FAIL
        assert report.evidence == {"pair_cn": 0, "pair_count": 2}
        assert report.counterexample == ("1", "3")

    def test_last_triple_overcovered(self):
        circles = {"a": "123456", "b": "456"}
        edges = tuple((p, w) for w, ps in circles.items() for p in ps)
        g = BipartiteGraph(tuple("123456"), tuple(circles), edges)
        cls = classify(g)
        assert cls.witness.kind is ViolationKind.TRIPLE_OVERCOVERED
        assert cls.witness.vertices == ("4", "5", "6")
        assert cls.witness.detail == 2


class TestVerdictOwnedByChecks:
    """The checks and `derive_linear` work out the verdict themselves, once
    per graph value; a caller cannot hand them one."""

    def test_one_verdict_per_graph_value(self):
        g = triangular(5)
        assert classify(g) is classify(g)
        assert classify(triangular(5)) == classify(g)

    @pytest.mark.parametrize(
        "check",
        [
            verify_w_pair_bound,
            verify_point_degrees,
            verify_distance_profile,
            verify_metric_bounds,
            run_all_checks,
        ],
    )
    def test_checks_take_no_verdict(self, check):
        # A verdict of another graph once made a valid star fail.
        stale = classify(triangular(4))
        with pytest.raises(TypeError):
            check(star(5), stale)
        with pytest.raises(TypeError):
            check(star(5), classification=stale)

    def test_derive_linear_takes_no_verdict(self):
        g = triangular(4)
        with pytest.raises(TypeError):
            derive_linear(g, "1", classify(g))

    def test_memo_keeps_no_graph_alive(self):
        g = triangular(4)
        classify(g)
        graph, index = weakref.ref(g), weakref.ref(g.index)
        del g
        gc.collect()
        assert graph() is None and index() is None


class TestWPairBound:
    def test_triangular5_max_two(self):
        g = triangular(5)
        brute = max(
            len(set(common_neighbors(g, (w1,))) & set(common_neighbors(g, (w2,))))
            for w1, w2 in combinations(g.part_w, 2)
        )
        assert brute == 2
        report = verify_w_pair_bound(g)
        assert report.status is CheckStatus.PASS
        assert report.evidence["max_cn"] == 2
        assert report.evidence["pair_count"] == 45

    def test_star_vacuous(self):
        report = verify_w_pair_bound(star(5))
        assert report.status is CheckStatus.PASS
        assert report.evidence["pair_count"] == 0

    def test_not_applicable_on_k42(self):
        report = verify_w_pair_bound(k_uw(4, 2))
        assert report.status is CheckStatus.NOT_APPLICABLE
        assert "NotCircular" in report.evidence["reason"]

    def test_fail_names_the_max_pair(self, monkeypatch):
        # No circular graph reaches this branch: force the verdict, as
        # TestDistanceProfileFailures does, on circles w2, w3 sharing three points.
        forced = CircularClassification(Verdict.NON_TRIVIAL_CIRCULAR, None, False)
        monkeypatch.setattr(circular, "classify", lambda g: forced)
        circles = {"w1": "12", "w2": "1234", "w3": "234"}
        edges = tuple((f"u{p}", w) for w, ps in circles.items() for p in ps)
        g = BipartiteGraph(("u1", "u2", "u3", "u4"), tuple(circles), edges)
        report = verify_w_pair_bound(g)
        assert report.status is CheckStatus.FAIL
        assert report.evidence == {"max_cn": 3, "pair_count": 3, "max_pair": ("w2", "w3")}
        assert report.counterexample == ("w2", "w3")

    def test_evidence_matches_raw_loop_on_circular_graphs(self):
        for g in circular_corpus():
            report = verify_w_pair_bound(g)
            assert report.status is CheckStatus.PASS
            assert report.evidence == raw_w_pair_evidence(g)

    def test_evidence_matches_raw_loop_on_random_graphs(self, monkeypatch):
        # Forced verdict as in test_fail_names_the_max_pair. Ties for the
        # largest count are common here: the first pair in label order wins.
        forced = CircularClassification(Verdict.NON_TRIVIAL_CIRCULAR, None, False)
        monkeypatch.setattr(circular, "classify", lambda g: forced)
        rng = random.Random(2207)
        tied = 0
        for _ in range(300):
            g = random_bipartite(rng, 7)
            evidence = raw_w_pair_evidence(g)
            report = verify_w_pair_bound(g)
            assert report.evidence == evidence
            if evidence["max_cn"] > 2:
                assert report.status is CheckStatus.FAIL
                assert report.counterexample == evidence["max_pair"]
            else:
                assert report.status is CheckStatus.PASS
            shared = [
                len(g.neighbors(a) & g.neighbors(b)) for a, b in combinations(g.part_w, 2)
            ]
            tied += shared.count(evidence["max_cn"]) > 1 and evidence["max_cn"] > 0
        assert tied > 50


class TestPointDegrees:
    def test_triangular4(self):
        report = verify_point_degrees(triangular(4))
        assert report.status is CheckStatus.PASS
        assert report.evidence["min_degree"] == 3

    def test_triangular6(self):
        report = verify_point_degrees(triangular(6))
        assert report.status is CheckStatus.PASS
        assert report.evidence["min_degree"] == 10

    def test_trivial_star_not_applicable(self):
        assert verify_point_degrees(star(5)).status is CheckStatus.NOT_APPLICABLE


class TestDistanceProfile:
    def test_triangular5_no_distant_circles(self):
        report = verify_distance_profile(triangular(5))
        assert report.status is CheckStatus.PASS
        assert report.evidence["u_pair_distances"] == [2]
        assert report.evidence["w_pair_distances"] == [2]
        assert report.evidence["u_w_distances"] == [1, 3]

    def test_triangular6_realizes_distance_four(self):
        g = triangular(6)
        assert oracle_distance(g, "b{1,2,3}", "b{4,5,6}") == 4
        report = verify_distance_profile(g)
        assert report.status is CheckStatus.PASS
        assert report.evidence["w_pair_distances"] == [2, 4]

    def test_star_not_applicable(self):
        assert verify_distance_profile(star(5)).status is CheckStatus.NOT_APPLICABLE


def oracle_distance_profile(g):
    """Observed distance sets and the first disallowed pair, in the
    documented order: point pairs, circle pairs, then point x circle, each
    lexicographic."""
    points, circles = sorted(g.part_u), sorted(g.part_w)
    dist = {v: oracle_bfs(g, v) for v in g.vertex_labels}
    observed, first = [], None
    for pairs, allowed in (
        (combinations(points, 2), {2}),
        (combinations(circles, 2), {2, 4}),
        ([(a, b) for a in points for b in circles], {1, 3}),
    ):
        seen = set()
        for a, b in pairs:
            d = dist[a].get(b, UNREACHABLE)
            seen.add(d)
            if first is None and d not in allowed:
                first = (a, b)
        observed.append(seen)
    return observed, first


def two_copies(g):
    def copy(v):
        return v + "'"

    return BipartiteGraph(
        g.part_u + tuple(map(copy, g.part_u)),
        g.part_w + tuple(map(copy, g.part_w)),
        g.edges + tuple((copy(a), copy(b)) for a, b in g.edges),
    )


class TestDistanceProfileFailures:
    """The Fail path, reached by forcing a non-trivial verdict on graphs
    that are not circular."""

    FORCED = CircularClassification(Verdict.NON_TRIVIAL_CIRCULAR, None, False)

    @pytest.fixture(autouse=True)
    def forced_verdict(self, monkeypatch):
        monkeypatch.setattr(circular, "classify", lambda g: self.FORCED)

    def check_against_oracle(self, g):
        report = verify_distance_profile(g)
        observed, first = oracle_distance_profile(g)
        keys = ("u_pair_distances", "w_pair_distances", "u_w_distances")
        for key, seen in zip(keys, observed):
            assert report.evidence[key] == sorted(seen)
        assert report.counterexample == first
        assert report.status is (CheckStatus.PASS if first is None else CheckStatus.FAIL)
        return report

    def test_disconnected_graphs(self):
        graphs = [two_copies(triangular(4)), two_copies(star(5)), two_copies(k_uw(2, 3))]
        g = triangular(5)
        graphs.append(BipartiteGraph(g.part_u + ("lone",), g.part_w, g.edges))
        graphs.append(BipartiteGraph(g.part_u, g.part_w + ("lone",), g.edges))
        for g in graphs:
            report = self.check_against_oracle(g)
            assert report.status is CheckStatus.FAIL
            assert UNREACHABLE in report.evidence["u_w_distances"]

    def test_random_bipartite_graphs(self):
        rng = random.Random(77)
        reports = [self.check_against_oracle(random_bipartite(rng, 7)) for _ in range(120)]
        failing = [r for r in reports if r.status is CheckStatus.FAIL]
        assert failing
        assert any(UNREACHABLE in r.evidence["w_pair_distances"] for r in failing)


class TestMetricBounds:
    def test_star6(self):
        report = verify_metric_bounds(star(6))
        assert report.status is CheckStatus.PASS
        assert report.evidence["diameter"] == 2
        assert report.evidence["radius"] == 1

    def test_triangular5(self):
        report = verify_metric_bounds(triangular(5))
        assert report.status is CheckStatus.PASS
        assert report.evidence == {
            "diameter": 3,
            "radius": 3,
            "connected": True,
            "case": "non-trivial",
        }

    def test_triangular7(self):
        report = verify_metric_bounds(triangular(7))
        assert report.status is CheckStatus.PASS
        assert report.evidence["diameter"] == 4
        assert report.evidence["radius"] == 3

    def test_not_applicable_when_not_circular(self):
        assert verify_metric_bounds(k_uw(3, 2)).status is CheckStatus.NOT_APPLICABLE


class TestLinearAxioms:
    def test_derived_from_triangular4_passes(self):
        g = derive_linear(triangular(4), "1")
        report = check_linear_axioms(g)
        assert report.status is CheckStatus.PASS
        assert report.evidence["min_degree"] == 2

    def test_k22_fails_on_pair(self):
        report = check_linear_axioms(k_uw(2, 2))
        assert report.status is CheckStatus.FAIL
        assert report.counterexample == ("u1", "u2")
        assert report.evidence["pair_cn"] == 2

    def test_p4_fails_on_degree(self):
        report = check_linear_axioms(p4_bipartite())
        assert report.status is CheckStatus.FAIL
        assert report.counterexample == ("a",)


class TestDegreeBoundsAcrossCorpus:
    def test_non_trivial_corpus_has_min_degree_three_on_both_sides(self):
        from circgraph.census import enumerate_circular

        corpus = [triangular(n) for n in range(4, 8)]
        corpus += [e.graph for u in (4, 5) for e in enumerate_circular(u)]
        for g in corpus:
            if classify(g).verdict is not Verdict.NON_TRIVIAL_CIRCULAR:
                continue
            assert min(g.degree(u) for u in g.part_u) >= 3
            assert min(g.degree(w) for w in g.part_w) >= 3


class TestRunAllChecks:
    def test_order_and_gating_on_star(self):
        reports = run_all_checks(star(5))
        assert [r.check for r in reports] == [
            "w_pair_bound",
            "point_degrees",
            "distance_profile",
            "metric_bounds",
        ]
        assert reports[0].status is CheckStatus.PASS
        assert reports[1].status is CheckStatus.NOT_APPLICABLE
        assert reports[2].status is CheckStatus.NOT_APPLICABLE
        assert reports[3].status is CheckStatus.PASS

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_triangular_family_all_pass(self, n):
        assert all(r.status is CheckStatus.PASS for r in run_all_checks(triangular(n)))

    def test_one_bfs_per_vertex(self, monkeypatch):
        # The distance profile and the metric bounds read one shared table,
        # which holds the BFS from every vertex. A lookup reaches the class
        # attribute only when the index has no cached table, so each lookup
        # counted here builds one.
        builds = []
        table = graphs.GraphIndex.__dict__["layers"]

        class Counting:
            def __get__(self, index, owner=None):
                builds.append(index)
                return table.__get__(index, owner)

        monkeypatch.setattr(graphs.GraphIndex, "layers", Counting())
        run_all_checks(triangular(6))
        assert len(builds) == 1

    def test_one_overlap_pass_per_graph(self, monkeypatch):
        # `classify` and `w_pair_bound` read one shared circle-overlap pass;
        # counted as test_one_bfs_per_vertex counts the BFS table.
        builds = []
        overlap = graphs.GraphIndex.__dict__["overlap"]

        class Counting:
            def __get__(self, index, owner=None):
                builds.append(index)
                return overlap.__get__(index, owner)

        monkeypatch.setattr(graphs.GraphIndex, "overlap", Counting())
        g = triangular(8)
        classify(g)
        run_all_checks(g)
        assert len(builds) == 1
