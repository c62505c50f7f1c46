"""Named graphs, designs, neighborhood doubling, and pivot deletion."""

from math import comb

import pytest
from hypothesis import given, settings

from circgraph.canonical import are_isomorphic
from circgraph.circular import CheckStatus, Verdict, check_linear_axioms, classify
from circgraph.constructions import (
    Design,
    derive_linear,
    from_design,
    neighborhood_graph,
    star,
    triangular,
)
from circgraph.graphs import (
    GraphError,
    SimpleGraph,
    as_simple,
    common_neighbors,
    connected_components,
    disjoint_union,
    induced_subgraph,
    metric_summary,
)

from strategies import nonempty_simple_graphs


def complete_graph(labels):
    labels = tuple(labels)
    edges = tuple(
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    )
    return SimpleGraph(labels, edges)


class TestStar:
    def test_star4_shape(self):
        g = star(4)
        assert g.part_u == ("u1", "u2", "u3")
        assert g.part_w == ("w",)
        assert g.degree("w") == 3

    def test_star6_metrics(self):
        s = metric_summary(star(6))
        assert (s.diameter, s.radius) == (2, 1)

    def test_star3_rejected(self):
        with pytest.raises(GraphError, match="at least 4"):
            star(3)


class TestTriangular:
    def test_triangular4_counts_and_verdict(self):
        g = triangular(4)
        assert len(g.part_u) == 4
        assert len(g.part_w) == 4
        assert len(g.edges) == 12
        assert classify(g).verdict is Verdict.NON_TRIVIAL_CIRCULAR

    def test_triangular5_counts(self):
        g = triangular(5)
        assert len(g.part_w) == 10
        assert all(g.degree(u) == 6 for u in g.part_u)

    def test_triangular3_degenerates_to_trivial(self):
        g = triangular(3)
        assert classify(g).verdict is Verdict.TRIVIAL_CIRCULAR
        assert len(g.part_u) == 3 and len(g.part_w) == 1

    def test_too_small_rejected(self):
        with pytest.raises(GraphError):
            triangular(2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_count_formulas(self, n):
        g = triangular(n)
        assert len(g.part_w) == comb(n, 3)
        assert all(g.degree(u) == comb(n - 1, 2) for u in g.part_u)
        assert all(g.degree(w) == 3 for w in g.part_w)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_family_is_non_trivial_circular(self, n):
        assert classify(triangular(n)).verdict is Verdict.NON_TRIVIAL_CIRCULAR


class TestNeighborhoodGraph:
    def test_k2_gives_two_disjoint_edges(self):
        g = neighborhood_graph(SimpleGraph(("a", "b"), (("a", "b"),)))
        assert sorted(g.vertex_labels) == ["N(a)", "N(b)", "a", "b"]
        assert set(g.edges) == {("a", "N(b)"), ("b", "N(a)")}
        assert len(connected_components(g)) == 2

    def test_k4_matches_triangular4(self):
        ng = neighborhood_graph(complete_graph("abcd"))
        assert all(ng.degree(v) == 3 for v in ng.vertex_labels)
        assert are_isomorphic(ng, triangular(4)).isomorphic

    def test_star_splits_into_two_stars(self):
        ng = neighborhood_graph(as_simple(star(5)))
        comps = connected_components(ng)
        assert len(comps) == 2
        k14 = star(5)
        for comp in comps:
            piece = induced_subgraph(as_simple(ng), comp)
            assert are_isomorphic(piece, as_simple(k14)).isomorphic

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError, match="'b'"):
            neighborhood_graph(SimpleGraph(("a", "b", "c"), (("a", "c"),)))

    def test_label_collision_gets_suffix(self):
        g = neighborhood_graph(SimpleGraph(("a", "N(a)"), (("a", "N(a)"),)))
        assert "N(a)#2" in g.part_w

    @settings(max_examples=40)
    @given(nonempty_simple_graphs(max_n=6))
    def test_doubling_counts(self, g):
        if any(not g.adjacency[v] for v in g.vertices):
            return
        ng = neighborhood_graph(g)
        assert len(ng.vertex_labels) == 2 * len(g.vertices)
        assert len(ng.edges) == 2 * len(g.edges)

    @pytest.mark.parametrize("build", [lambda: star(4), lambda: star(6), lambda: triangular(4), lambda: triangular(5)])
    def test_doubles_every_circular_graph(self, build):
        g = build()
        cert = are_isomorphic(neighborhood_graph(g), disjoint_union(g, g))
        assert cert.isomorphic


class TestDeriveLinear:
    def test_triangular4_gives_six_cycle(self):
        derived = derive_linear(triangular(4), "1")
        assert len(derived.vertex_labels) == 6
        assert len(derived.edges) == 6
        assert check_linear_axioms(derived).status is CheckStatus.PASS
        c6 = SimpleGraph(
            ("c1", "c2", "c3", "c4", "c5", "c6"),
            (("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5"), ("c5", "c6"), ("c1", "c6")),
        )
        assert are_isomorphic(as_simple(derived), c6).isomorphic

    def test_triangular5_pair_coverage(self):
        derived = derive_linear(triangular(5), "1")
        assert len(derived.part_u) == 4
        assert len(derived.part_w) == 6
        for i, p in enumerate(derived.part_u):
            for q in derived.part_u[i + 1:]:
                assert len(common_neighbors(derived, (p, q))) == 1

    def test_trivial_input_rejected(self):
        with pytest.raises(GraphError, match="non-trivial"):
            derive_linear(star(5), "w")

    def test_unknown_pivot_rejected(self):
        with pytest.raises(GraphError, match="point vertex"):
            derive_linear(triangular(4), "b{1,2,3}")

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_pivot_yields_linear(self, n):
        g = triangular(n)
        for pivot in g.part_u:
            derived = derive_linear(g, pivot)
            assert check_linear_axioms(derived).status is CheckStatus.PASS


class TestFromDesign:
    def test_equals_triangular4(self):
        d = Design(("1", "2", "3", "4"), (("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")))
        assert from_design(d) == triangular(4)

    def test_mixed_five_point_design_is_circular(self):
        blocks = [("1", "2", "3", "4")] + [
            tuple(sorted({"5", a, b})) for a, b in (("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"))
        ]
        g = from_design(Design(("1", "2", "3", "4", "5"), tuple(blocks)))
        assert classify(g).verdict is Verdict.NON_TRIVIAL_CIRCULAR

    def test_small_block_rejected(self):
        with pytest.raises(GraphError, match="at least three distinct points"):
            Design(("1", "2", "3"), (("1", "2"),))

    def test_repeated_members_do_not_count(self):
        with pytest.raises(GraphError, match="at least three distinct points"):
            Design(("1", "2", "3"), (("1", "1", "2"),))

    def test_unknown_point_rejected(self):
        with pytest.raises(GraphError, match="not a declared point"):
            Design(("1", "2", "3"), (("1", "2", "9"),))

    def test_duplicate_block_rejected(self):
        with pytest.raises(GraphError, match="duplicate block"):
            Design(("1", "2", "3"), (("1", "2", "3"), ("3", "2", "1")))

    def test_point_that_does_not_encode_rejected(self):
        with pytest.raises(GraphError, match="UTF-8"):
            Design(("1", "2", "\ud800"), (("1", "2", "\ud800"),))

    def test_points_stored_sorted(self):
        d = Design(("3", "1", "2"), (("1", "2", "3"),))
        assert d.points == ("1", "2", "3")
        assert d == Design(("1", "2", "3"), (("3", "2", "1"),))

    def test_blocks_sorted_and_labeled(self):
        d = Design(("1", "2", "3", "4"), (("4", "2", "3"), ("3", "1", "2")))
        g = from_design(d)
        assert g.part_w == ("b{1,2,3}", "b{2,3,4}")

    def test_colliding_block_labels_get_suffix(self):
        # Both blocks spell b{a,b,c,d}; the later one in stored order gets #2.
        d = Design(("a,b", "c", "d", "a", "b,c"), (("a,b", "c", "d"), ("a", "b,c", "d")))
        g = from_design(d)
        assert g.part_w == ("b{a,b,c,d}", "b{a,b,c,d}#2")
        assert g.neighbors("b{a,b,c,d}") == {"a", "b,c", "d"}
        assert g.neighbors("b{a,b,c,d}#2") == {"a,b", "c", "d"}

    def test_block_label_taken_by_a_point_gets_suffix(self):
        d = Design(("x", "y", "z", "b{x,y,z}"), (("x", "y", "z"),))
        g = from_design(d)
        assert g.part_w == ("b{x,y,z}#2",)
        assert not set(g.part_w) & set(g.part_u)
