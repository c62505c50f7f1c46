"""Core graph values, metrics, and neighborhood queries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgraph import graphs
from circgraph.graphs import (
    UNREACHABLE,
    BipartiteError,
    BipartiteGraph,
    GraphError,
    SimpleGraph,
    as_simple,
    bfs_layers,
    common_neighbors,
    connected_components,
    disjoint_union,
    distance,
    induced_subgraph,
    metric_summary,
)
from circgraph.constructions import star, triangular

from helpers import (
    oracle_bfs,
    oracle_components,
    oracle_diameter_radius,
    oracle_distance,
    simple_cycles_up_to,
)
from strategies import bipartite_graphs, simple_graphs, nonempty_simple_graphs


def path_graph(labels):
    return SimpleGraph(tuple(labels), tuple(zip(labels, labels[1:])))


def clique_with_tail(k, p):
    """K_k with a p-vertex path hanging off its last vertex."""
    clique = [f"k{i}" for i in range(k)]
    tail = [f"p{i:02d}" for i in range(p)]
    edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    edges += zip(clique[-1:] + tail, tail)
    return SimpleGraph(tuple(clique + tail), tuple(edges))


def assert_table_is_bfs(g):
    idx = g.index
    assert len(idx.layers) == len(idx.labels)
    for i, layers in enumerate(idx.layers):
        assert layers == bfs_layers(idx.masks, i)
        dist = {v: d for d, layer in enumerate(layers) for v in idx.labels_of(layer)}
        assert dist == oracle_bfs(g, idx.labels[i])


class TestConstruction:
    def test_vertices_sorted_edges_normalized(self):
        g = SimpleGraph(("b", "a", "c"), (("c", "a"), ("a", "b")))
        assert g.vertices == ("a", "b", "c")
        assert g.edges == (("a", "b"), ("a", "c"))

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            SimpleGraph(("a",), (("a", "a"),))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            SimpleGraph(("a", "a"), ())

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            SimpleGraph(("a", "b"), (("a", "b"), ("b", "a")))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(GraphError, match="not a declared vertex"):
            SimpleGraph(("a",), (("a", "b"),))

    def test_empty_graph_is_a_value(self):
        g = SimpleGraph((), ())
        assert g.vertices == () and g.edges == ()

    def test_label_that_does_not_encode_rejected(self):
        with pytest.raises(GraphError, match="UTF-8"):
            SimpleGraph(("\ud800", "b"), (("\ud800", "b"),))

    def test_edge_that_is_not_a_pair_rejected(self):
        with pytest.raises(GraphError, match=r"edge must be a pair of labels: \('a', 'b', 'c'\)"):
            SimpleGraph(("a", "b", "c"), (("a", "b", "c"),))

    def test_as_simple_is_identity_on_simple_graphs(self):
        g = path_graph(["a", "b", "c"])
        assert as_simple(g) is g


class TestValidateBipartite:
    def test_valid_p3(self):
        g = BipartiteGraph(("a",), ("x", "y"), (("a", "x"), ("a", "y")))
        assert g.part_u == ("a",) and g.part_w == ("x", "y")
        assert g.edges == (("a", "x"), ("a", "y"))

    def test_edge_inside_part_named(self):
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("a", "b"), ("x",), (("a", "b"),))
        assert "edge inside part U: ('a', 'b')" in str(exc.value)

    def test_label_in_both_parts_named(self):
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("z", "a"), ("z",), ())
        assert "label in both parts: 'z'" in str(exc.value)

    def test_duplicate_label_in_part(self):
        with pytest.raises(BipartiteError, match="duplicate label in part W"):
            BipartiteGraph(("a",), ("x", "x"), ())

    def test_all_violations_listed(self):
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("a", "b"), ("a", "x"), (("a", "b"), ("q", "x")))
        joined = "; ".join(exc.value.violations)
        assert "label in both parts: 'a'" in joined
        assert "'q'" in joined
        assert len(exc.value.violations) >= 2

    def test_edge_orientation_normalized(self):
        g = BipartiteGraph(("a",), ("x",), (("x", "a"),))
        assert g.edges == (("a", "x"),)

    def test_label_that_does_not_encode_rejected(self):
        with pytest.raises(BipartiteError, match="UTF-8"):
            BipartiteGraph(("a",), ("\ud800",), (("a", "\ud800"),))

    def test_edge_that_is_not_a_pair_named(self):
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("a", "b"), ("c",), (("a", "b", "c"),))
        assert exc.value.violations == ("edge must be a pair of labels: ('a', 'b', 'c')",)

    def test_edge_inside_part_w_named(self):
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("a",), ("x", "y"), (("a", "x"), ("y", "x")))
        assert exc.value.violations == ("edge inside part W: ('y', 'x')",)

    def test_duplicate_edge_named_in_either_orientation(self):
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("a",), ("x",), (("a", "x"), ("x", "a")))
        assert exc.value.violations == ("duplicate edge: ('a', 'x')",)

    def test_parts_stored_sorted(self):
        g = BipartiteGraph(("u2", "u1"), ("w",), (("u2", "w"), ("u1", "w")))
        assert g.part_u == ("u1", "u2")
        assert g == BipartiteGraph(("u1", "u2"), ("w",), (("u1", "w"), ("u2", "w")))


class TestCommonNeighbors:
    def test_path_midpoint(self):
        g = path_graph(["a", "b", "c"])
        assert common_neighbors(g, {"a", "c"}) == ("b",)

    def test_star_leaves_meet_at_center(self):
        assert common_neighbors(star(5), {"u1", "u2"}) == ("w",)

    def test_triangular_triple_hits_its_block(self):
        assert common_neighbors(triangular(4), {"1", "2", "3"}) == ("b{1,2,3}",)

    def test_unknown_label_named(self):
        with pytest.raises(GraphError, match="'zz'"):
            common_neighbors(star(4), {"u1", "zz"})

    def test_empty_query_rejected(self):
        with pytest.raises(GraphError):
            common_neighbors(star(4), set())

    @settings(max_examples=60)
    @given(simple_graphs(min_n=2, max_n=6), st.data())
    def test_antitone_in_the_query_set(self, g, data):
        labels = list(g.vertices)
        s = data.draw(st.sets(st.sampled_from(labels), min_size=2))
        sub = data.draw(st.sets(st.sampled_from(sorted(s)), min_size=1))
        assert set(common_neighbors(g, s)) <= set(common_neighbors(g, sub))


class TestDistance:
    def test_star_leaves_at_two(self):
        assert distance(star(5), "u1", "u2") == 2

    def test_distance_to_self_is_zero(self):
        assert distance(star(5), "u1", "u1") == 0

    def test_triangular6_disjoint_blocks(self):
        g = triangular(6)
        expected = oracle_distance(g, "b{1,2,3}", "b{4,5,6}")
        assert expected == 4
        assert distance(g, "b{1,2,3}", "b{4,5,6}") == expected

    def test_unreachable_across_components(self):
        g = SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        assert distance(g, "a", "c") is UNREACHABLE

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            distance(star(4), "u1", "nope")

    @settings(max_examples=60)
    @given(simple_graphs(min_n=2, max_n=6), st.data())
    def test_symmetry(self, g, data):
        a = data.draw(st.sampled_from(list(g.vertices)))
        b = data.draw(st.sampled_from(list(g.vertices)))
        assert distance(g, a, b) == distance(g, b, a)

    @settings(max_examples=60)
    @given(simple_graphs(min_n=3, max_n=6), st.data())
    def test_triangle_inequality(self, g, data):
        a, b, c = (data.draw(st.sampled_from(list(g.vertices))) for _ in range(3))
        dab, dbc, dac = distance(g, a, b), distance(g, b, c), distance(g, a, c)
        if isinstance(dab, int) and isinstance(dbc, int) and isinstance(dac, int):
            assert dac <= dab + dbc


class TestMetricSummary:
    def test_star_diameter_two_radius_one(self):
        s = metric_summary(star(5))
        assert (s.diameter, s.radius, s.connected) == (2, 1, True)

    def test_triangular5(self):
        g = triangular(5)
        assert oracle_diameter_radius(g) == (3, 3)
        s = metric_summary(g)
        assert (s.diameter, s.radius) == (3, 3)

    def test_triangular6(self):
        g = triangular(6)
        assert oracle_diameter_radius(g) == (4, 3)
        s = metric_summary(g)
        assert (s.diameter, s.radius) == (4, 3)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            metric_summary(SimpleGraph((), ()))

    def test_disconnected_summary(self):
        g = SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        s = metric_summary(g)
        assert s.diameter is UNREACHABLE
        assert s.radius is UNREACHABLE
        assert not s.connected

    @settings(max_examples=50)
    @given(nonempty_simple_graphs(max_n=6))
    def test_matches_all_pairs_oracle(self, g):
        s = metric_summary(g)
        assert (s.diameter, s.radius) == oracle_diameter_radius(g)


class TestAllSourcesTable:
    """`GraphIndex.layers` equals the per-source BFS from every position."""

    @settings(max_examples=80)
    @given(simple_graphs(max_n=9))
    def test_simple_graphs(self, g):
        assert_table_is_bfs(g)

    @settings(max_examples=80)
    @given(bipartite_graphs())
    def test_bipartite_graphs(self, g):
        assert_table_is_bfs(g)

    @pytest.mark.parametrize(
        "g",
        [
            SimpleGraph((), ()),
            SimpleGraph(("a", "b", "c"), ()),
            disjoint_union(triangular(4), path_graph(["a", "b", "c", "d"])),
            path_graph([f"v{i:02d}" for i in range(30)]),
            clique_with_tail(8, 8),
            # K1,3 with a pendant vertex e off leaf a. Leaf b reads, the
            # neighbours' way, the ball of the centre c, which became
            # everything the round before and left the round list.
            SimpleGraph(
                ("a", "b", "c", "d", "e"),
                (("a", "c"), ("b", "c"), ("c", "d"), ("a", "e")),
            ),
        ],
        ids=["empty", "isolated", "disconnected", "path30", "k8_tail8", "k13_pendant"],
    )
    def test_hand_cases(self, g):
        assert_table_is_bfs(g)

    @pytest.mark.parametrize(
        "g",
        [
            clique_with_tail(8, 8),
            # Three components: sources leave the round list when their ball
            # stops growing, at different rounds, and that last step counts.
            disjoint_union(
                disjoint_union(clique_with_tail(6, 4), path_graph(["a", "b", "c"])),
                SimpleGraph(("z",), ()),
            ),
        ],
        ids=["k8_tail8", "k6_tail4_path3_isolated"],
    )
    def test_each_step_reads_the_cheaper_way(self, g, monkeypatch):
        # Clique sources grow their ball top-down from a last layer no wider
        # than their degree; tail sources reach the clique with a last layer
        # wider than their degree and read their neighbours' balls instead.
        idx = g.index
        everything = (1 << len(idx.masks)) - 1
        per_source = tuple(bfs_layers(idx.masks, i) for i in range(len(idx.masks)))
        steps = []
        for m, layers in zip(idx.masks, per_source):
            expanded = layers[:-1] if sum(layers) == everything else layers
            steps += [(f.bit_count(), m.bit_count()) for f in expanded]
        assert any(f < d for f, d in steps) and any(f > d for f, d in steps)
        read = []
        real = graphs.bits

        def counting(mask):
            read.append(mask.bit_count())
            return real(mask)

        monkeypatch.setattr(graphs, "bits", counting)
        assert idx.layers == per_source
        assert sum(read) == sum(min(f, d) for f, d in steps)
        assert sum(read) < sum(f for f, _ in steps)


class TestConnectedComponents:
    """`connected_components` equals a plain-BFS oracle, order included."""

    @settings(max_examples=80)
    @given(simple_graphs(max_n=9))
    def test_simple_graphs(self, g):
        assert list(connected_components(g)) == oracle_components(g)

    @settings(max_examples=80)
    @given(bipartite_graphs())
    def test_bipartite_graphs(self, g):
        assert list(connected_components(g)) == oracle_components(g)


class TestDisjointUnion:
    def test_two_k2(self):
        k2a = SimpleGraph(("a", "b"), (("a", "b"),))
        k2b = SimpleGraph(("c", "d"), (("c", "d"),))
        g = disjoint_union(k2a, k2b)
        assert len(g.vertices) == 4 and len(g.edges) == 2
        assert len(connected_components(g)) == 2

    def test_star4_with_itself(self):
        g = disjoint_union(star(4), star(4))
        comps = connected_components(g)
        assert len(comps) == 2
        assert all(len(c) == 4 for c in comps)

    def test_empty_union_is_identity(self):
        g = star(4)
        assert disjoint_union(SimpleGraph((), ()), g) == as_simple(g)

    def test_collisions_get_copy_suffix(self):
        g = disjoint_union(star(4), star(4))
        assert "u1#2" in g.vertices and "w#2" in g.vertices


class TestInducedSubgraph:
    def test_identity(self):
        g = triangular(4)
        assert induced_subgraph(g, g.vertex_labels) == g

    def test_triangle_to_edge(self):
        g = SimpleGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        sub = induced_subgraph(g, {"a", "b"})
        assert sub.edges == (("a", "b"),)

    def test_pivot_deletion_counts(self):
        # Surviving blocks of triangular(4) keep 2 of their 3 edges once
        # point "1" and the block missing it are gone.
        g = triangular(4)
        keep = {"2", "3", "4", "b{1,2,3}", "b{1,2,4}", "b{1,3,4}"}
        sub = induced_subgraph(g, keep)
        assert len(sub.vertex_labels) == 6
        assert len(sub.edges) == 6

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="'nope'"):
            induced_subgraph(star(4), {"u1", "nope"})


class TestBipartiteParity:
    @settings(max_examples=40)
    @given(bipartite_graphs(max_u=4, max_w=4))
    def test_every_short_cycle_is_even(self, g):
        for cycle in simple_cycles_up_to(g, 8):
            assert len(cycle) % 2 == 0


class TestUnreachableSentinel:
    def test_orders_above_every_int(self):
        assert UNREACHABLE > 10**9
        assert not (UNREACHABLE < 0)
        assert max([3, UNREACHABLE, 7]) is UNREACHABLE
        assert min([3, UNREACHABLE]) == 3

    def test_is_math_inf(self):
        assert UNREACHABLE is math.inf
