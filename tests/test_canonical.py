"""Canonical forms and isomorphism certificates."""

from itertools import combinations
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgraph import canonical
from circgraph.canonical import _counts, _refine, _split, are_isomorphic, canonical_form
from circgraph.cli import main
from circgraph.constructions import neighborhood_graph, star, triangular
from circgraph.fileio import dumps_obj, payload_to_obj
from circgraph.graphs import (
    BipartiteGraph,
    GraphError,
    SimpleGraph,
    as_simple,
    disjoint_union,
)

from helpers import (
    cell_lists,
    cell_masks,
    cfi,
    cfi_k4,
    first_least_leaf,
    free_trees,
    oracle_isomorphic,
    oracle_part_isomorphic,
    paley,
    petersen_edges,
    random_bipartite,
    reference_are_isomorphic,
    reference_in_explored_orbit,
    reference_individualize,
    reference_refine,
    reference_rows,
    relabeled,
    rook,
    shrikhande,
)
from strategies import bipartite_graphs, simple_graphs


def rebuild_bits(g, form):
    """Re-read the input adjacency in canonical order; must reproduce bits."""
    pos_to_label = {pos: lab for lab, pos in form.relabeling.items()}
    edges = {frozenset(e) for e in g.edges}
    out = []
    for i in range(form.n):
        for j in range(i + 1, form.n):
            out.append("1" if frozenset((pos_to_label[i], pos_to_label[j])) in edges else "0")
    return "".join(out)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: as_simple(star(5)),
            lambda: as_simple(triangular(4)),
            lambda: as_simple(triangular(5)),
            lambda: SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d"))),
        ],
    )
    def test_invariant_under_random_relabelings(self, build):
        g = build()
        base = canonical_form(g)
        rng = random.Random(99)
        for _ in range(25):
            h, _ = relabeled(g, rng)
            assert canonical_form(h).key == base.key

    def test_relabeling_reproduces_bits(self):
        for g in (as_simple(triangular(4)), as_simple(star(6))):
            form = canonical_form(g)
            assert rebuild_bits(g, form) == form.bits

    @settings(max_examples=60)
    @given(simple_graphs(max_n=8))
    def test_bits_spell_out_the_rows(self, g):
        form = canonical_form(g)
        assert reference_rows(form) == form.rows
        assert len(form.bits) == form.n * (form.n - 1) // 2

    @settings(max_examples=60)
    @given(bipartite_graphs())
    def test_bits_spell_out_the_rows_part_respecting(self, g):
        form = canonical_form(g, respect_parts=True)
        assert reference_rows(form) == form.rows
        assert len(form.bits) == form.n * (form.n - 1) // 2

    def test_c4_and_p4_differ(self):
        c4 = SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))
        p4 = SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d")))
        assert canonical_form(c4).key != canonical_form(p4).key

    def test_neighborhood_of_k4_matches_triangular4(self):
        k4 = SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")))
        assert canonical_form(neighborhood_graph(k4)).key == canonical_form(triangular(4)).key

    def test_empty_graph(self):
        form = canonical_form(SimpleGraph((), ()))
        assert form.key == (0, None, "")

    def test_part_respecting_requires_bipartite(self):
        with pytest.raises(GraphError, match="bipartite"):
            canonical_form(SimpleGraph(("a",), ()), respect_parts=True)

    def test_part_respecting_separates_orientations(self):
        # Same abstract path, opposite point/circle roles.
        g1 = BipartiteGraph(("a", "c"), ("b",), (("a", "b"), ("c", "b")))
        g2 = BipartiteGraph(("b",), ("a", "c"), (("b", "a"), ("b", "c")))
        assert canonical_form(as_simple(g1)).key == canonical_form(as_simple(g2)).key
        assert canonical_form(g1, respect_parts=True).key != canonical_form(g2, respect_parts=True).key

    def test_part_respecting_invariant_under_part_preserving_relabeling(self):
        g = triangular(4)
        base = canonical_form(g, respect_parts=True)
        rng = random.Random(3)
        for _ in range(10):
            h, _ = relabeled(g, rng)
            assert canonical_form(h, respect_parts=True).key == base.key

    def test_desk_scale_bound(self):
        doubled = disjoint_union(triangular(6), triangular(6))
        started = time.perf_counter()
        canonical_form(doubled)
        assert time.perf_counter() - started < 5.0
        started = time.perf_counter()
        canonical_form(triangular(7))
        assert time.perf_counter() - started < 5.0

    def test_isolated40_returns(self):
        g = SimpleGraph(tuple(f"v{i}" for i in range(40)), ())
        form = canonical_form(g)
        assert form.key == (40, None, "0" * 780)
        assert sorted(form.relabeling.values()) == list(range(40))

    def test_triangular8_relabelings(self):
        g = as_simple(triangular(8))
        base = canonical_form(g)
        rng = random.Random(17)
        for _ in range(5):
            h, _ = relabeled(g, rng)
            assert canonical_form(h).key == base.key


class TestAreIsomorphic:
    def test_neighborhood_doubling_instance(self):
        g = triangular(4)
        cert = are_isomorphic(neighborhood_graph(g), disjoint_union(g, g))
        assert cert.isomorphic
        ng, du = neighborhood_graph(g), disjoint_union(g, g)
        mapped = {frozenset((cert.mapping[a], cert.mapping[b])) for a, b in ng.edges}
        assert mapped == {frozenset(e) for e in du.edges}

    def test_same_size_different_degrees(self):
        assert not are_isomorphic(triangular(4), star(8)).isomorphic

    def test_reflexive_with_replayable_mapping(self):
        g = triangular(4)
        cert = are_isomorphic(g, g)
        assert cert.isomorphic
        assert sorted(cert.mapping) == sorted(cert.mapping.values())

    @settings(max_examples=50, deadline=None)
    @given(simple_graphs(max_n=6), st.randoms(use_true_random=False))
    def test_matches_permutation_oracle_on_relabelings(self, g, rng):
        h, _ = relabeled(g, rng)
        assert are_isomorphic(g, h).isomorphic

    @settings(max_examples=40, deadline=None)
    @given(simple_graphs(max_n=5), simple_graphs(max_n=5))
    def test_matches_permutation_oracle_on_pairs(self, g1, g2):
        assert are_isomorphic(g1, g2).isomorphic == oracle_isomorphic(g1, g2)

    @settings(max_examples=40, deadline=None)
    @given(simple_graphs(max_n=6), simple_graphs(max_n=6))
    def test_symmetric(self, g1, g2):
        assert are_isomorphic(g1, g2).isomorphic == are_isomorphic(g2, g1).isomorphic

    @settings(max_examples=40, deadline=None)
    @given(simple_graphs(max_n=6), simple_graphs(max_n=6))
    def test_degree_multiset_discrimination(self, g1, g2):
        degs1 = sorted(g1.degree(v) for v in g1.vertices)
        degs2 = sorted(g2.degree(v) for v in g2.vertices)
        if degs1 != degs2:
            assert not are_isomorphic(g1, g2).isomorphic

    @settings(max_examples=50, deadline=None)
    @given(simple_graphs(max_n=6), st.randoms(use_true_random=False))
    def test_certificate_transports_edges(self, g, rng):
        h, _ = relabeled(g, rng)
        cert = are_isomorphic(g, h)
        assert cert.isomorphic
        mapped = {frozenset((cert.mapping[a], cert.mapping[b])) for a, b in g.edges}
        assert mapped == {frozenset(e) for e in h.edges}


def assert_matches_reference(g1, g2, respect_parts=False):
    """Same flag and mapping as two full labelings, in both argument orders."""
    for a, b in ((g1, g2), (g2, g1)):
        got = are_isomorphic(a, b, respect_parts)
        want = reference_are_isomorphic(a, b, respect_parts)
        assert (got.isomorphic, got.mapping) == (want.isomorphic, want.mapping)


def named_iso_pairs():
    rng = random.Random(13)
    pairs = {}
    for n in range(6, 10):
        g = triangular(n)
        pairs[f"triangular{n}-relabeled"] = (g, relabeled(g, rng)[0])
    pairs["cfi-k4-untwisted-twisted"] = (cfi_k4(False), cfi_k4(True))
    pairs["cfi-k4-relabeled"] = (cfi_k4(True), relabeled(cfi_k4(True), rng)[0])
    pairs["shrikhande-rook4"] = (shrikhande(), rook(4))
    pairs["empty"] = (BipartiteGraph((), (), ()), BipartiteGraph((), (), ()))
    pairs["one-point"] = (BipartiteGraph(("a",), (), ()), BipartiteGraph(("b",), (), ()))
    pairs["point-circle"] = (BipartiteGraph(("a",), (), ()), BipartiteGraph((), ("a",), ()))
    return pairs


class TestTargetedSearchEquivalence:
    """`are_isomorphic` labels its second graph with a search that stops at
    the first leaf reaching the first graph's rows; its certificates equal
    those of two full labelings (`helpers.reference_are_isomorphic`)."""

    @settings(max_examples=60, deadline=None)
    @given(simple_graphs(max_n=7), simple_graphs(max_n=7))
    def test_simple_pairs(self, g1, g2):
        assert_matches_reference(g1, g2)

    @settings(max_examples=60, deadline=None)
    @given(simple_graphs(max_n=8), st.randoms(use_true_random=False))
    def test_simple_relabelings(self, g, rng):
        assert_matches_reference(g, relabeled(g, rng)[0])

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(), bipartite_graphs(), st.booleans())
    def test_bipartite_pairs(self, g1, g2, respect_parts):
        assert_matches_reference(g1, g2, respect_parts)

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(), st.randoms(use_true_random=False), st.booleans())
    def test_bipartite_relabelings(self, g, rng, respect_parts):
        assert_matches_reference(g, relabeled(g, rng)[0], respect_parts)

    @pytest.mark.parametrize("name", sorted(named_iso_pairs()))
    def test_named_pairs(self, name):
        g1, g2 = named_iso_pairs()[name]
        assert_matches_reference(g1, g2)
        if isinstance(g1, BipartiteGraph):
            assert_matches_reference(g1, g2, respect_parts=True)


class TestPruningNeutrality:
    """Twin pruning, orbit pruning and the back-jump at leaves equal to the
    best never change the winner: `canonical_form` returns the first least
    leaf of the whole unpruned tree, as `first_least_leaf` finds it. The
    CFI graphs over K4, four disjoint edges and the 3x3 rook graph have
    many leaves equal to the best, so the search jumps back on them."""

    def test_orbit_pruning_never_changes_the_winner(self, monkeypatch):
        import circgraph.canonical as canonical_module

        graphs = [as_simple(star(n)) for n in range(4, 10)]
        graphs += [as_simple(triangular(n)) for n in (4, 5)]
        graphs += [t for n in (6, 7, 8) for t in free_trees(n)]
        graphs.append(
            SimpleGraph(
                ("a0", "a1", "b0", "b1", "b2", "b3", "b4"),
                tuple((a, b) for a in ("a0", "a1") for b in ("b0", "b1", "b2", "b3", "b4")),
            )
        )
        graphs.append(SimpleGraph(tuple(f"v{i}" for i in range(8)), ()))
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 7)
            labels = [f"a{i}" for i in range(n)]
            edges = [
                (labels[i], labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            graphs.append(SimpleGraph(tuple(labels), tuple(edges)))
        graphs += [cfi_k4(False), cfi_k4(True), disjoint_edges(4), rook(3)]
        parted = [triangular(4), triangular(5)]

        def leaf(g, respect_parts):
            bits, order = first_least_leaf(
                g.index.masks, canonical_module._initial_cells(g, respect_parts)
            )
            labels = g.index.labels
            u_size = g.index.points.bit_count() if respect_parts else None
            return (len(labels), u_size, bits), {labels[v]: i for i, v in enumerate(order)}

        expected = [leaf(g, False) for g in graphs] + [leaf(g, True) for g in parted]

        real_refine = canonical_module._refine
        refines = []

        def counted(*args):
            refines.append(None)
            return real_refine(*args)

        def forms():
            refines.clear()
            found = [canonical_form(g) for g in graphs]
            found += [canonical_form(g, respect_parts=True) for g in parted]
            return [(f.key, f.relabeling) for f in found], len(refines)

        monkeypatch.setattr(canonical_module, "_refine", counted)
        pruned, pruned_nodes = forms()
        # Orbit pruning off: `_close` does nothing, so `covered` holds only
        # the explored candidates. Then twin pruning off too: each position
        # is its own twin class.
        monkeypatch.setattr(canonical_module, "_close", lambda covered, todo, gens: None)
        orbits_off, orbits_off_nodes = forms()
        monkeypatch.setattr(
            canonical_module, "_twin_classes", lambda masks: list(range(len(masks)))
        )
        both_off, both_off_nodes = forms()
        assert pruned == orbits_off == both_off == expected
        # Orbit pruning cuts branches that twin pruning leaves, and twin
        # pruning alone cuts some too.
        assert pruned_nodes < orbits_off_nodes < both_off_nodes


class TestPartRespectingSoundness:
    def test_points_occupy_leading_positions(self):
        rng = random.Random(555)
        for _ in range(200):
            g = random_bipartite(rng, max_part=5)
            form = canonical_form(g, respect_parts=True)
            u_positions = sorted(form.relabeling[u] for u in g.part_u)
            assert u_positions == list(range(len(g.part_u)))

    def test_matches_part_permutation_oracle(self):
        rng = random.Random(777)
        for _ in range(150):
            g1 = random_bipartite(rng, max_part=3)
            g2 = random_bipartite(rng, max_part=3)
            lib = canonical_form(g1, True).key == canonical_form(g2, True).key
            assert lib == oracle_part_isomorphic(g1, g2)

    def test_part_preserving_relabelings_always_match(self):
        rng = random.Random(888)
        for _ in range(150):
            g = random_bipartite(rng, max_part=5)
            h, _ = relabeled(g, rng)
            cert = are_isomorphic(g, h, respect_parts=True)
            assert cert.isomorphic
            assert {cert.mapping[u] for u in g.part_u} == set(h.part_u)


def neighbor_tuples(g):
    return tuple(tuple(i for i in range(len(g.index.masks)) if m >> i & 1) for m in g.index.masks)


@st.composite
def masks_piece_groups(draw):
    # A symmetric adjacency on up to 40 positions, a piece, and a cell cut
    # into one or two groups.
    n = draw(st.integers(min_value=1, max_value=40))
    masks = [0] * n
    for v in range(1, n):
        row = draw(st.integers(min_value=0, max_value=(1 << v) - 1))
        masks[v] |= row
        for u in range(v):
            masks[u] |= (row >> u & 1) << v
    piece = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    cell = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    cut = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return masks, piece, [g for g in (cell & cut, cell & ~cut) if g]


class TestBitSlicedCounts:
    """`_counts` decodes to each position's neighbour count in the piece, and
    `_split` partitions each group into groups of one count, larger counts
    first, keeping the groups' order."""

    @settings(max_examples=200, deadline=None)
    @given(masks_piece_groups())
    def test_counts_and_split(self, drawn):
        masks, piece, groups_in = drawn
        slices = _counts(masks, piece)
        count = [sum((s >> v & 1) << i for i, s in enumerate(slices)) for v in range(len(masks))]
        assert count == [(m & piece).bit_count() for m in masks]
        groups = _split(groups_in, slices)
        assert all(groups)
        assert all(a & b == 0 for a, b in combinations(groups, 2))
        # The groups from each input group, in the input groups' order.
        own = [[g for g in groups if g & g_in] for g_in in groups_in]
        assert sum(own, []) == groups
        for g_in, pieces in zip(groups_in, own):
            assert sum(pieces) == g_in
            keys = [{count[v] for v in members} for members in cell_lists(pieces)]
            assert all(len(k) == 1 for k in keys)
            assert all(a > b for (a,), (b,) in zip(keys, keys[1:]))


class TestRefinementOrder:
    """Cells of `_refine` against the colour classes of the global-signature
    reference, along random individualization chains."""

    def check_chain(self, g, respect_parts, rng):
        idx = g.index
        n = len(idx.labels)
        adj = [set(t) for t in neighbor_tuples(g)]
        if respect_parts:
            colors = [0 if idx.points >> v & 1 else 1 for v in range(n)]
        else:
            colors = [0] * n
        cells = [[v for v in range(n) if colors[v] == c] for c in (0, 1)]
        cells = [c for c in cells if c]
        while True:
            cells = cell_lists(_refine(idx.masks, cell_masks(cells)))
            colors = reference_refine(n, adj, colors)
            classes = [[v for v in range(n) if colors[v] == c] for c in range(len(cells))]
            assert cells == classes
            open_cells = [t for t, cell in enumerate(cells) if len(cell) >= 2]
            if not open_cells:
                return
            t = rng.choice(open_cells)
            v = rng.choice(cells[t])
            cells = cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1 :]
            colors = reference_individualize(colors, v)

    def test_random_simple_graphs(self):
        rng = random.Random(4321)
        for _ in range(150):
            n = rng.randint(0, 12)
            p = rng.choice([0.15, 0.35, 0.6, 0.85])
            labels = [f"a{i}" for i in range(n)]
            edges = [
                (labels[i], labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            self.check_chain(SimpleGraph(tuple(labels), tuple(edges)), False, rng)

    def test_random_bipartite_graphs_both_modes(self):
        rng = random.Random(8765)
        for _ in range(150):
            g = random_bipartite(rng, max_part=6)
            self.check_chain(g, False, rng)
            self.check_chain(g, True, rng)

    def test_regular_and_tree_graphs(self):
        rng = random.Random(99)
        for g in [as_simple(triangular(6)), shrikhande(), paley(13)] + list(free_trees(8)):
            self.check_chain(g, False, rng)

    def test_larger_graphs(self):
        # triangular(9) part-respecting (93 vertices) and CFI over K5 (80).
        rng = random.Random(57)
        for _ in range(3):
            self.check_chain(triangular(9), True, rng)
            self.check_chain(cfi(list(combinations(range(5), 2)), 5, ()), False, rng)


class TestNetworkxOracle:
    """Pairs that colour refinement alone cannot separate, decided against
    networkx's VF2 as an independent oracle."""

    @staticmethod
    def pairs():
        rng = random.Random(13)
        return {
            "shrikhande-rook": (shrikhande(), rook(4)),
            "paley13-relabelings": (relabeled(paley(13), rng)[0], relabeled(paley(13), rng)[0]),
            "cfi-k4-twist": (cfi_k4(False), cfi_k4(True)),
        }

    @pytest.mark.parametrize("name", ["shrikhande-rook", "paley13-relabelings", "cfi-k4-twist"])
    def test_agrees_with_networkx(self, name):
        nx = pytest.importorskip("networkx")
        g1, g2 = self.pairs()[name]
        union = disjoint_union(g1, g2)
        first = {union.index.position[v] for v in g1.vertex_labels}
        stable = cell_lists(
            _refine(union.index.masks, cell_masks([list(range(len(union.index.labels)))]))
        )
        assert all(2 * len(first.intersection(cell)) == len(cell) for cell in stable)

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(g.vertex_labels)
            h.add_edges_from(g.edges)
            return h

        expected = nx.is_isomorphic(to_nx(g1), to_nx(g2))
        assert expected == (name == "paley13-relabelings")
        assert are_isomorphic(g1, g2).isomorphic == expected

    @staticmethod
    def twin_heavy_pairs():
        rng = random.Random(21)
        parts = [[f"{side}{i}" for i in range(size)] for side, size in zip("abc", (2, 3, 4))]
        multipartite = SimpleGraph(
            tuple(v for part in parts for v in part),
            tuple((x, y) for i, p in enumerate(parts) for q in parts[i + 1 :] for x in p for y in q),
        )
        path = [f"s{i}" for i in range(8)]
        # Degrees 4, 2 x5, 1 x4 in both: the caterpillar hangs two twin
        # leaves on its spine, the spider has legs of lengths 3, 2, 2, 2.
        caterpillar = SimpleGraph(
            tuple(path) + ("p0", "p1"),
            tuple(zip(path, path[1:])) + (("s3", "p0"), ("s3", "p1")),
        )
        legs = [["c"] + [f"l{k}{j}" for j in range(length)] for k, length in enumerate((3, 2, 2, 2))]
        spider = SimpleGraph(
            tuple(sorted({v for leg in legs for v in leg})),
            tuple(e for leg in legs for e in zip(leg, leg[1:])),
        )
        double_star = SimpleGraph(
            ("x", "y") + tuple(f"x{i}" for i in range(4)) + tuple(f"y{i}" for i in range(5)),
            (("x", "y"),) + tuple(("x", f"x{i}") for i in range(4)) + tuple(("y", f"y{i}") for i in range(5)),
        )
        return {
            "k234-relabelings": (relabeled(multipartite, rng)[0], relabeled(multipartite, rng)[0], True),
            "caterpillar-spider": (caterpillar, spider, False),
            "double-star-relabelings": (relabeled(double_star, rng)[0], relabeled(double_star, rng)[0], True),
        }

    @pytest.mark.parametrize("name", ["k234-relabelings", "caterpillar-spider", "double-star-relabelings"])
    def test_twin_heavy_pairs_agree_with_networkx(self, name):
        nx = pytest.importorskip("networkx")
        g1, g2, isomorphic = self.twin_heavy_pairs()[name]
        assert sorted(map(g1.degree, g1.vertices)) == sorted(map(g2.degree, g2.vertices))

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(g.vertex_labels)
            h.add_edges_from(g.edges)
            return h

        assert nx.is_isomorphic(to_nx(g1), to_nx(g2)) == isomorphic
        assert are_isomorphic(g1, g2).isomorphic == isomorphic


class TestCfiParity:
    """CFI graphs over K5 (80 vertices) and the Petersen graph (100), decided
    against the CFI parity theorem: twisting an even number of base edges
    gives a graph isomorphic to the untwisted one, an odd number one that is
    not. networkx's VF2 gave no answer on the K5 odd pair in 3 minutes, so
    the theorem is the oracle here."""

    BASES = {"k5": (list(combinations(range(5), 2)), 5), "petersen": (petersen_edges(), 10)}

    @pytest.mark.parametrize("base", sorted(BASES))
    @pytest.mark.parametrize("twists", [(0,), (1, 4, 7), (0, 3), (2, 5)])
    def test_parity_decides_isomorphism(self, base, twists):
        edges, n = self.BASES[base]
        untwisted, twisted = cfi(edges, n, ()), cfi(edges, n, set(twists))
        cert = are_isomorphic(untwisted, twisted)
        assert cert.isomorphic == (len(twists) % 2 == 0)
        if cert.isomorphic:
            mapped = {frozenset((cert.mapping[a], cert.mapping[b])) for a, b in untwisted.edges}
            assert mapped == {frozenset(e) for e in twisted.edges}

    @pytest.mark.parametrize("base", sorted(BASES))
    def test_relabeled_copy(self, base):
        edges, n = self.BASES[base]
        odd = relabeled(cfi(edges, n, {1, 4, 7}), random.Random(5))[0]
        assert are_isomorphic(cfi(edges, n, {0}), odd).isomorphic
        assert not are_isomorphic(cfi(edges, n, ()), odd).isomorphic


class TestCheapRejection:
    """`are_isomorphic` rejects on degree sequences before canonical labeling.
    Labelings are counted as `_search` runs: the first graph's full search
    and the second graph's targeted one."""

    @staticmethod
    def count_searches(monkeypatch):
        import circgraph.canonical as canonical_module

        calls = []
        real = canonical_module._search
        monkeypatch.setattr(
            canonical_module, "_search", lambda *args: calls.append(args) or real(*args)
        )
        return calls

    def test_different_sizes_skip_canonical_labeling(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        cert = are_isomorphic(as_simple(triangular(9)), as_simple(triangular(10)))
        assert not cert.isomorphic and cert.mapping is None
        assert len(calls) == 0

    def test_part_degree_sequences_are_compared_per_part(self, monkeypatch):
        # Same simple graph (a path on three vertices), opposite point/circle roles.
        g1 = BipartiteGraph(("a", "c"), ("b",), (("a", "b"), ("c", "b")))
        g2 = BipartiteGraph(("b",), ("a", "c"), (("b", "a"), ("b", "c")))
        calls = self.count_searches(monkeypatch)
        assert not are_isomorphic(g1, g2, respect_parts=True).isomorphic
        assert len(calls) == 0
        assert are_isomorphic(g1, g2).isomorphic
        assert len(calls) == 2

    def test_equal_degree_sequences_still_canonicalize(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        assert not are_isomorphic(shrikhande(), rook(4)).isomorphic
        assert len(calls) == 2

    def test_bipartite_requirement_is_checked_first(self):
        with pytest.raises(GraphError, match="bipartite"):
            are_isomorphic(SimpleGraph(("a",), ()), SimpleGraph(("a", "b"), ()), respect_parts=True)


class TestMappingCheck:
    """`are_isomorphic` replays its mapping before it answers, so a wrong
    order from the search raises instead of returning a certificate."""

    PATH = SimpleGraph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d")))

    @pytest.mark.parametrize(
        "mapping, respect_parts, message",
        [
            ({"a": "a", "b": "b", "c": "c"}, False, "does not cover the first vertex set"),
            ({"a": "a", "b": "b", "c": "c", "d": "c"}, False, "is not onto the second"),
            ({"a": "b", "b": "a", "c": "c", "d": "d"}, False, "does not transport the edge"),
            # The reversal keeps the edges but sends point a to circle d.
            ({"a": "d", "b": "c", "c": "b", "d": "a"}, True, "does not preserve the parts"),
        ],
        ids=["misses-vertex", "not-onto", "drops-edges", "point-to-circle"],
    )
    def test_each_refusal(self, mapping, respect_parts, message):
        g = BipartiteGraph(("a", "c"), ("b", "d"), self.PATH.edges) if respect_parts else self.PATH
        with pytest.raises(RuntimeError, match=message):
            canonical._verify_mapping(g, g, mapping, respect_parts)

    @staticmethod
    def swap_targeted_order(monkeypatch):
        # The targeted search returns the right rows with its first two
        # positions swapped; no two vertices of a path on four are twins.
        real = canonical._label

        def wrong(g, respect_parts, target=None):
            rows, order = real(g, respect_parts, target)
            if target is not None:
                order = [order[1], order[0], *order[2:]]
            return rows, order

        monkeypatch.setattr(canonical, "_label", wrong)

    def test_wrong_order_raises(self, monkeypatch):
        self.swap_targeted_order(monkeypatch)
        with pytest.raises(RuntimeError, match="isomorphism mapping"):
            are_isomorphic(self.PATH, self.PATH)

    def test_wrong_order_is_an_internal_error_in_the_cli(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "path.json"
        path.write_text(dumps_obj(payload_to_obj(self.PATH)))
        self.swap_targeted_order(monkeypatch)
        assert main(["iso", str(path), str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: RuntimeError: isomorphism mapping")


def count_nodes(monkeypatch, g, respect_parts):
    """Search nodes of `canonical_form(g, respect_parts)`, as `_refine` calls."""
    import circgraph.canonical as canonical_module

    real = canonical_module._refine
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(canonical_module, "_refine", counted)
    canonical_form(g, respect_parts)
    monkeypatch.setattr(canonical_module, "_refine", real)
    return len(calls)


def doubling_graph(n, seed):
    """neighborhood_graph(triangular(n)) under `relabeled`'s seeded labels."""
    return relabeled(neighborhood_graph(triangular(n)), random.Random(seed))[0]


def disjoint_edges(k):
    """k disjoint edges c{i}_0 -- c{i}_1."""
    labels = tuple(f"c{i}_{j}" for i in range(k) for j in (0, 1))
    return SimpleGraph(labels, tuple((f"c{i}_0", f"c{i}_1") for i in range(k)))


class TestSearchNodeCounts:
    """The number of search nodes, counted as `_refine` calls: one for the
    root and one per child. Twin pruning leaves one child per node on
    edgeless graphs and on the leaves of a star. Orbit pruning and the
    back-jump at leaves equal to the best do the work on the plain-mode
    Paley, strongly regular, CFI and triangular rows. Without the back-jump
    the CFI graphs over K6, K7 and K8 take 1041, 3840 and 13 272 nodes (K8
    about 15 s); with it K8 takes about 0.3 s, so a lost back-jump fails
    here rather than timing out. The relabeled doubling graphs
    (neighborhood graphs of triangular(7) and triangular(8)) and 12
    disjoint edges keep their small counts only while every node prunes
    with all the automorphisms found so far that fix its prefix: keeping at
    most 8 of them takes 171, 324 and 161 nodes there."""

    @pytest.mark.parametrize(
        "build, respect_parts, nodes",
        [
            (lambda: triangular(8), True, 36),
            (lambda: triangular(9), True, 45),
            (lambda: triangular(10), True, 55),
            (lambda: triangular(11), True, 66),
            (lambda: triangular(12), True, 78),
            (lambda: SimpleGraph(tuple(f"v{i}" for i in range(13)), ()), False, 13),
            (lambda: star(14), True, 13),
            (lambda: paley(13), False, 6),
            (shrikhande, False, 10),
            (lambda: rook(4), False, 21),
            (lambda: cfi_k4(False), False, 26),
            (lambda: cfi_k4(True), False, 26),
            (lambda: as_simple(triangular(9)), False, 45),
            (lambda: cfi(list(combinations(range(5), 2)), 5, ()), False, 43),
            (lambda: cfi(list(combinations(range(5), 2)), 5, {0}), False, 43),
            (lambda: cfi(petersen_edges(), 10, ()), False, 68),
            (lambda: cfi(petersen_edges(), 10, {0}), False, 68),
            (lambda: doubling_graph(7, 3), False, 103),
            (lambda: doubling_graph(8, 3), False, 120),
            (lambda: disjoint_edges(12), False, 93),
            (lambda: cfi(list(combinations(range(6), 2)), 6, {0}), False, 100),
            (lambda: cfi(list(combinations(range(7), 2)), 7, {0}), False, 200),
            (lambda: cfi(list(combinations(range(8), 2)), 8, {0}), False, 360),
        ],
        ids=[
            "triangular8-parts",
            "triangular9-parts",
            "triangular10-parts",
            "triangular11-parts",
            "triangular12-parts",
            "isolated13",
            "star14-parts",
            "paley13",
            "shrikhande",
            "rook4",
            "cfi-k4",
            "cfi-k4-twisted",
            "triangular9",
            "cfi-k5",
            "cfi-k5-twisted",
            "cfi-petersen",
            "cfi-petersen-twisted",
            "doubling-triangular7-seed3",
            "doubling-triangular8-seed3",
            "disjoint-edges12",
            "cfi-k6-twisted",
            "cfi-k7-twisted",
            "cfi-k8-twisted",
        ],
    )
    def test_node_count(self, monkeypatch, build, respect_parts, nodes):
        assert count_nodes(monkeypatch, build(), respect_parts) == nodes

    def test_node_count_barely_depends_on_the_labels(self, monkeypatch):
        counts = [count_nodes(monkeypatch, doubling_graph(7, seed), False) for seed in range(1, 17)]
        assert max(counts) <= 4 * min(counts), counts

    @pytest.mark.parametrize(
        "n, nodes",
        [(8, 44), (9, 54), (10, 65)],
        ids=["triangular8-parts", "triangular9-parts", "triangular10-parts"],
    )
    def test_are_isomorphic_node_count(self, monkeypatch, n, nodes):
        # The first graph's full search (36, 45, 55 nodes) plus the second
        # graph's first path: every leaf of triangular(n) equals the best.
        import circgraph.canonical as canonical_module

        g = triangular(n)
        h, _ = relabeled(g, random.Random(n))
        real = canonical_module._refine
        calls = []

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(canonical_module, "_refine", counted)
        assert are_isomorphic(g, h, respect_parts=True).isomorphic
        assert len(calls) == nodes


def random_simple_graph(rng, max_n):
    n = rng.randint(0, max_n)
    p = rng.choice([0.15, 0.35, 0.6, 0.85])
    labels = [f"a{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph(tuple(labels), tuple(edges))


class TestDirtyCellRefinement:
    """After individualizing v in a stable partition, re-keying only the
    cells that hold a neighbour of v gives the cells of a full refinement."""

    def check_chain(self, g, respect_parts, rng):
        idx = g.index
        n = len(idx.labels)
        if respect_parts:
            cells = [[v for v in range(n) if idx.points >> v & 1 == side] for side in (1, 0)]
        else:
            cells = [list(range(n))]
        cells = cell_lists(_refine(idx.masks, cell_masks([c for c in cells if c])))
        while True:
            open_cells = [t for t, cell in enumerate(cells) if len(cell) >= 2]
            if not open_cells:
                return
            t = rng.choice(open_cells)
            v = rng.choice(cells[t])
            cells = cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1 :]
            full = cell_lists(_refine(idx.masks, cell_masks(cells)))
            cells = cell_lists(_refine(idx.masks, cell_masks(cells), cell_masks([[v]])))
            assert cells == full

    def test_random_simple_graphs(self):
        rng = random.Random(4321)
        for _ in range(150):
            self.check_chain(random_simple_graph(rng, 12), False, rng)

    def test_random_bipartite_graphs_both_modes(self):
        rng = random.Random(8765)
        for _ in range(150):
            g = random_bipartite(rng, max_part=6)
            self.check_chain(g, False, rng)
            self.check_chain(g, True, rng)

    def test_regular_tree_and_cfi_graphs(self):
        rng = random.Random(99)
        graphs = [as_simple(triangular(6)), shrikhande(), paley(13), cfi_k4(False), cfi_k4(True)]
        for g in graphs + list(free_trees(8)):
            for _ in range(3):
                self.check_chain(g, False, rng)

    def test_larger_graphs(self):
        # triangular(9) part-respecting (93 vertices) and CFI over K5 (80).
        rng = random.Random(57)
        for _ in range(3):
            self.check_chain(triangular(9), True, rng)
            self.check_chain(cfi(list(combinations(range(5), 2)), 5, ()), False, rng)


class TestTargetCellOrbits:
    """Each call of `_close` leaves in `covered` exactly the orbit union of
    what it held, as a reference that unions orbits over all n vertices from
    scratch finds it. The generators it is given fix every position in a
    singleton cell of the node's partition, which holds its prefix,
    `covered` stays closed under every generator the node has passed so
    far, and it stays inside the node's target cell."""

    def test_agrees_with_all_vertex_reference(self, monkeypatch):
        import circgraph.canonical as canonical_module
        from circgraph import census
        from circgraph.constructions import Design, from_design

        real_children = canonical_module._children
        real_close = canonical_module._close
        # (singleton positions, target cell, generators passed to `_close`
        # so far) of the node whose code is running.
        running = []
        calls = []

        def tracked(masks, twins, cells, t, fixing):
            node = real_children(masks, twins, cells, t, fixing)
            passed = []
            singletons = [cell[0] for cell in cell_lists(cells) if len(cell) == 1]
            while True:
                running.append((singletons, cell_lists(cells)[t], passed))
                child = next(node, None)
                running.pop()
                if child is None:
                    return
                yield child

        def compared(covered, todo, gens):
            singletons, target, passed = running[-1]
            assert all(p[x] == x for p in gens for x in singletons)
            passed += [p for p in gens if p not in passed]
            before = set(covered)
            real_close(covered, todo, gens)
            domain = before.union(range(len(gens[0]))) if gens else before
            assert covered == {
                v for v in domain if reference_in_explored_orbit(gens, (), before, v)
            }
            assert all(p[x] in covered for p in passed for x in covered)
            assert covered <= set(target)
            calls.append((len(gens), len(covered) - len(before)))

        monkeypatch.setattr(canonical_module, "_children", tracked)
        monkeypatch.setattr(canonical_module, "_close", compared)
        for u in range(3, 7):
            points = tuple(str(i) for i in range(1, u + 1))
            for family in census._families(u):
                blocks = [[p for i, p in enumerate(points) if m >> i & 1] for m in family]
                g = from_design(Design(points, blocks))
                canonical_form(g, respect_parts=True)
                canonical_form(g)
        rng = random.Random(2468)
        for _ in range(150):
            g = random_bipartite(rng, max_part=6)
            canonical_form(g, respect_parts=True)
            canonical_form(g)
        # Some calls with generators grow `covered`, and some find it closed.
        grown = [added for k, added in calls if k]
        assert any(grown) and not all(grown)


class TestCoveredReclosure:
    """When a node's generator list grows, `covered` is closed again under
    the whole list, not only under the new generators. On five isolated
    positions, with (2 3) kept from the start and (0 2) arriving after
    candidates 0 and 1, 3 joins 0's orbit through 2, which (0 2) alone
    would not show."""

    def test_whole_list_recloses_covered(self):
        from circgraph.canonical import _children

        fixing = [(0, 1, 3, 2, 4)]
        explored = []
        for _, v in _children([0] * 5, list(range(5)), [0b11111], 0, fixing):
            explored.append(v)
            if v == 1:
                fixing.append((2, 1, 0, 3, 4))
        assert explored == [0, 1, 4]


class TestTwinClasses:
    """Two positions share a class exactly when their open or their closed
    neighbourhoods are equal, the class is the first such position, and no
    position has both an open and a closed twin."""

    def test_matches_pairwise_reference(self):
        from circgraph.canonical import _twin_classes

        rng = random.Random(1357)
        graphs = [random_simple_graph(rng, 10) for _ in range(300)]
        graphs += [as_simple(star(6)), as_simple(triangular(4)), SimpleGraph(("a", "b"), ())]
        with_open_twin = with_closed_twin = 0
        for g in graphs:
            labels = g.index.labels
            n = len(labels)
            closed = [{labels[v]} for v in range(n)]
            pos = {lab: v for v, lab in enumerate(labels)}
            for a, b in g.edges:
                closed[pos[a]].add(b)
                closed[pos[b]].add(a)
            opened = [closed[v] - {labels[v]} for v in range(n)]
            classes = _twin_classes(g.index.masks)
            for v in range(n):
                open_twins = [u for u in range(n) if u != v and opened[u] == opened[v]]
                closed_twins = [u for u in range(n) if u != v and closed[u] == closed[v]]
                assert not (open_twins and closed_twins)
                twins = sorted(open_twins + closed_twins)
                assert [u for u in range(n) if u != v and classes[u] == classes[v]] == twins
                assert classes[v] == min(twins + [v])
                with_open_twin += bool(open_twins)
                with_closed_twin += bool(closed_twins)
        assert with_open_twin and with_closed_twin
