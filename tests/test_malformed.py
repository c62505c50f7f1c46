"""Malformed values reach no further than `GraphError`.

The constructors and the file reader reject whatever they are given with
`GraphError` (`BipartiteError` for a bipartite graph, `FileFormatError` for a
file), never with a `TypeError` from deep inside the validation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgraph.constructions import Design
from circgraph.fileio import parse_payload
from circgraph.graphs import BipartiteError, BipartiteGraph, GraphError, SimpleGraph

from strategies import json_fields

FIELDS = {
    "graph-v1": ("vertices", "edges"),
    "bigraph-v1": ("u", "w", "edges"),
    "design-v1": ("points", "blocks"),
}
AB, ABC = ("a", "b"), ("a", "b", "c")
PAIR, BLOCK = "edge must be a pair of labels", "block must be a list of labels"


class TestMalformedEntries:
    """Every construction path rejects malformed input with `GraphError`.

    Text is not a collection of labels here: an edge "ab" or a block "abc"
    is refused, not split into its characters.
    """

    @pytest.mark.parametrize(
        "build, fields, message",
        [
            (SimpleGraph, (AB, [(1, "a")]), f"{PAIR}: (1, 'a')"),
            (SimpleGraph, (AB, [(None, "a")]), f"{PAIR}: (None, 'a')"),
            (SimpleGraph, (AB, [(["a"], "b")]), f"{PAIR}: (['a'], 'b')"),
            (SimpleGraph, (AB, [5]), f"{PAIR}: 5"),
            (SimpleGraph, (AB, ["ab"]), f"{PAIR}: 'ab'"),
            (SimpleGraph, (AB, 5), "edge list must be a collection: 5"),
            (SimpleGraph, (None, ()), "vertex set must be a collection: None"),
            (SimpleGraph, ("ab", ()), "vertex set must be a collection: 'ab'"),
            (BipartiteGraph, (("a",), ("b",), [(["a"], "b")]), f"{PAIR}: (['a'], 'b')"),
            (BipartiteGraph, (("a",), ("b",), [5]), f"{PAIR}: 5"),
            (BipartiteGraph, (("a",), ("b",), ["ab"]), f"{PAIR}: 'ab'"),
            (BipartiteGraph, (("a",), 3.5, ()), "part W must be a collection: 3.5"),
            (Design, (ABC, [5]), f"{BLOCK}: 5"),
            (Design, (ABC, [["a", "b", ["c"]]]), f"{BLOCK}: ['a', 'b', ['c']]"),
            (Design, (ABC, ["abc"]), f"{BLOCK}: 'abc'"),
            (Design, (ABC, [["a", "b", None]]), f"{BLOCK}: ['a', 'b', None]"),
            (Design, (ABC, True), "block list must be a collection: True"),
        ],
        ids=[
            "simple-int-endpoint", "simple-null-endpoint", "simple-list-endpoint",
            "simple-int-edge", "simple-text-edge", "simple-int-edges", "simple-null-vertices",
            "simple-text-vertices", "bipartite-list-endpoint", "bipartite-int-edge",
            "bipartite-text-edge", "bipartite-float-part", "design-int-block",
            "design-nested-member", "design-text-block", "design-null-member",
            "design-bool-blocks",
        ],
    )
    def test_rejected_with_graph_error(self, build, fields, message):
        error = BipartiteError if build is BipartiteGraph else GraphError
        with pytest.raises(error) as exc:
            build(*fields)
        assert str(exc.value) == message

    def test_earlier_messages_kept(self):
        # Non-text endpoints that never raised TypeError keep their messages.
        with pytest.raises(GraphError) as exc:
            SimpleGraph(("a",), [(1, 2)])
        assert str(exc.value) == (
            "edge endpoint is not a declared vertex: 1; edge endpoint is not a declared vertex: 2"
        )
        with pytest.raises(BipartiteError) as exc:
            BipartiteGraph(("a",), ("b",), [(1, "b")])
        assert exc.value.violations == ("edge endpoint is not a declared vertex: 1",)
        with pytest.raises(GraphError) as exc:
            Design(("a", "b", "c"), [[1, 2, 3]])
        assert str(exc.value) == "block member is not a declared point: 1, 2, 3"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_field_values_build_or_raise_graph_error(self, data):
        for build, count in ((SimpleGraph, 2), (BipartiteGraph, 3), (Design, 2)):
            values = [data.draw(json_fields) for _ in range(count)]
            try:
                build(*values)
            except BipartiteError:
                assert build is BipartiteGraph
            except GraphError:
                assert build is not BipartiteGraph


class TestReaderGuard:
    """The reader's entry rules stop malformed fields before any constructor
    runs, so a file never reaches the constructors' own checks."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_known_tag_with_any_fields_raises_only_graph_error(self, tag, data):
        obj = {"format": tag}
        for name in FIELDS[tag]:
            if data.draw(st.integers(0, 9)):  # now and then a field is missing
                obj[name] = data.draw(json_fields)
        try:
            parse_payload(json.dumps(obj))
        except GraphError:
            pass
