"""Malformed values reach no further than `GraphError`.

The constructors reject whatever they are given with `GraphError`
(`BipartiteError` for a bipartite graph), never with a `TypeError` from deep
inside the validation. The file reader checks only a file's envelope
(`FileFormatError`) and leaves every entry to the constructors.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgraph.cli import main
from circgraph.constructions import Design
from circgraph.fileio import parse_payload
from circgraph.graphs import BipartiteError, BipartiteGraph, GraphError, SimpleGraph

from helpers import REFERENCE_ENTRY_RULES, reference_refuses_an_entry
from strategies import json_fields

AB, ABC = ("a", "b"), ("a", "b", "c")
PAIR, BLOCK = "edge must be a pair of labels", "block must be a list of labels"


class TestMalformedEntries:
    """Every construction path rejects malformed input with `GraphError`.

    Text and dicts are not collections of labels here: an edge "ab" or a
    block "abc" is refused, not split into its characters, and an edge
    {"a": 1, "b": 2} is refused, not taken by its keys. The same holds for
    a whole field: a vertex set, part, point set, edge list or block list
    that is text or a dict is refused.
    """

    @pytest.mark.parametrize(
        "build, fields, message",
        [
            (SimpleGraph, (AB, [(1, "a")]), f"{PAIR}: (1, 'a')"),
            (SimpleGraph, (AB, [(None, "a")]), f"{PAIR}: (None, 'a')"),
            (SimpleGraph, (AB, [(["a"], "b")]), f"{PAIR}: (['a'], 'b')"),
            (SimpleGraph, (AB, [5]), f"{PAIR}: 5"),
            (SimpleGraph, (AB, ["ab"]), f"{PAIR}: 'ab'"),
            (SimpleGraph, (AB, [{"a": 1, "b": 2}]), f"{PAIR}: {{'a': 1, 'b': 2}}"),
            (SimpleGraph, (AB, 5), "edge list must be a collection: 5"),
            (SimpleGraph, (None, ()), "vertex set must be a collection: None"),
            (SimpleGraph, ("ab", ()), "vertex set must be a collection: 'ab'"),
            (BipartiteGraph, (("a",), ("b",), [(["a"], "b")]), f"{PAIR}: (['a'], 'b')"),
            (BipartiteGraph, (("a",), ("b",), [5]), f"{PAIR}: 5"),
            (BipartiteGraph, (("a",), ("b",), ["ab"]), f"{PAIR}: 'ab'"),
            (BipartiteGraph, (("a",), ("b",), [{"a": 1, "b": 2}]), f"{PAIR}: {{'a': 1, 'b': 2}}"),
            (BipartiteGraph, (("a",), 3.5, ()), "part W must be a collection: 3.5"),
            (Design, (ABC, [5]), f"{BLOCK}: 5"),
            (Design, (ABC, [["a", "b", ["c"]]]), f"{BLOCK}: ['a', 'b', ['c']]"),
            (Design, (ABC, ["abc"]), f"{BLOCK}: 'abc'"),
            (Design, (ABC, [{"a": 1, "b": 2, "c": 3}]), f"{BLOCK}: {{'a': 1, 'b': 2, 'c': 3}}"),
            (Design, (ABC, [["a", "b", None]]), f"{BLOCK}: ['a', 'b', None]"),
            (Design, (ABC, True), "block list must be a collection: True"),
            (
                SimpleGraph,
                ({"a": 1, "b": 2}, ()),
                "vertex set must be a collection: {'a': 1, 'b': 2}",
            ),
            (
                SimpleGraph,
                (AB, {("a", "b"): None}),
                "edge list must be a collection: {('a', 'b'): None}",
            ),
            (BipartiteGraph, ({"a": 0}, ("b",), ()), "part U must be a collection: {'a': 0}"),
            (
                Design,
                ({"a": 0, "b": 0, "c": 0}, ()),
                "point set must be a collection: {'a': 0, 'b': 0, 'c': 0}",
            ),
        ],
        ids=[
            "simple-int-endpoint", "simple-null-endpoint", "simple-list-endpoint",
            "simple-int-edge", "simple-text-edge", "simple-dict-edge", "simple-int-edges",
            "simple-null-vertices", "simple-text-vertices", "bipartite-list-endpoint",
            "bipartite-int-edge", "bipartite-text-edge", "bipartite-dict-edge",
            "bipartite-float-part", "design-int-block", "design-nested-member",
            "design-text-block", "design-dict-block", "design-null-member",
            "design-bool-blocks", "simple-dict-vertices", "simple-dict-edges",
            "bipartite-dict-part", "design-dict-points",
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


class TestOneShotFields:
    """A field given as an iterator builds the value its list builds: each
    field is read once, and the labels kept are the ones validated."""

    @pytest.mark.parametrize(
        "build, fields",
        [
            (SimpleGraph, (["b", "a"], [("a", "b")])),
            (BipartiteGraph, (["u2", "u1"], ["w"], [("u1", "w"), ("w", "u2")])),
            (Design, (["c", "a", "b", "d"], [["a", "b", "c"], ["d", "a", "b"]])),
        ],
        ids=["simple", "bipartite", "design"],
    )
    def test_iterator_fields_build_the_list_value(self, build, fields):
        assert build(*map(iter, fields)) == build(*fields)

    def test_too_small_iterator_block_named_in_full(self):
        with pytest.raises(GraphError) as exc:
            Design(ABC, [iter(["a", "b"])])
        assert str(exc.value) == "block must contain at least three distinct points: ['a', 'b']"


def _check_stdin(text):
    """Exit code and stdout of `circgraph check -` run on text."""
    out = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", "-"])
    finally:
        sys.stdin = old
    return code, out.getvalue()


class TestFileEntries:
    """The constructors alone check a file's entries: every file whose
    entries the reader's former rules refused (`reference_refuses_an_entry`)
    is still refused, now by the value type, and the CLI reports it as an
    input error."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(REFERENCE_ENTRY_RULES)), st.data())
    def test_entries_the_former_rules_refuse_are_refused(self, tag, data):
        obj = {"format": tag}
        for key, _ in REFERENCE_ENTRY_RULES[tag]:
            if data.draw(st.integers(0, 9)):  # now and then a field is missing
                obj[key] = data.draw(json_fields)
        text = json.dumps(obj)
        # The rules read the decoded file, where tuples have become lists.
        refused = reference_refuses_an_entry(json.loads(text))
        try:
            parse_payload(text)
        except GraphError:
            pass
        else:
            assert not refused
        if refused:
            assert _check_stdin(text) == (2, "")
