"""File format parsing, emission stability, and DOT export details."""

import json

import pytest

from circgraph.circular import classify, run_all_checks
from circgraph.constructions import Design, star, triangular
from circgraph.fileio import (
    FileFormatError,
    classification_to_obj,
    check_to_obj,
    dumps_obj,
    jsonify,
    parse_payload,
    payload_to_obj,
    sha256_digest,
    to_dot,
)
from circgraph.graphs import UNREACHABLE, BipartiteGraph, SimpleGraph


class TestParse:
    def test_bigraph_round_trip(self):
        g = triangular(4)
        text = dumps_obj(payload_to_obj(g))
        parsed = parse_payload(text)
        assert parsed == g

    def test_simple_round_trip(self):
        g = SimpleGraph(("a", "b"), (("a", "b"),))
        assert parse_payload(dumps_obj(payload_to_obj(g))) == g

    def test_design_round_trip(self):
        d = Design(("1", "2", "3"), (("1", "2", "3"),))
        assert parse_payload(dumps_obj(payload_to_obj(d))) == d

    def test_json_error_carries_position(self):
        with pytest.raises(FileFormatError, match="line 1 column"):
            parse_payload("not json at all")

    def test_non_object_rejected(self):
        with pytest.raises(FileFormatError, match="object"):
            parse_payload("[1, 2]")

    def test_unknown_format_lists_known_tags(self):
        with pytest.raises(FileFormatError, match="bigraph-v1"):
            parse_payload('{"format": "graph-v9"}')

    def test_field_shape_diagnostics(self):
        with pytest.raises(FileFormatError, match="'u'"):
            parse_payload('{"format": "bigraph-v1", "u": "oops", "w": [], "edges": []}')
        with pytest.raises(FileFormatError, match="entry 0"):
            parse_payload('{"format": "graph-v1", "vertices": ["a"], "edges": [["a"]]}')
        with pytest.raises(FileFormatError, match="'blocks'"):
            parse_payload('{"format": "design-v1", "points": ["1"], "blocks": [1]}')

    def test_empty_labels_rejected(self):
        with pytest.raises(FileFormatError):
            parse_payload('{"format": "graph-v1", "vertices": [""], "edges": []}')

    def test_bad_label_named_by_index(self):
        with pytest.raises(FileFormatError, match="'vertices' entry 1"):
            parse_payload('{"format": "graph-v1", "vertices": ["a", ""], "edges": []}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "graph-v1", "vertices": ["\\udc80"], "edges": []}',
            '{"format": "graph-v1", "vertices": ["a", "b"], "edges": [["a", "\\ud800"]]}',
            '{"format": "design-v1", "points": ["a"], "blocks": [["a", "\\udfff"]]}',
        ],
        ids=["label-list", "pair-list", "block-list"],
    )
    def test_labels_that_do_not_encode_rejected(self, text):
        with pytest.raises(FileFormatError):
            parse_payload(text)


class TestEmission:
    def test_sorted_keys_and_trailing_newline(self):
        text = dumps_obj(payload_to_obj(star(4)))
        assert text.endswith("}\n")
        obj = json.loads(text)
        assert list(obj) == sorted(obj)

    def test_vertex_order_is_lexicographic(self):
        g = BipartiteGraph(("u2", "u1"), ("w",), (("u2", "w"), ("u1", "w")))
        obj = payload_to_obj(g)
        assert obj["u"] == ["u1", "u2"]
        assert obj["edges"] == [["u1", "w"], ["u2", "w"]]

    def test_digest_is_prefixed_sha256(self):
        d = sha256_digest("abc")
        assert d.startswith("sha256:") and len(d) == 7 + 64


class TestJsonify:
    def test_sentinel_becomes_text(self):
        assert jsonify(UNREACHABLE) == "unreachable"
        assert jsonify({"d": UNREACHABLE, "r": 3}) == {"d": "unreachable", "r": 3}

    def test_tuples_become_lists(self):
        assert jsonify(("a", ("b",))) == ["a", ["b"]]

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            jsonify(object())

    def test_report_objects_serialize(self):
        g = triangular(4)
        cls = classify(g)
        blob = dumps_obj(
            {
                "classification": classification_to_obj(cls),
                "checks": [check_to_obj(r) for r in run_all_checks(g)],
            }
        )
        parsed = json.loads(blob)
        assert parsed["classification"]["verdict"] == "NonTrivialCircular"
        assert {c["status"] for c in parsed["checks"]} == {"Pass"}


class TestAdversarialLabels:
    def test_odd_labels_survive_the_whole_pipeline(self):
        from circgraph.canonical import are_isomorphic
        from circgraph.constructions import from_design

        points = ('p "q"', "x,y", "z{1}", "ä")
        blocks = tuple(
            tuple(sorted(t)) for t in
            [points[:3], (points[0], points[1], points[3]),
             (points[0], points[2], points[3]), (points[1], points[2], points[3])]
        )
        g = from_design(Design(points, blocks))
        assert classify(g).verdict.value == "NonTrivialCircular"
        text = dumps_obj(payload_to_obj(g))
        assert parse_payload(text) == g
        assert dumps_obj(payload_to_obj(parse_payload(text))) == text
        dot = to_dot(g)
        assert '\\"q\\"' in dot
        assert are_isomorphic(g, triangular(4)).isomorphic


class TestDot:
    def test_boxes_then_circles_then_edges(self):
        out = to_dot(star(4))
        lines = out.splitlines()
        assert lines[0] == "graph G {"
        assert lines[-1] == "}"
        boxes = [l for l in lines if "shape=box" in l]
        circles = [l for l in lines if "shape=circle" in l]
        assert len(boxes) == 3 and len(circles) == 1
        assert lines.index(circles[0]) > lines.index(boxes[-1])

    def test_block_labels_quoted(self):
        out = to_dot(triangular(4))
        assert '"b{1,2,3}" [shape=circle];' in out

    def test_quotes_escaped(self):
        g = SimpleGraph(('he"llo', "x"), (('he"llo', "x"),))
        out = to_dot(g)
        assert '"he\\"llo"' in out

    def test_simple_graphs_have_plain_nodes(self):
        out = to_dot(SimpleGraph(("a", "b"), (("a", "b"),)))
        assert '  "a";' in out
        assert "shape" not in out

    def test_byte_stable(self):
        assert to_dot(triangular(5)) == to_dot(triangular(5))
