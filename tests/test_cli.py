"""Command-line surface: subcommands, formats, exit codes, determinism."""

import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgraph import __version__, circular, cli
from circgraph.circular import CircularClassification, Verdict
from circgraph.cli import main
from circgraph.constructions import neighborhood_graph, star, triangular
from circgraph.fileio import coerce_bipartite, dumps_obj, parse_payload, payload_to_obj
from circgraph.graphs import disjoint_union

from helpers import relabeled

C6_FILE = dumps_obj(
    {
        "format": "bigraph-v1",
        "u": ["u1", "u2", "u3"],
        "w": ["w1", "w2", "w3"],
        "edges": [
            ["u1", "w1"], ["u1", "w3"], ["u2", "w1"],
            ["u2", "w2"], ["u3", "w2"], ["u3", "w3"],
        ],
    }
)

K4_FILE = dumps_obj(
    {
        "format": "graph-v1",
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]],
    }
)

DESIGN_FILE = dumps_obj(
    {
        "format": "design-v1",
        "points": ["1", "2", "3", "4"],
        "blocks": [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"]],
    }
)


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestBuild:
    def test_build_star(self, capsys):
        code, out, _ = run_cli(["build", "star", "4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["format"] == "bigraph-v1"
        assert obj["u"] == ["u1", "u2", "u3"]
        assert obj["w"] == ["w"]

    def test_build_triangular(self, capsys):
        code, out, _ = run_cli(["build", "triangular", "4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["w"]) == 4 and len(obj["edges"]) == 12

    def test_build_bad_size(self, capsys):
        code, _, err = run_cli(["build", "star", "3"], capsys)
        assert code == 2
        assert "error:" in err


class TestCheckVerify:
    def test_verify_pipeline(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(triangular(4)))
        code, out, _ = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text=built)
        assert code == 0
        report = json.loads(out)
        assert report["classification"]["verdict"] == "NonTrivialCircular"
        metric = next(c for c in report["checks"] if c["check"] == "metric_bounds")
        assert metric["evidence"]["diameter"] == 3
        assert metric["evidence"]["radius"] == 3
        assert all(c["status"] in ("Pass", "NotApplicable") for c in report["checks"])

    def test_check_six_cycle_negative(self, capsys, monkeypatch):
        code, out, _ = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=C6_FILE)
        assert code == 1
        report = json.loads(out)
        assert report["classification"]["verdict"] == "NotCircular"
        assert report["classification"]["witness"]["kind"] == "CircleDegreeTooSmall"

    def test_check_design_file(self, capsys, monkeypatch):
        code, out, _ = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=DESIGN_FILE)
        assert code == 0
        assert json.loads(out)["classification"]["verdict"] == "NonTrivialCircular"

    @pytest.mark.parametrize(
        "design",
        [
            {"points": ["a,b", "c", "d", "a", "b,c"], "blocks": [["a,b", "c", "d"], ["a", "b,c", "d"]]},
            {"points": ["x", "y", "z", "b{x,y,z}"], "blocks": [["x", "y", "z"]]},
        ],
        ids=["two-blocks-one-label", "block-label-is-a-point"],
    )
    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_design_with_colliding_block_labels(self, capsys, monkeypatch, command, design):
        text = dumps_obj({"format": "design-v1", **design})
        code, out, err = run_cli([command, "-"], capsys, monkeypatch, stdin_text=text)
        assert code in (0, 1), err
        assert json.loads(out)["classification"]["verdict"]

    def test_verify_classifies_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "triangular5.json"
        path.write_text(dumps_obj(payload_to_obj(triangular(5))), encoding="utf-8")
        calls = []
        real = circular._classify
        monkeypatch.setattr(
            circular, "_classify", lambda g, idx: calls.append(g) or real(g, idx)
        )
        code, _, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_verify_requires_bipartite(self, capsys, monkeypatch):
        code, _, err = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text=K4_FILE)
        assert code == 2
        assert "bipartite" in err

    def test_report_digest_stable(self, capsys, monkeypatch):
        code1, out1, _ = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=C6_FILE)
        code2, out2, _ = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=C6_FILE)
        assert (code1, out1) == (code2, out2)
        assert json.loads(out1)["input_digest"].startswith("sha256:")


class TestDerive:
    def test_neighborhood_of_k4(self, tmp_path, capsys):
        k4 = tmp_path / "k4.json"
        k4.write_text(K4_FILE)
        code, out, _ = run_cli(["derive", "neighborhood", str(k4)], capsys)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["u"]) == 4 and len(obj["w"]) == 4 and len(obj["edges"]) == 12

    def test_linear_derivation(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(triangular(4)))
        code, out, _ = run_cli(
            ["derive", "linear", "--pivot", "1", "-"], capsys, monkeypatch, stdin_text=built
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["u"]) == 3 and len(obj["w"]) == 3 and len(obj["edges"]) == 6

    def test_linear_without_pivot(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(triangular(4)))
        code, _, err = run_cli(["derive", "linear", "-"], capsys, monkeypatch, stdin_text=built)
        assert code == 2
        assert "--pivot" in err

    def test_linear_on_trivial_star(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(star(5)))
        code, _, err = run_cli(
            ["derive", "linear", "--pivot", "u1", "-"], capsys, monkeypatch, stdin_text=built
        )
        assert code == 2
        assert "non-trivial" in err


class TestIso:
    def test_neighborhood_k4_vs_triangular4(self, tmp_path, capsys):
        k4 = tmp_path / "k4.json"
        k4.write_text(K4_FILE)
        code, out, _ = run_cli(["derive", "neighborhood", str(k4)], capsys)
        assert code == 0
        nk4 = tmp_path / "nk4.json"
        nk4.write_text(out)
        tri = tmp_path / "tri.json"
        tri.write_text(dumps_obj(payload_to_obj(triangular(4))))
        code, out, _ = run_cli(["iso", str(nk4), str(tri)], capsys)
        assert code == 0
        cert = json.loads(out)
        assert cert["isomorphic"] is True
        assert len(cert["mapping"]) == 8

    def test_non_isomorphic_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(dumps_obj(payload_to_obj(star(4))))
        b = tmp_path / "b.json"
        b.write_text(dumps_obj(payload_to_obj(star(5))))
        code, out, _ = run_cli(["iso", str(a), str(b)], capsys)
        assert code == 1
        assert json.loads(out)["mapping"] is None

    def test_respect_parts_flag(self, tmp_path, capsys):
        g1 = tmp_path / "g1.json"
        g1.write_text(dumps_obj({"format": "bigraph-v1", "u": ["a", "c"], "w": ["b"], "edges": [["a", "b"], ["c", "b"]]}))
        g2 = tmp_path / "g2.json"
        g2.write_text(dumps_obj({"format": "bigraph-v1", "u": ["b"], "w": ["a", "c"], "edges": [["b", "a"], ["b", "c"]]}))
        code, _, _ = run_cli(["iso", str(g1), str(g2)], capsys)
        assert code == 0
        code, _, _ = run_cli(["iso", "--respect-parts", str(g1), str(g2)], capsys)
        assert code == 1

    def test_empty_graphs_are_isomorphic_with_empty_mapping(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(dumps_obj({"format": "graph-v1", "vertices": [], "edges": []}))
        code, out, _ = run_cli(["iso", str(empty), str(empty)], capsys)
        assert code == 0
        assert json.loads(out) == {"isomorphic": True, "mapping": {}}

    def test_edgeless_1200_pair_answers(self, tmp_path, capsys):
        # 1200 interchangeable vertices: the search path is 1200 nodes deep.
        rng = random.Random(1200)
        paths, vertex_sets = [], []
        for name in ("a", "b"):
            vertices = [f"{name}{i}" for i in range(1200)]
            rng.shuffle(vertices)
            vertex_sets.append(sorted(vertices))
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dumps_obj({"format": "graph-v1", "vertices": vertices, "edges": []}))
        code, out, _ = run_cli(["iso", str(paths[0]), str(paths[1])], capsys)
        assert code == 0
        cert = json.loads(out)
        assert cert["isomorphic"] is True
        assert sorted(cert["mapping"]) == vertex_sets[0]
        assert sorted(cert["mapping"].values()) == vertex_sets[1]

    def test_respect_parts_star20_pair_answers(self, tmp_path, capsys):
        code, out, _ = run_cli(["build", "star", "20"], capsys)
        assert code == 0
        star20 = coerce_bipartite(parse_payload(out))
        rng = random.Random(20)
        graphs, paths = [], []
        for name in ("a", "b"):
            graphs.append(relabeled(star20, rng)[0])
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dumps_obj(payload_to_obj(graphs[-1])))
        code, out, _ = run_cli(["iso", "--respect-parts", str(paths[0]), str(paths[1])], capsys)
        assert code == 0
        mapping = json.loads(out)["mapping"]
        g1, g2 = graphs
        assert {frozenset((mapping[a], mapping[b])) for a, b in g1.edges} == {frozenset(e) for e in g2.edges}
        assert {mapping[u] for u in g1.part_u} == set(g2.part_u)

    def test_double_stdin_rejected(self, capsys, monkeypatch):
        code, _, err = run_cli(["iso", "-", "-"], capsys, monkeypatch, stdin_text="{}")
        assert code == 2
        assert "standard input" in err


class TestEnum:
    def test_circular_census(self, capsys):
        code, out, _ = run_cli(["enum", "circular", "--u", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["census"]) == 2
        verdicts = {entry["verdict"] for entry in report["census"]}
        assert verdicts == {"TrivialCircular", "NonTrivialCircular"}

    def test_tree_census(self, capsys):
        code, out, _ = run_cli(["enum", "trees", "--max", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["census"]) == 1
        assert report["census"][0]["u_size"] == 3

    def test_repeat_runs_print_identical_bytes(self, capsys):
        _, first, _ = run_cli(["enum", "circular", "--u", "5"], capsys)
        _, second, _ = run_cli(["enum", "circular", "--u", "5"], capsys)
        assert first == second

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(["enum", "circular"], capsys)
        assert code == 2
        assert "--u" in err

    def test_tree_census_without_max(self, capsys):
        code, out, err = run_cli(["enum", "trees"], capsys)
        assert code == 2
        assert out == ""
        assert "--max N is required for the tree census" in err

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(["enum", "circular", "--u", "9"], capsys)
        assert code == 2


class TestPinnedOutput:
    """sha256 of stdout, recorded once: canonical bits and iso mappings must
    not drift between versions."""

    PINNED = {
        "enum circular --u 5": (
            "37c52a829651160ff90690bc78ed70a2a2afc851d32f5e5dfa2c8dad686d8d2a"
        ),
        "enum trees --max 8": (
            "48ea44f1c90f0f28fb5d7fe27be5ddc9eb976c45f093a24601fa6359f090f33f"
        ),
        "iso --respect-parts triangular(6)": (
            "4aa18e02166626ea8c2389d044d2189d03c8a725e2ef1f0f8555aebbb660bbfa"
        ),
        "iso neighborhood(triangular(5)) doubling": (
            "66fedabb77ad911ff179358895fc6f22ff4f17ee9147819ae0776eede3848f1e"
        ),
        "enum circular --u 6": (
            "35922d652634265e782702c791d33114894f28b5c4c02fab7fd0f4062e33088b"
        ),
        "build triangular 7 | verify -": (
            "3724cfdea251ab9d01722e29a6105bd6663d53287c8d6007e9947c405f61ad2f"
        ),
        "enum trees --max 10": (
            "6c3f216b8329f591d7bc27e13aa22d210c707bec20750558f350fea254b6d582"
        ),
        "iso --respect-parts triangular(9)": (
            "5a24739bb7c234590845703f2fedcf7f12411b0659c323c4fec1e52fdae35e27"
        ),
    }

    def assert_pinned(self, name, argv, capsys, code=0):
        got, out, _ = run_cli(argv, capsys)
        assert got == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[name]

    def test_circular_census(self, capsys):
        self.assert_pinned("enum circular --u 5", ["enum", "circular", "--u", "5"], capsys)

    def test_tree_census(self, capsys):
        self.assert_pinned("enum trees --max 8", ["enum", "trees", "--max", "8"], capsys)

    def test_part_respecting_iso(self, tmp_path, capsys):
        rng = random.Random(2024)
        paths = []
        for name in ("a", "b"):
            g, _ = relabeled(triangular(6), rng)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dumps_obj(payload_to_obj(g)))
        argv = ["iso", "--respect-parts", str(paths[0]), str(paths[1])]
        self.assert_pinned("iso --respect-parts triangular(6)", argv, capsys)

    def test_part_respecting_iso_triangular9(self, tmp_path, capsys):
        rng = random.Random(2025)
        paths = []
        for name in ("a", "b"):
            g, _ = relabeled(triangular(9), rng)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dumps_obj(payload_to_obj(g)))
        argv = ["iso", "--respect-parts", str(paths[0]), str(paths[1])]
        self.assert_pinned("iso --respect-parts triangular(9)", argv, capsys)

    def test_neighborhood_doubling_iso(self, tmp_path, capsys):
        g = triangular(5)
        nbhd = tmp_path / "nbhd.json"
        nbhd.write_text(dumps_obj(payload_to_obj(neighborhood_graph(g))))
        double = tmp_path / "double.json"
        double.write_text(dumps_obj(payload_to_obj(disjoint_union(g, g))))
        argv = ["iso", str(nbhd), str(double)]
        self.assert_pinned("iso neighborhood(triangular(5)) doubling", argv, capsys)

    def test_tree_census_max10(self, capsys):
        self.assert_pinned("enum trees --max 10", ["enum", "trees", "--max", "10"], capsys)

    def test_circular_census_u6(self, capsys):
        self.assert_pinned("enum circular --u 6", ["enum", "circular", "--u", "6"], capsys)

    def test_verify_built_triangular(self, capsys, monkeypatch):
        _, built, _ = run_cli(["build", "triangular", "7"], capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(built))
        self.assert_pinned("build triangular 7 | verify -", ["verify", "-"], capsys)


class TestPinnedReportObjects:
    """Whole report objects, key for key: the JSON schema of the
    classification, each check and the isomorphism certificate."""

    @staticmethod
    def report(text, **fields):
        return {
            "format": "report-v1",
            "tool": {"name": "circgraph", "version": __version__},
            "input_digest": "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest(),
            **fields,
        }

    @pytest.mark.parametrize(
        "payload, classification",
        [
            (
                {"format": "design-v1", "points": ["1", "2", "3", "4"], "blocks": [["1", "2", "3"]]},
                {
                    "verdict": "NotCircular",
                    "witness": {"kind": "TripleUncovered", "vertices": ["1", "2", "4"], "detail": 0},
                    "triple_axiom_vacuous": False,
                    "note": None,
                },
            ),
            (
                {
                    "format": "design-v1",
                    "points": ["1", "2", "3", "4"],
                    "blocks": [["1", "2", "3"], ["1", "2", "3", "4"]],
                },
                {
                    "verdict": "NotCircular",
                    "witness": {"kind": "TripleOvercovered", "vertices": ["1", "2", "3"], "detail": 2},
                    "triple_axiom_vacuous": False,
                    "note": None,
                },
            ),
            (
                {"format": "bigraph-v1", "u": ["a"], "w": ["w"], "edges": [["a", "w"]]},
                {
                    "verdict": "NotCircular",
                    "witness": {"kind": "CircleDegreeTooSmall", "vertices": ["w"], "detail": 1},
                    "triple_axiom_vacuous": True,
                    "note": (
                        "part U has a single point: nominally the trivial case, "
                        "but no circle can reach degree 3; classified not circular"
                    ),
                },
            ),
            (
                {"format": "bigraph-v1", "u": ["a", "b"], "w": [], "edges": []},
                {
                    "verdict": "NotCircular",
                    "witness": {"kind": "PartError", "vertices": [], "detail": None},
                    "triple_axiom_vacuous": True,
                    "note": "no circles and at most two points: nothing models a circular space",
                },
            ),
        ],
        ids=["triple-uncovered", "triple-overcovered", "circle-degree", "part-error"],
    )
    def test_check_witness(self, payload, classification, capsys, monkeypatch):
        text = dumps_obj(payload)
        code, out, _ = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 1
        assert json.loads(out) == self.report(text, classification=classification)

    def test_failing_checks_with_counterexamples(self, capsys, monkeypatch):
        # The six-cycle plus an isolated point, forced non-trivial as in
        # TestDistanceProfileFailures, so every check runs and three fail.
        forced = CircularClassification(Verdict.NON_TRIVIAL_CIRCULAR, None, False)
        monkeypatch.setattr(circular, "classify", lambda g: forced)
        monkeypatch.setattr(cli, "classify", lambda g: forced)
        obj = json.loads(C6_FILE)
        obj["u"].append("u4")
        text = dumps_obj(obj)
        code, out, _ = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 1
        assert json.loads(out) == self.report(
            text,
            classification={
                "verdict": "NonTrivialCircular",
                "witness": None,
                "triple_axiom_vacuous": False,
                "note": None,
            },
            checks=[
                {
                    "check": "w_pair_bound",
                    "status": "Pass",
                    "evidence": {"max_cn": 1, "max_pair": ["w1", "w2"], "pair_count": 3},
                    "counterexample": None,
                },
                {
                    "check": "point_degrees",
                    "status": "Fail",
                    "evidence": {"min_degree": 0, "vertex": "u4"},
                    "counterexample": ["u4"],
                },
                {
                    "check": "distance_profile",
                    "status": "Fail",
                    "evidence": {
                        "u_pair_distances": [2, "unreachable"],
                        "w_pair_distances": [2],
                        "u_w_distances": [1, 3, "unreachable"],
                    },
                    "counterexample": ["u1", "u4"],
                },
                {
                    "check": "metric_bounds",
                    "status": "Fail",
                    "evidence": {
                        "diameter": "unreachable",
                        "radius": "unreachable",
                        "connected": False,
                        "case": "non-trivial",
                    },
                    "counterexample": None,
                },
            ],
        )

    def test_non_isomorphic_certificate(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(dumps_obj(payload_to_obj(star(4))))
        b = tmp_path / "b.json"
        b.write_text(dumps_obj(payload_to_obj(star(5))))
        code, out, _ = run_cli(["iso", str(a), str(b)], capsys)
        assert code == 1
        assert out == '{\n  "isomorphic": false,\n  "mapping": null\n}\n'


class TestExport:
    @pytest.mark.parametrize("text", [C6_FILE, K4_FILE, DESIGN_FILE])
    def test_json_round_trip_is_byte_identical(self, text, capsys, monkeypatch):
        code, out1, _ = run_cli(["export", "--format", "json", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 0
        code, out2, _ = run_cli(["export", "--format", "json", "-"], capsys, monkeypatch, stdin_text=out1)
        assert code == 0
        assert out1 == out2

    def test_dot_star(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(star(4)))
        code, out, _ = run_cli(["export", "--format", "dot", "-"], capsys, monkeypatch, stdin_text=built)
        assert code == 0
        node_lines = [l for l in out.splitlines() if "shape=" in l]
        edge_lines = [l for l in out.splitlines() if " -- " in l]
        assert len(node_lines) == 4
        assert len(edge_lines) == 3
        assert out.index("u1") < out.index('"w"')

    def test_dot_counts_triangular(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(triangular(4)))
        code, out, _ = run_cli(["export", "--format", "dot", "-"], capsys, monkeypatch, stdin_text=built)
        node_lines = [l for l in out.splitlines() if "shape=" in l]
        edge_lines = [l for l in out.splitlines() if " -- " in l]
        assert (len(node_lines), len(edge_lines)) == (8, 12)

    def test_dot_is_export_only(self, capsys, monkeypatch):
        built = dumps_obj(payload_to_obj(star(4)))
        _, dot, _ = run_cli(["export", "--format", "dot", "-"], capsys, monkeypatch, stdin_text=built)
        code, _, err = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=dot)
        assert code == 2
        assert "invalid JSON" in err


class TestErrorHandling:
    def test_malformed_json_diagnostics(self, capsys, monkeypatch):
        code, _, err = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text="{not json")
        assert code == 2
        assert "line 1" in err

    def test_unknown_format_tag(self, capsys, monkeypatch):
        code, _, err = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text='{"format": "nope"}')
        assert code == 2
        assert "format" in err

    @pytest.mark.parametrize(
        "tag",
        [["bigraph-v1"], {"format": "graph-v1"}, 3, None],
        ids=["list", "object", "number", "null"],
    )
    def test_non_string_format_tag(self, tag, capsys, monkeypatch):
        text = json.dumps({"format": tag})
        code, out, err = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: unknown or missing format tag: {tag!r} "
            "(expected 'bigraph-v1', 'graph-v1', or 'design-v1')\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["check", "/no/such/file.json"], capsys)
        assert code == 2

    def test_unknown_subcommand_usage_error(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_internal_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        # An internal failure must not read as exit 1, "not isomorphic".
        path = tmp_path / "star.json"
        path.write_text(dumps_obj(payload_to_obj(star(4))))

        def fail(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "are_isomorphic", fail)
        code, out, err = run_cli(["iso", str(path), str(path)], capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            '{"format": "graph-v1", "vertices": [' + "1" * 5000 + "]}",
        ],
        ids=["nested-200k-deep", "5000-digit-integer"],
    )
    def test_hostile_json_is_an_input_error(self, text, capsys, monkeypatch):
        code, out, err = run_cli(["verify", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_undecodable_stdin_is_an_input_error(self, capsys, monkeypatch):
        # A process reading stdin sees an undecodable byte as an escape, as here.
        raw = b'{"format": "bigraph-v1", "u": ["a\xffb"], "w": ["c"], "edges": [["a\xffb", "c"]]}'
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(["check", "-"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [["export", "--format", "json", "{path}"], ["iso", "{path}", "{path}"], ["check", "{path}"]],
        ids=["export", "iso", "check"],
    )
    def test_lone_surrogate_label_is_an_input_error(self, argv, tmp_path, capsys):
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"format": "bigraph-v1", "u": ["\\ud800"], "w": ["c"], "edges": [["\\ud800", "c"]]}'
        )
        code, out, err = run_cli([a.format(path=path) for a in argv], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_bad_edge_shape(self, capsys, monkeypatch):
        text = dumps_obj({"format": "graph-v1", "vertices": ["a"], "edges": [["a"]]})
        code, _, err = run_cli(["check", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 2
        assert "edges" in err

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=120))
    def test_verify_never_crashes(self, text):
        import sys

        old = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            assert main(["verify", "-"]) in (0, 1, 2)
        finally:
            sys.stdin = old
