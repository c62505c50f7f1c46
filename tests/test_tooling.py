"""Checks on the repository's tooling and documents: the benchmark's tracer
must still find every name it wraps, and README's library example must still
print what it says."""

import importlib
import importlib.util
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

from circgraph.constructions import triangular
from circgraph.fileio import dumps_obj, payload_to_obj

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
WORKER_PATH = SPANS_PATH.parent / "worker.py"
README_PATH = SPANS_PATH.parent.parent / "README.md"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"circgraph.{module}.{attribute}"
        for module, attribute, *_ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"circgraph.{module}"), attribute, None))
    ]
    assert missing == []


def test_traced_layers_are_still_called(tmp_path):
    # A traced name the program stopped calling would read 0 in every run.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    graph = tmp_path / "triangular6.json"
    graph.write_text(dumps_obj(payload_to_obj(triangular(6))), encoding="utf-8")
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps([["enum", "circular", "--u", "5"], ["verify", str(graph)]]),
        encoding="utf-8",
    )
    out = tmp_path / "out.json"
    subprocess.run(
        [sys.executable, str(WORKER_PATH), str(plan), str(out), "1"],
        check=True,
        timeout=120,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert [op["exit"] for op in result["ops"]] == [0, 0]
    metrics = spans.layer_metrics(result["spans"], 0)
    # The tracer counts `from_design` calls under `enumerate_circular`: one
    # per class winner, so 3 of the 7 labeled families at u = 5.
    assert metrics["census.families"] == 3
    assert metrics["census.classes"] == 3
    assert metrics["graphs.all_pairs_distances.ms"] > 0


def test_readme_library_example_prints_its_comments(capsys):
    # Every comment in the block is one line of its output, in order.
    library = README_PATH.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        tok.string.removeprefix("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
