"""The benchmark's tracer must still find every name it wraps."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from circgraph.constructions import triangular
from circgraph.fileio import dumps_obj, payload_to_obj

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
WORKER_PATH = SPANS_PATH.parent / "worker.py"


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
    assert metrics["census.families"] == 7
    assert metrics["census.classes"] == 3
    assert metrics["graphs.all_pairs_distances.ms"] > 0
