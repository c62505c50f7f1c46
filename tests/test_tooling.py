"""The benchmark's tracer must still find every name it wraps."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
