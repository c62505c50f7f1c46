"""Stable file formats: JSON graphs and designs in, JSON reports and DOT out.

Three input schemas, selected by the "format" field:

  bigraph-v1  {"format": "bigraph-v1", "u": [...], "w": [...], "edges": [[u, w], ...]}
  graph-v1    {"format": "graph-v1", "vertices": [...], "edges": [[a, b], ...]}
  design-v1   {"format": "design-v1", "points": [...], "blocks": [[...], ...]}

Emission is byte-stable: sorted keys, two-space indent, lexicographic vertex
and edge order, a single trailing newline, and no timestamps. DOT output is
export-only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Union

from . import __version__
from .canonical import IsoCertificate
from .census import CensusEntry
from .circular import CheckReport, CircularClassification
from .constructions import Design, from_design
from .graphs import (
    BipartiteGraph,
    Graph,
    GraphError,
    SimpleGraph,
    UNREACHABLE,
    is_label,
)

Payload = Union[SimpleGraph, BipartiteGraph, Design]

FORMAT_BIGRAPH = "bigraph-v1"
FORMAT_GRAPH = "graph-v1"
FORMAT_DESIGN = "design-v1"
FORMAT_REPORT = "report-v1"


class FileFormatError(GraphError):
    """Malformed input file: bad JSON, missing fields, wrong field shapes."""


_LABEL = "a label (nonempty UTF-8 text)"
_PAIR = "a pair of labels"
_BLOCK = "a list of labels"


def _is_pair(x: Any) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(is_label, x))


def _is_block(x: Any) -> bool:
    return isinstance(x, list) and all(map(is_label, x))


def _list_field(obj: dict, name: str, entry: str, ok: Callable[[Any], bool]) -> list:
    """The list in field `name`, every entry of which satisfies `ok`."""
    value = obj.get(name)
    if not isinstance(value, list):
        raise FileFormatError(f"field {name!r} must be a list, each entry {entry}")
    if not all(map(ok, value)):
        i = next(i for i, x in enumerate(value) if not ok(x))
        raise FileFormatError(f"field {name!r} entry {i} must be {entry}")
    return value


def parse_payload(text: str) -> Payload:
    """Parse a graph or design file; raises FileFormatError with diagnostics."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:
        # Nesting too deep to decode, or an integer past the int-string limit.
        raise FileFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError("top-level JSON value must be an object")
    fmt = obj.get("format")
    if fmt == FORMAT_BIGRAPH:
        return BipartiteGraph(
            _list_field(obj, "u", _LABEL, is_label),
            _list_field(obj, "w", _LABEL, is_label),
            _list_field(obj, "edges", _PAIR, _is_pair),
        )
    if fmt == FORMAT_GRAPH:
        return SimpleGraph(
            _list_field(obj, "vertices", _LABEL, is_label),
            _list_field(obj, "edges", _PAIR, _is_pair),
        )
    if fmt == FORMAT_DESIGN:
        return Design(
            _list_field(obj, "points", _LABEL, is_label),
            _list_field(obj, "blocks", _BLOCK, _is_block),
        )
    raise FileFormatError(
        f"unknown or missing format tag: {fmt!r} "
        f"(expected {FORMAT_BIGRAPH!r}, {FORMAT_GRAPH!r}, or {FORMAT_DESIGN!r})"
    )


def coerce_bipartite(payload: Payload) -> BipartiteGraph:
    """Bipartite view of a payload; designs become their incidence graph."""
    if isinstance(payload, Design):
        return from_design(payload)
    if isinstance(payload, BipartiteGraph):
        return payload
    raise GraphError(
        "a bipartite graph is required: provide a bigraph-v1 or design-v1 file"
    )


def coerce_graph(payload: Payload) -> Graph:
    """Graph view of a payload; designs become their incidence graph."""
    if isinstance(payload, Design):
        return from_design(payload)
    return payload


def payload_to_obj(payload: Payload) -> dict:
    if isinstance(payload, Design):
        return {
            "format": FORMAT_DESIGN,
            "points": list(payload.points),
            "blocks": [list(b) for b in payload.blocks],
        }
    if isinstance(payload, BipartiteGraph):
        return {
            "format": FORMAT_BIGRAPH,
            "u": list(payload.part_u),
            "w": list(payload.part_w),
            "edges": [list(e) for e in payload.edges],
        }
    return {
        "format": FORMAT_GRAPH,
        "vertices": list(payload.vertices),
        "edges": [list(e) for e in payload.edges],
    }


def dumps_obj(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def jsonify(value: Any) -> Any:
    """Recursively convert report values into plain JSON data.

    The str-backed enums pass through as their value strings; the
    unreachable-distance sentinel becomes the string "unreachable".
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if value is UNREACHABLE:
        return "unreachable"
    if isinstance(value, (list, tuple)):
        return [jsonify(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    raise TypeError(f"value is not serializable into a report: {value!r}")


def classification_to_obj(cls: CircularClassification) -> dict:
    witness = None
    if cls.witness is not None:
        witness = {
            "kind": cls.witness.kind.value,
            "vertices": list(cls.witness.vertices),
            "detail": cls.witness.detail,
        }
    return {
        "verdict": cls.verdict.value,
        "witness": witness,
        "triple_axiom_vacuous": cls.triple_axiom_vacuous,
        "note": cls.note,
    }


def check_to_obj(report: CheckReport) -> dict:
    return {
        "check": report.check,
        "status": report.status.value,
        "evidence": jsonify(report.evidence),
        "counterexample": (
            list(report.counterexample) if report.counterexample is not None else None
        ),
    }


def entry_to_obj(entry: CensusEntry) -> dict:
    return {
        "u_size": entry.u_size,
        "w_size": entry.w_size,
        "verdict": entry.verdict.value,
        "diameter": jsonify(entry.diameter),
        "radius": jsonify(entry.radius),
        "u_degrees": list(entry.u_degrees),
        "w_degrees": list(entry.w_degrees),
        "canonical": {
            "n": entry.canonical.n,
            "u_size": entry.canonical.u_size,
            "bits": entry.canonical.bits,
        },
        "graph": payload_to_obj(entry.graph),
    }


def report_obj(
    input_digest: str,
    cls: CircularClassification | None = None,
    checks: tuple[CheckReport, ...] = (),
    census: tuple[CensusEntry, ...] | None = None,
) -> dict:
    obj: dict[str, Any] = {
        "format": FORMAT_REPORT,
        "tool": {"name": "circgraph", "version": __version__},
        "input_digest": input_digest,
    }
    if cls is not None:
        obj["classification"] = classification_to_obj(cls)
    if checks:
        obj["checks"] = [check_to_obj(r) for r in checks]
    if census is not None:
        obj["census"] = [entry_to_obj(e) for e in census]
    return obj


def certificate_to_obj(cert: IsoCertificate) -> dict:
    return {
        "isomorphic": cert.isomorphic,
        "mapping": None if cert.mapping is None else dict(sorted(cert.mapping.items())),
    }


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    """DOT text: point vertices as boxes, circle vertices as circles.

    Export-only; DOT is never parsed back.
    """
    lines = ["graph G {"]
    if isinstance(g, BipartiteGraph):
        for u in g.part_u:
            lines.append(f"  {_dot_quote(u)} [shape=box];")
        for w in g.part_w:
            lines.append(f"  {_dot_quote(w)} [shape=circle];")
    else:
        for v in g.vertices:
            lines.append(f"  {_dot_quote(v)};")
    for a, b in g.edges:
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
