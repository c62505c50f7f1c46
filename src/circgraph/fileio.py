"""Stable file formats: JSON graphs and designs in, JSON reports and DOT out.

Three input schemas, selected by the "format" field:

  bigraph-v1  {"format": "bigraph-v1", "u": [...], "w": [...], "edges": [[u, w], ...]}
  graph-v1    {"format": "graph-v1", "vertices": [...], "edges": [[a, b], ...]}
  design-v1   {"format": "design-v1", "points": [...], "blocks": [[...], ...]}

Reading and writing share one schema table, `_SCHEMAS`: each tag names its
value type and its fields once, in argument order. `parse_payload` checks
only the envelope (valid JSON, an object, a known tag, each field a list)
and passes the lists to the value type, whose constructor checks every entry
and reports each violation; `payload_to_obj` reads the value's attributes
through the table, and the unknown-tag message lists the table's tags.

Emission is byte-stable: sorted keys, two-space indent, lexicographic vertex
and edge order, a single trailing newline, and no timestamps. DOT output is
export-only.

A report object is its value's fields, written by `jsonify`: the field names
of `CircularClassification`, `Violation`, `CheckReport`, `IsoCertificate` and
`CensusEntry` are report keys. Enums become their values, tuples become
lists, and `UNREACHABLE` becomes "unreachable".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Union

from . import __version__
from .canonical import CanonicalForm, IsoCertificate
from .census import CensusEntry
from .circular import CheckReport, CircularClassification
from .constructions import Design, from_design
from .graphs import (
    BipartiteGraph,
    Graph,
    GraphError,
    SimpleGraph,
    UNREACHABLE,
)

Payload = Union[SimpleGraph, BipartiteGraph, Design]

FORMAT_REPORT = "report-v1"


class FileFormatError(GraphError):
    """Malformed input file: bad JSON, not an object, an unknown format tag,
    or a field that is missing or not a list. A malformed entry of a field is
    the value type's to report, with its own error."""


# Every input schema, stated once: format tag -> (value type, fields in the
# type's argument order), each field a (JSON key, attribute).
_SCHEMAS = {
    "bigraph-v1": (BipartiteGraph, (("u", "part_u"), ("w", "part_w"), ("edges", "edges"))),
    "graph-v1": (SimpleGraph, (("vertices", "vertices"), ("edges", "edges"))),
    "design-v1": (Design, (("points", "points"), ("blocks", "blocks"))),
}


def parse_payload(text: str) -> Payload:
    """Parse a graph or design file.

    A malformed envelope raises FileFormatError; a malformed entry raises the
    value type's own GraphError (BipartiteError for bigraph-v1), listing
    every violation.
    """
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
    # A list or object tag is unhashable: test the type before the lookup.
    if not isinstance(fmt, str) or fmt not in _SCHEMAS:
        *known, last = map(repr, _SCHEMAS)
        raise FileFormatError(
            f"unknown or missing format tag: {fmt!r} (expected {', '.join(known)}, or {last})"
        )
    cls, schema = _SCHEMAS[fmt]
    args = []
    for key, _ in schema:
        value = obj.get(key)
        if not isinstance(value, list):
            raise FileFormatError(f"field {key!r} must be a list")
        args.append(value)
    return cls(*args)


def coerce_bipartite(payload: Payload) -> BipartiteGraph:
    """Bipartite view of a payload; designs become their incidence graph."""
    g = coerce_graph(payload)
    if isinstance(g, BipartiteGraph):
        return g
    raise GraphError(
        "a bipartite graph is required: provide a bigraph-v1 or design-v1 file"
    )


def coerce_graph(payload: Payload) -> Graph:
    """Graph view of a payload; designs become their incidence graph."""
    if isinstance(payload, Design):
        return from_design(payload)
    return payload


def payload_to_obj(payload: Payload) -> dict:
    for tag, (cls, schema) in _SCHEMAS.items():
        if isinstance(payload, cls):
            break
    else:
        raise TypeError(f"not a graph or design: {payload!r}")
    obj = {"format": tag}
    for key, attr in schema:
        obj[key] = [x if isinstance(x, str) else list(x) for x in getattr(payload, attr)]
    return obj


def dumps_obj(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def jsonify(value: Any) -> Any:
    """Recursively convert report values into plain JSON data.

    A report object is its value's fields: a dataclass value becomes an
    object keyed by its field names. Enums become their values, tuples become
    lists, and `UNREACHABLE` (math.inf) becomes "unreachable". A
    `CanonicalForm` is written as its key (n, u_size, bits), and a graph or
    design in its input schema.
    """
    if isinstance(value, Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if value is UNREACHABLE:
        return "unreachable"
    if isinstance(value, (list, tuple)):
        return [jsonify(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, CanonicalForm):
        return {"n": value.n, "u_size": value.u_size, "bits": value.bits}
    if isinstance(value, (SimpleGraph, BipartiteGraph, Design)):
        return payload_to_obj(value)
    if is_dataclass(value):
        return {f.name: jsonify(getattr(value, f.name)) for f in fields(value)}
    raise TypeError(f"value is not serializable into a report: {value!r}")


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
        obj["classification"] = jsonify(cls)
    if checks:
        obj["checks"] = jsonify(checks)
    if census is not None:
        obj["census"] = jsonify(census)
    return obj


def certificate_to_obj(cert: IsoCertificate) -> dict:
    return jsonify(cert)


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
