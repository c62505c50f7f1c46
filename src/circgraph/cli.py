"""Command-line entry point.

Subcommands: build, check, verify, derive, iso, enum, export. Graph output
is deterministic (lexicographic vertex order), reports are JSON with sorted
keys and no timestamps, and "-" means standard input everywhere.

Exit codes: 0 success or affirmative verdict, 1 negative verdict (not
circular, not isomorphic, or a failing check), 2 usage or input error,
3 internal error (a failure of the tool itself, never a verdict).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .canonical import are_isomorphic
from .census import enumerate_circular, enumerate_circular_trees
from .circular import CheckStatus, classify, run_all_checks
from .constructions import derive_linear, neighborhood_graph, star, triangular
from .fileio import (
    certificate_to_obj,
    coerce_bipartite,
    coerce_graph,
    dumps_obj,
    parse_payload,
    payload_to_obj,
    report_obj,
    sha256_digest,
    to_dot,
)
from .graphs import GraphError


def _read_input(path: str) -> str:
    if path == "-":
        # Undecodable bytes reach stdin text as escapes; decode strictly, as for files.
        return sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
    return Path(path).read_text(encoding="utf-8")


def _emit(obj: dict) -> None:
    sys.stdout.write(dumps_obj(obj))


def cmd_build(args: argparse.Namespace) -> int:
    g = star(args.n) if args.kind == "star" else triangular(args.n)
    _emit(payload_to_obj(g))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    text = _read_input(args.path)
    g = coerce_bipartite(parse_payload(text))
    cls = classify(g)
    _emit(report_obj(sha256_digest(text), cls))
    return 0 if cls.is_circular else 1


def cmd_verify(args: argparse.Namespace) -> int:
    text = _read_input(args.path)
    g = coerce_bipartite(parse_payload(text))
    cls = classify(g)
    checks = run_all_checks(g)
    _emit(report_obj(sha256_digest(text), cls, checks))
    failed = any(r.status is CheckStatus.FAIL for r in checks)
    return 0 if cls.is_circular and not failed else 1


def cmd_derive(args: argparse.Namespace) -> int:
    text = _read_input(args.path)
    payload = parse_payload(text)
    if args.what == "neighborhood":
        result = neighborhood_graph(coerce_graph(payload))
    else:
        if not args.pivot:
            raise GraphError("--pivot LABEL is required for linear derivation")
        result = derive_linear(coerce_bipartite(payload), args.pivot)
    _emit(payload_to_obj(result))
    return 0


def cmd_iso(args: argparse.Namespace) -> int:
    if args.path1 == "-" and args.path2 == "-":
        raise GraphError("cannot read both graphs from standard input")
    g1 = coerce_graph(parse_payload(_read_input(args.path1)))
    g2 = coerce_graph(parse_payload(_read_input(args.path2)))
    cert = are_isomorphic(g1, g2, respect_parts=args.respect_parts)
    _emit(certificate_to_obj(cert))
    return 0 if cert.isomorphic else 1


def cmd_enum(args: argparse.Namespace) -> int:
    if args.what == "circular":
        if args.u is None:
            raise GraphError("--u N is required for the circular census")
        entries = enumerate_circular(args.u)
        digest = sha256_digest(f"enum circular u={args.u}")
    else:
        if args.max is None:
            raise GraphError("--max N is required for the tree census")
        entries = enumerate_circular_trees(args.max)
        digest = sha256_digest(f"enum trees max={args.max}")
    _emit(report_obj(digest, census=entries))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    payload = parse_payload(_read_input(args.path))
    if args.format == "json":
        _emit(payload_to_obj(payload))
    else:
        sys.stdout.write(to_dot(coerce_graph(payload)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circgraph",
        description="Construct, recognize, and verify circular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a named graph, print JSON")
    p.add_argument("kind", choices=["star", "triangular"])
    p.add_argument("n", type=int, help="vertex count for star, point count for triangular")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="classify a bipartite graph or design file")
    p.add_argument("path", help="input file or - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="classify and run every applicable check")
    p.add_argument("path", help="input file or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="derive the neighborhood or linear graph")
    p.add_argument("what", choices=["neighborhood", "linear"])
    p.add_argument("path", help="input file or - for stdin")
    p.add_argument("--pivot", help="point to delete for linear derivation")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("iso", help="decide isomorphism of two graphs")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--respect-parts", action="store_true", dest="respect_parts")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("enum", help="enumerate small circular graphs or trees")
    p.add_argument("what", choices=["circular", "trees"])
    p.add_argument("--u", type=int, help="point count for the circular census")
    p.add_argument("--max", type=int, help="vertex bound for the tree census")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("export", help="re-emit a file as canonical JSON or DOT")
    p.add_argument("--format", required=True, choices=["json", "dot"])
    p.add_argument("path", help="input file or - for stdin")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
