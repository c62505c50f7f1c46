#!/usr/bin/env python3
"""Sweep every structural check across the named families and the censuses.

Usage:
    python scripts/survey_checks.py [--max-triangular N] [--max-star N]
                                     [--census-max U] [--trees-max N]

Prints one row per graph with its classification, the status of each check,
the measured diameter/radius and the milliseconds spent in `classify` plus
`run_all_checks`, then a summary line with the total time. A census graph
arrives with its verdict already computed by the census, so its row times the
checks alone. Exits 1 if any check fails anywhere, so the script doubles as a
quick full-corpus verification.
"""

from __future__ import annotations

import argparse
import sys
import time

from circgraph import (
    classify,
    enumerate_circular,
    enumerate_circular_trees,
    metric_summary,
    run_all_checks,
    star,
    triangular,
)
from circgraph.circular import CheckStatus


def survey_rows(args):
    for n in range(4, args.max_star + 1):
        yield f"star({n})", star(n)
    for n in range(3, args.max_triangular + 1):
        yield f"triangular({n})", triangular(n)
    for u in range(3, args.census_max + 1):
        for i, entry in enumerate(enumerate_circular(u)):
            yield f"census(u={u})#{i}", entry.graph
    for i, entry in enumerate(enumerate_circular_trees(args.trees_max)):
        yield f"tree-census#{i}", entry.graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-triangular", type=int, default=8)
    parser.add_argument("--max-star", type=int, default=10)
    parser.add_argument("--census-max", type=int, default=6)
    parser.add_argument("--trees-max", type=int, default=9)
    args = parser.parse_args()

    header = f"{'graph':<18} {'verdict':<22} {'checks':<28} {'diam':>4} {'rad':>4} {'ms':>8}"
    print(header)
    print("-" * len(header))
    failed = 0
    total = 0
    total_ms = 0.0
    for name, g in survey_rows(args):
        started = time.perf_counter()
        cls = classify(g)
        reports = run_all_checks(g)
        ms = (time.perf_counter() - started) * 1000
        total_ms += ms
        summary = metric_summary(g)
        marks = " ".join(
            {"Pass": "ok", "Fail": "FAIL", "NotApplicable": "--"}[r.status.value]
            for r in reports
        )
        failed += sum(1 for r in reports if r.status is CheckStatus.FAIL)
        total += 1
        print(
            f"{name:<18} {cls.verdict.value:<22} {marks:<28} "
            f"{str(summary.diameter):>4} {str(summary.radius):>4} {ms:>8.2f}"
        )
    verdict = "all checks pass" if failed == 0 else f"{failed} FAILING CHECKS"
    print("-" * len(header))
    print(f"{total} graphs surveyed in {total_ms:.1f} ms of checks, {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
