#!/usr/bin/env python3
"""Sweep every structural check across the named families and the censuses.

Usage:
    python scripts/survey_checks.py

Surveys the stars on 4 to 63 vertices (up to 62 points, the largest star the
benchmark verifies), triangular(3) to triangular(12), the circular censuses
for 3 to 6 points and the tree census up to 10 vertices.
Prints one row per graph with its classification, the status of each check,
the measured diameter/radius and the milliseconds spent in `classify` plus
`run_all_checks`, then a summary line with the total time. A census graph
arrives with its verdict already computed by the census, so its row times the
checks alone. Exits 1 if any check fails anywhere, so the script doubles as a
quick full-corpus verification.
"""

from __future__ import annotations

import sys
import time

from circgraph import (
    classify,
    enumerate_circular,
    enumerate_circular_trees,
    run_all_checks,
    star,
    triangular,
)
from circgraph.circular import CheckStatus

MAX_STAR = 63
MAX_TRIANGULAR = 12
CENSUS_MAX = 6
TREES_MAX = 10


def survey_rows():
    for n in range(4, MAX_STAR + 1):
        yield f"star({n})", star(n)
    for n in range(3, MAX_TRIANGULAR + 1):
        yield f"triangular({n})", triangular(n)
    for u in range(3, CENSUS_MAX + 1):
        for i, entry in enumerate(enumerate_circular(u)):
            yield f"census(u={u})#{i}", entry.graph
    for i, entry in enumerate(enumerate_circular_trees(TREES_MAX)):
        yield f"tree-census#{i}", entry.graph


def main() -> int:
    header = f"{'graph':<18} {'verdict':<22} {'checks':<28} {'diam':>4} {'rad':>4} {'ms':>8}"
    print(header)
    print("-" * len(header))
    failed = 0
    total = 0
    total_ms = 0.0
    for name, g in survey_rows():
        started = time.perf_counter()
        cls = classify(g)
        reports = run_all_checks(g)
        ms = (time.perf_counter() - started) * 1000
        total_ms += ms
        # Every surveyed graph is circular, so metric_bounds reports both.
        bounds = reports[-1].evidence
        marks = " ".join(
            {"Pass": "ok", "Fail": "FAIL", "NotApplicable": "--"}[r.status.value]
            for r in reports
        )
        failed += sum(1 for r in reports if r.status is CheckStatus.FAIL)
        total += 1
        print(
            f"{name:<18} {cls.verdict.value:<22} {marks:<28} "
            f"{str(bounds['diameter']):>4} {str(bounds['radius']):>4} {ms:>8.2f}"
        )
    verdict = "all checks pass" if failed == 0 else f"{failed} FAILING CHECKS"
    print("-" * len(header))
    print(f"{total} graphs surveyed in {total_ms:.1f} ms of checks, {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
