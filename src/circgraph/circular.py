"""Recognition of circular graphs and machine checks of their structural laws.

A bipartite graph on points U and circles W is circular when every unordered
triple of points has exactly one common circle and every circle has degree at
least three. The checks here verify, on a concrete instance, the facts that
follow from those two axioms: the bound on common neighbors of circle pairs,
point degrees, the distance profile, and the diameter/radius values.

Each check takes only the graph and works out for itself whether it
applies, from `classify`. The verdict is computed once per graph value and
kept while the graph lives, so a caller that classifies and then runs every
check pays for one classification.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Any, Optional

from .graphs import (
    BipartiteGraph,
    GraphIndex,
    all_pairs_distances,
    bits,
    metric_summary,
    UNREACHABLE,
)


class Verdict(str, Enum):
    NOT_CIRCULAR = "NotCircular"
    TRIVIAL_CIRCULAR = "TrivialCircular"
    NON_TRIVIAL_CIRCULAR = "NonTrivialCircular"


class ViolationKind(str, Enum):
    TRIPLE_UNCOVERED = "TripleUncovered"
    TRIPLE_OVERCOVERED = "TripleOvercovered"
    CIRCLE_DEGREE_TOO_SMALL = "CircleDegreeTooSmall"
    PART_ERROR = "PartError"


class CheckStatus(str, Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class Violation:
    """Replayable counterexample: re-evaluating `vertices` reproduces `detail`."""

    kind: ViolationKind
    vertices: tuple[str, ...]
    detail: Optional[int] = None


@dataclass(frozen=True)
class CircularClassification:
    verdict: Verdict
    witness: Optional[Violation]
    triple_axiom_vacuous: bool
    note: Optional[str] = None

    @property
    def is_circular(self) -> bool:
        return self.verdict is not Verdict.NOT_CIRCULAR


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one structural check with its measured evidence.

    A Fail always carries a replayable counterexample; NotApplicable carries
    the gating reason inside evidence.
    """

    check: str
    status: CheckStatus
    evidence: dict[str, Any] = field(default_factory=dict)
    counterexample: Optional[tuple[str, ...]] = None


SINGLE_POINT_NOTE = (
    "part U has a single point: nominally the trivial case, "
    "but no circle can reach degree 3; classified not circular"
)
EMPTY_PARTS_NOTE = "no circles and at most two points: nothing models a circular space"


# Verdicts by graph index. The index compares by identity and is held by its
# graph value, so an entry is dropped once the graph is. Two threads that
# classify one new graph at once may both compute it; they store equal verdicts.
_VERDICTS: weakref.WeakKeyDictionary[GraphIndex, CircularClassification] = (
    weakref.WeakKeyDictionary()
)


def classify(g: BipartiteGraph) -> CircularClassification:
    """Decide NotCircular / TrivialCircular / NonTrivialCircular.

    Circle degrees are checked first, then point triples in lexicographic
    order; the first violation found becomes the witness. A trivial verdict
    is the star with its center among the circles and at least three leaves.
    The verdict is computed on the first call for a graph value; later calls
    return the same object.
    """
    idx = g.index
    cls = _VERDICTS.get(idx)
    if cls is None:
        cls = _VERDICTS[idx] = _classify(g, idx)
    return cls


def _classify(g: BipartiteGraph, idx: GraphIndex) -> CircularClassification:
    m = idx.masks
    vacuous = len(g.part_u) < 3
    note = SINGLE_POINT_NOTE if len(g.part_u) == 1 and g.part_w else None
    for w in bits(idx.circles):
        d = m[w].bit_count()
        if d < 3:
            return CircularClassification(
                Verdict.NOT_CIRCULAR,
                Violation(ViolationKind.CIRCLE_DEGREE_TOO_SMALL, (idx.labels[w],), d),
                vacuous,
                note,
            )
    for x, y, z in combinations(bits(idx.points), 3):
        c = (m[x] & m[y] & m[z]).bit_count()
        if c != 1:
            kind = (
                ViolationKind.TRIPLE_UNCOVERED
                if c == 0
                else ViolationKind.TRIPLE_OVERCOVERED
            )
            triple = (idx.labels[x], idx.labels[y], idx.labels[z])
            return CircularClassification(
                Verdict.NOT_CIRCULAR, Violation(kind, triple, c), vacuous, note
            )
    if len(g.part_w) >= 2:
        return CircularClassification(Verdict.NON_TRIVIAL_CIRCULAR, None, vacuous, note)
    if len(g.part_w) == 1 and len(g.part_u) >= 3:
        return CircularClassification(Verdict.TRIVIAL_CIRCULAR, None, vacuous, note)
    return CircularClassification(
        Verdict.NOT_CIRCULAR,
        Violation(ViolationKind.PART_ERROR, ()),
        vacuous,
        EMPTY_PARTS_NOTE,
    )


def _not_applicable(check: str, requirement: str, cls: CircularClassification) -> CheckReport:
    return CheckReport(
        check,
        CheckStatus.NOT_APPLICABLE,
        {"reason": f"requires {requirement}; classification is {cls.verdict.value}"},
    )


def verify_w_pair_bound(g: BipartiteGraph) -> CheckReport:
    """Check cn(w1, w2) <= 2 over every unordered pair of circles."""
    cls = classify(g)
    if not cls.is_circular:
        return _not_applicable("w_pair_bound", "a circular graph", cls)
    idx = g.index
    m = idx.masks
    max_cn = 0
    max_pair: tuple[str, str] | None = None
    for x, y in combinations(bits(idx.circles), 2):
        c = (m[x] & m[y]).bit_count()
        if c > max_cn:
            max_cn = c
            max_pair = (idx.labels[x], idx.labels[y])
    count = len(g.part_w) * (len(g.part_w) - 1) // 2
    evidence: dict[str, Any] = {"max_cn": max_cn, "pair_count": count}
    if max_pair is not None:
        evidence["max_pair"] = max_pair
    if max_cn <= 2:
        return CheckReport("w_pair_bound", CheckStatus.PASS, evidence)
    return CheckReport("w_pair_bound", CheckStatus.FAIL, evidence, max_pair)


def verify_point_degrees(g: BipartiteGraph) -> CheckReport:
    """Check that every point of a non-trivial circular graph has degree >= 3."""
    cls = classify(g)
    if cls.verdict is not Verdict.NON_TRIVIAL_CIRCULAR:
        return _not_applicable("point_degrees", "a non-trivial circular graph", cls)
    min_degree, argmin = min((g.degree(u), u) for u in g.part_u)
    evidence = {"min_degree": min_degree, "vertex": argmin}
    if min_degree >= 3:
        return CheckReport("point_degrees", CheckStatus.PASS, evidence)
    return CheckReport("point_degrees", CheckStatus.FAIL, evidence, (argmin,))


_ALLOWED_UU = frozenset({2})
_ALLOWED_WW = frozenset({2, 4})
_ALLOWED_UW = frozenset({1, 3})


def verify_distance_profile(g: BipartiteGraph) -> CheckReport:
    """Check the distance trichotomy on a non-trivial circular graph.

    Point pairs must sit at distance 2, circle pairs at 2 or 4, and mixed
    pairs at 1 or 3.
    """
    cls = classify(g)
    if cls.verdict is not Verdict.NON_TRIVIAL_CIRCULAR:
        return _not_applicable("distance_profile", "a non-trivial circular graph", cls)
    table = all_pairs_distances(g)
    idx = g.index
    observed = []
    counterexample = None
    for sources, targets, allowed in (
        (idx.points, idx.points, _ALLOWED_UU),
        (idx.circles, idx.circles, _ALLOWED_WW),
        (idx.points, idx.circles, _ALLOWED_UW),
    ):
        seen = set()
        for x in bits(sources):
            # Same-part pairs are unordered: take only partners after x.
            partners = targets >> (x + 1) << (x + 1) if sources == targets else targets
            bad = 0
            for d, layer in (*enumerate(table[x]), (UNREACHABLE, ~sum(table[x]))):
                hit = layer & partners
                if hit:
                    seen.add(d)
                    if d not in allowed:
                        bad |= hit
            if counterexample is None and bad:
                counterexample = (idx.labels[x], idx.labels[next(bits(bad))])
        observed.append(sorted(seen))
    evidence = {
        "u_pair_distances": observed[0],
        "w_pair_distances": observed[1],
        "u_w_distances": observed[2],
    }
    if counterexample is None:
        return CheckReport("distance_profile", CheckStatus.PASS, evidence)
    return CheckReport("distance_profile", CheckStatus.FAIL, evidence, counterexample)


def verify_metric_bounds(g: BipartiteGraph) -> CheckReport:
    """Check diameter and radius: (2, 1) for trivial, (3..4, 3) for non-trivial."""
    cls = classify(g)
    if not cls.is_circular:
        return _not_applicable("metric_bounds", "a circular graph", cls)
    summary = metric_summary(g)
    trivial = cls.verdict is Verdict.TRIVIAL_CIRCULAR
    evidence = {
        "diameter": summary.diameter,
        "radius": summary.radius,
        "connected": summary.connected,
        "case": "trivial" if trivial else "non-trivial",
    }
    if trivial:
        ok = summary.diameter == 2 and summary.radius == 1
    else:
        ok = (
            isinstance(summary.diameter, int)
            and 3 <= summary.diameter <= 4
            and summary.radius == 3
        )
    if ok:
        return CheckReport("metric_bounds", CheckStatus.PASS, evidence)
    return CheckReport("metric_bounds", CheckStatus.FAIL, evidence)


def check_linear_axioms(g: BipartiteGraph) -> CheckReport:
    """Check the linear-graph conditions on any bipartite graph.

    Every pair of distinct points must have exactly one common circle and
    every vertex must have degree at least 2. The counterexample names the
    first failing pair, then the first failing vertex.
    """
    idx = g.index
    m = idx.masks
    pair_count = 0
    for x, y in combinations(bits(idx.points), 2):
        pair_count += 1
        c = (m[x] & m[y]).bit_count()
        if c != 1:
            return CheckReport(
                "linear_axioms",
                CheckStatus.FAIL,
                {"pair_cn": c, "pair_count": pair_count},
                (idx.labels[x], idx.labels[y]),
            )
    degrees = [mask.bit_count() for mask in m]
    evidence = {"pair_count": pair_count, "min_degree": min(degrees, default=0)}
    for v, d in zip(idx.labels, degrees):
        if d < 2:
            return CheckReport(
                "linear_axioms",
                CheckStatus.FAIL,
                {**evidence, "vertex_degree": d},
                (v,),
            )
    return CheckReport("linear_axioms", CheckStatus.PASS, evidence)


def run_all_checks(g: BipartiteGraph) -> tuple[CheckReport, ...]:
    """The full circular-graph check suite in a fixed, report-stable order."""
    return (
        verify_w_pair_bound(g),
        verify_point_degrees(g),
        verify_distance_profile(g),
        verify_metric_bounds(g),
    )
