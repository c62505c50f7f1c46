"""Censuses of small circular graphs and circular trees.

The circular census is an exact-cover search over point-label triples: each
block is the bit mask of the triples inside it, and walking the first
uncovered triple yields, one at a time, each family whose masks partition
all triples. It deduplicates up to part-respecting isomorphism and
describes only the class winners; `classify` re-validates each winner, which
catches any non-circular family, as it would form a class of its own. The
tree census is computed, not searched: the circular trees are exactly the
stars, which pass through the same entry code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterable, Iterator

from .canonical import CanonicalForm, canonical_form
from .circular import Verdict, classify
from .constructions import Design, from_design
from .graphs import BipartiteGraph, Distance, GraphError, metric_summary


@dataclass(frozen=True, eq=False)
class CensusEntry:
    """One isomorphism class found by enumeration, with its invariant summary."""

    graph: BipartiteGraph
    canonical: CanonicalForm
    u_size: int
    w_size: int
    verdict: Verdict
    diameter: Distance
    radius: Distance
    u_degrees: tuple[int, ...]
    w_degrees: tuple[int, ...]


def _make_entry(g: BipartiteGraph, canonical: CanonicalForm) -> CensusEntry:
    cls = classify(g)
    if not cls.is_circular:
        raise RuntimeError(f"enumeration produced a non-circular graph: {g!r}")
    summary = metric_summary(g)
    return CensusEntry(
        graph=g,
        canonical=canonical,
        u_size=len(g.part_u),
        w_size=len(g.part_w),
        verdict=cls.verdict,
        diameter=summary.diameter,
        radius=summary.radius,
        u_degrees=tuple(sorted(g.degree(u) for u in g.part_u)),
        w_degrees=tuple(sorted(g.degree(w) for w in g.part_w)),
    )


def _winners(
    candidates: Iterable[tuple[Any, BipartiteGraph]],
) -> list[tuple[Any, BipartiteGraph, CanonicalForm]]:
    """(rank, graph, form) of the least-ranked candidate of each
    part-respecting isomorphism class, first seen on ties, in canonical-key
    order."""
    winners: dict[tuple, tuple[Any, BipartiteGraph, CanonicalForm]] = {}
    for rank, g in candidates:
        form = canonical_form(g, respect_parts=True)
        best = winners.get(form.key)
        if best is None or rank < best[0]:
            winners[form.key] = (rank, g, form)
    return [winners[key] for key in sorted(winners)]


def _classes(candidates: Iterable[tuple[Any, BipartiteGraph]]) -> tuple[CensusEntry, ...]:
    """An entry for each part-respecting class winner of `_winners`."""
    return tuple(_make_entry(g, form) for _, g, form in _winners(candidates))


def _designs(points: tuple[str, ...]) -> Iterator[Design]:
    """The exact cover: every admissible block family, as a Design."""
    bit = {t: 1 << i for i, t in enumerate(combinations(points, 3))}
    # containing[t]: (mask, block) for each block holding the triple with bit t.
    containing: dict[int, list] = {b: [] for b in bit.values()}
    for size in range(3, len(points) + 1):
        for block in combinations(points, size):
            inside = [bit[t] for t in combinations(block, 3)]
            mask = sum(inside)
            for t in inside:
                containing[t].append((mask, block))
    full = (1 << len(bit)) - 1

    def search(covered: int, chosen: tuple[tuple[str, ...], ...]) -> Iterator[Design]:
        if covered == full:
            yield Design(points, chosen)
            return
        # The lowest zero bit of covered: the first uncovered triple.
        for mask, block in containing[~covered & (covered + 1)]:
            if not mask & covered:
                yield from search(covered | mask, chosen + (block,))

    return search(0, ())


def enumerate_circular(u_size: int) -> tuple[CensusEntry, ...]:
    """All circular graphs with the given point count, up to part-respecting
    isomorphism, in canonical-form order.

    Every family of distinct blocks (>= 3 points each) covering each point
    triple exactly once is found; each isomorphism class keeps its
    lexicographically least labeled representative, so the output does not
    depend on enumeration order.
    """
    if not 3 <= u_size <= 7:
        raise GraphError(f"point count must be between 3 and 7: got {u_size}")
    points = tuple(str(i) for i in range(1, u_size + 1))
    return _classes((d.blocks, from_design(d)) for d in _designs(points))


def enumerate_circular_trees(max_n: int) -> tuple[CensusEntry, ...]:
    """Circular graphs among all trees on up to max_n vertices: the stars
    K1,m, m = 3..max_n-1, with the centre as the circle.

    A circular graph has a circle, and each circle holds at least three
    points. No tree has two: if circles w1 and w2 did, they would share at
    most one point, or the tree would hold a 4-cycle. Take points a and a'
    on w1 but not on w2, and c on w2 but not on w1. The circle through
    {a, a', c} holds a and a', so it is w1, which misses c. So a circular
    tree has one circle, every point lies on it, as the tree is connected,
    and the tree is a star with at least three points. Each star is built
    with centre v0 and points v1..v(n-1), for n = 4..max_n, and goes through
    the same entry code as the circular census.
    """
    if not 1 <= max_n <= 10:
        raise GraphError(f"tree size bound must be between 1 and 10: got {max_n}")
    stars = []
    for n in range(4, max_n + 1):
        points = tuple(f"v{i}" for i in range(1, n))
        stars.append(BipartiteGraph(points, ("v0",), tuple((v, "v0") for v in points)))
    return _classes(enumerate(stars))
