"""Exhaustive censuses of small circular graphs and circular trees.

The circular census is an exact-cover search over point-label triples: each
block is the bit mask of the triples inside it, and walking the first
uncovered triple yields, one at a time, each family whose masks partition
all triples. Both censuses deduplicate up to part-respecting isomorphism and
describe only the class winners; `classify` re-validates each winner, which
catches any non-circular family, as it would form a class of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Iterable, Iterator, TypeVar

from .canonical import CanonicalForm, canonical_form
from .circular import Verdict, classify
from .constructions import Design, from_design
from .graphs import BipartiteGraph, Distance, GraphError, SimpleGraph, bfs_layers, metric_summary

_G = TypeVar("_G", SimpleGraph, BipartiteGraph)


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
    candidates: Iterable[tuple[Any, _G]], respect_parts: bool
) -> list[tuple[Any, _G, CanonicalForm]]:
    """(rank, graph, form) of the least-ranked candidate of each isomorphism
    class, first seen on ties, in canonical-key order."""
    winners: dict[tuple, tuple[Any, _G, CanonicalForm]] = {}
    for rank, g in candidates:
        form = canonical_form(g, respect_parts)
        best = winners.get(form.key)
        if best is None or rank < best[0]:
            winners[form.key] = (rank, g, form)
    return [winners[key] for key in sorted(winners)]


def _classes(candidates: Iterable[tuple[Any, BipartiteGraph]]) -> tuple[CensusEntry, ...]:
    """An entry for each part-respecting class winner of `_winners`."""
    return tuple(_make_entry(g, form) for _, g, form in _winners(candidates, True))


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


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[SimpleGraph, ...]:
    """All free trees on n vertices up to isomorphism, labels v0..v(n-1).

    Grown by leaf attachment from the trees on n-1 vertices and deduplicated
    by canonical form; every tree arises because removing any leaf of it
    lands on a smaller representative.
    """
    if not 1 <= n <= 12:
        raise GraphError(f"tree size must be between 1 and 12: got {n}")
    if n == 1:
        return (SimpleGraph(("v0",), ()),)
    new = f"v{n - 1}"
    grown = (
        SimpleGraph(t.vertices + (new,), t.edges + ((v, new),))
        for t in free_trees(n - 1)
        for v in t.vertices
    )
    return tuple(g for _, g, _ in _winners(enumerate(grown), False))


def enumerate_circular_trees(max_n: int) -> tuple[CensusEntry, ...]:
    """Circular graphs among all trees on up to max_n vertices.

    Each free tree has a unique bipartition; both orientations (which side
    plays the points) are classified, and the circular ones enter the census.
    """
    if not 1 <= max_n <= 10:
        raise GraphError(f"tree size bound must be between 1 and 10: got {max_n}")

    def circular() -> Iterator[BipartiteGraph]:
        for n in range(1, max_n + 1):
            for tree in free_trees(n):
                side_a, side_b = _tree_bipartition(tree)
                for part_u, part_w in ((side_a, side_b), (side_b, side_a)):
                    g = BipartiteGraph(part_u, part_w, tree.edges)
                    if classify(g).is_circular:
                        yield g

    return _classes(enumerate(circular()))


def _tree_bipartition(tree: SimpleGraph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    idx = tree.index
    layers = bfs_layers(idx.masks, 0)
    return idx.labels_of(sum(layers[0::2])), idx.labels_of(sum(layers[1::2]))
