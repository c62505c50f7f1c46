"""Censuses of small circular graphs and circular trees.

The circular census is an exact-cover search over point triples: each block
is the bit mask of the triples inside it, and walking the first uncovered
triple yields, one at a time, each family whose masks partition all triples,
as a set of point masks. Two families are isomorphic, part-respecting,
exactly when a point permutation maps one onto the other, so a class is an
orbit of the symmetric group on the points. Each family not yet seen is
closed under two permutations that generate that group, the transposition of
the first two points and the cycle of all of them, and every member enters
one seen set. The least member of each orbit, its blocks read as sorted
tuples of the one-character point labels, is the class winner; only the
winners become Designs and are labeled, classified and measured. `classify`
re-validates each winner, which catches any non-circular family, as it would
form a class of its own. The tree census is computed, not searched: the
circular trees are exactly the stars, which pass through the same entry code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

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


def _winners(candidates: Iterable[BipartiteGraph]) -> list[tuple[BipartiteGraph, CanonicalForm]]:
    """(graph, form) of each candidate, one per part-respecting isomorphism
    class, in canonical-key order. Two candidates of one class raise."""
    winners: dict[tuple, tuple[BipartiteGraph, CanonicalForm]] = {}
    for g in candidates:
        form = canonical_form(g, respect_parts=True)
        if form.key in winners:
            first = winners[form.key][0]
            raise RuntimeError(f"two census candidates share a class: {first!r}, {g!r}")
        winners[form.key] = (g, form)
    return [winners[key] for key in sorted(winners)]


def _classes(candidates: Iterable[BipartiteGraph]) -> tuple[CensusEntry, ...]:
    """An entry for each class of `_winners`."""
    return tuple(_make_entry(g, form) for g, form in _winners(candidates))


def _families(u_size: int) -> Iterator[frozenset[int]]:
    """The exact cover: every admissible block family, as a set of point masks."""
    bit = {t: 1 << i for i, t in enumerate(combinations(range(u_size), 3))}
    # containing[t]: (triple mask, point mask) of each block holding triple t.
    containing: dict[int, list[tuple[int, int]]] = {b: [] for b in bit.values()}
    for size in range(3, u_size + 1):
        for block in combinations(range(u_size), size):
            inside = [bit[t] for t in combinations(block, 3)]
            mask = sum(inside)
            for t in inside:
                containing[t].append((mask, sum(1 << p for p in block)))
    full = (1 << len(bit)) - 1

    def search(covered: int, chosen: tuple[int, ...]) -> Iterator[frozenset[int]]:
        if covered == full:
            yield frozenset(chosen)
            return
        # The lowest zero bit of covered: the first uncovered triple.
        for mask, block in containing[~covered & (covered + 1)]:
            if not mask & covered:
                yield from search(covered | mask, chosen + (block,))

    return search(0, ())


def _point_images(perm: list[int]) -> list[int]:
    """images[m]: the point mask m with each point i moved to perm[i]."""
    images = [0] * (1 << len(perm))
    for m in range(1, len(images)):
        low = m & -m
        images[m] = images[m ^ low] | 1 << perm[low.bit_length() - 1]
    return images


def enumerate_circular(u_size: int) -> tuple[CensusEntry, ...]:
    """All circular graphs with the given point count, up to part-respecting
    isomorphism, in canonical-form order.

    Every family of distinct blocks (>= 3 points each) covering each point
    triple exactly once is found; each isomorphism class keeps its
    lexicographically least labeled representative, so the output does not
    depend on enumeration order.

    A family is a set of point masks. Blocks are distinct point sets, so a
    part-respecting isomorphism between two families' graphs is fixed by its
    point permutation, and a class is an orbit of S_u. Each family not yet
    seen is closed under the transposition of points 1 and 2 and the cycle
    1 -> 2 -> ... -> u -> 1. These generate S_u: conjugating the
    transposition by powers of the cycle gives every adjacent transposition.
    Every member enters the seen set, so the work grows with the number of
    families. The winner is the least member of the orbit, its blocks read
    as sorted tuples of point labels; only the winners become Designs and
    are labeled and described.

    The gate: the seen set must hold exactly as many families as the exact
    cover yielded, and there must be one entry per orbit. A family dropped
    from an orbit that the cover still reaches, or one yielded twice, fails
    it. A class lost whole, such as the star, alone in its orbit, passes;
    only the comparison with an independent enumeration can see that.
    """
    if not 3 <= u_size <= 7:
        raise GraphError(f"point count must be between 3 and 7: got {u_size}")
    points = tuple(str(i) for i in range(1, u_size + 1))
    # labels[m]: the labels of the points in mask m, in order. Each label is
    # one character long, so for u <= 9 the labels sort as their positions
    # do, and a sorted tuple of these is a family's Design block order.
    labels = [tuple(p for i, p in enumerate(points) if m >> i & 1) for m in range(1 << u_size)]
    generators = [
        _point_images([1, 0, *range(2, u_size)]),
        _point_images([*range(1, u_size), 0]),
    ]
    seen: set[frozenset[int]] = set()
    best: list[tuple[tuple[str, ...], ...]] = []
    found = 0
    for family in _families(u_size):
        found += 1
        if family in seen:
            continue
        seen.add(family)
        orbit = [family]
        for x in orbit:
            for images in generators:
                y = frozenset([images[m] for m in x])
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        best.append(min(tuple(sorted(labels[m] for m in x)) for x in orbit))
    entries = _classes(from_design(Design(points, blocks)) for blocks in best)
    if len(seen) != found or len(entries) != len(best):
        raise RuntimeError(
            f"census gate: {found} families yielded, {len(seen)} in the orbits; "
            f"{len(best)} orbits, {len(entries)} entries"
        )
    return entries


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
    return _classes(stars)
