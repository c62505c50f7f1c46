"""Exhaustive censuses of small circular graphs and circular trees.

The circular census is an exact-cover search: blocks are bit masks over the
points, each block owns the set of point triples inside it, and a family is
admitted exactly when those triple sets partition all triples. Walking the
lexicographically first uncovered triple and trying every compatible block
containing it generates each admissible family once. Results are
deduplicated up to part-respecting isomorphism and re-validated with
`classify`.

`brute_force_classify` re-implements recognition with raw edge-list scans
and exists purely as a differential oracle for `classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canonical import CanonicalForm, canonical_form
from .circular import CircularClassification, Verdict, Violation, ViolationKind, classify
from .constructions import Design, from_design
from .graphs import BipartiteGraph, Distance, GraphError, SimpleGraph, bfs_layers, metric_summary


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


def _make_entry(g: BipartiteGraph) -> CensusEntry:
    cls = classify(g)
    if not cls.is_circular:
        raise RuntimeError(f"enumeration produced a non-circular graph: {g!r}")
    summary = metric_summary(g)
    return CensusEntry(
        graph=g,
        canonical=canonical_form(g, respect_parts=True),
        u_size=len(g.part_u),
        w_size=len(g.part_w),
        verdict=cls.verdict,
        diameter=summary.diameter,
        radius=summary.radius,
        u_degrees=tuple(sorted(g.degree(u) for u in g.part_u)),
        w_degrees=tuple(sorted(g.degree(w) for w in g.part_w)),
    )


def _family_graph(points: tuple[str, ...], family: tuple[int, ...], block_members) -> BipartiteGraph:
    blocks = tuple(
        tuple(points[i] for i in block_members[b]) for b in sorted(family)
    )
    return from_design(Design(points, blocks))


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
    triples = list(combinations(range(u_size), 3))
    block_members: list[tuple[int, ...]] = []
    block_mask: list[int] = []
    for size in range(3, u_size + 1):
        for members in combinations(range(u_size), size):
            mask = 0
            member_set = set(members)
            for t_index, t in enumerate(triples):
                if set(t) <= member_set:
                    mask |= 1 << t_index
            block_members.append(members)
            block_mask.append(mask)
    containing: list[list[int]] = [[] for _ in triples]
    for b, mask in enumerate(block_mask):
        for t_index in range(len(triples)):
            if mask >> t_index & 1:
                containing[t_index].append(b)
    full = (1 << len(triples)) - 1

    def collect(covered: int, chosen: list[int], out: list[tuple[int, ...]]) -> None:
        if covered == full:
            out.append(tuple(chosen))
            return
        t_index = next(i for i in range(len(triples)) if not covered >> i & 1)
        for b in containing[t_index]:
            mask = block_mask[b]
            if mask & covered:
                continue
            chosen.append(b)
            collect(covered | mask, chosen, out)
            chosen.pop()

    families: list[tuple[int, ...]] = []
    collect(0, [], families)

    reps: dict[tuple, tuple[tuple, CensusEntry]] = {}
    for family in families:
        fam_key = tuple(sorted(block_members[b] for b in family))
        entry = _make_entry(_family_graph(points, family, block_members))
        key = entry.canonical.key
        if key not in reps or fam_key < reps[key][0]:
            reps[key] = (fam_key, entry)
    return tuple(entry for _, (_, entry) in sorted(reps.items(), key=lambda kv: kv[0]))


def free_trees(n: int) -> tuple[SimpleGraph, ...]:
    """All free trees on n vertices up to isomorphism, labels v0..v(n-1).

    Grown by leaf attachment from the trees on n-1 vertices and deduplicated
    by canonical form; every tree arises because removing any leaf of it
    lands on a smaller representative.
    """
    if not 1 <= n <= 12:
        raise GraphError(f"tree size must be between 1 and 12: got {n}")
    return _free_trees_cached(n)


@lru_cache(maxsize=None)
def _free_trees_cached(n: int) -> tuple[SimpleGraph, ...]:
    if n == 1:
        return (SimpleGraph(("v0",), ()),)
    seen: dict[tuple, SimpleGraph] = {}
    new = f"v{n - 1}"
    for t in _free_trees_cached(n - 1):
        for v in t.vertices:
            g = SimpleGraph(t.vertices + (new,), t.edges + ((v, new),))
            key = canonical_form(g).key
            if key not in seen:
                seen[key] = g
    return tuple(g for _, g in sorted(seen.items(), key=lambda kv: kv[0]))


def enumerate_circular_trees(max_n: int) -> tuple[CensusEntry, ...]:
    """Circular graphs among all trees on up to max_n vertices.

    Each free tree has a unique bipartition; both orientations (which side
    plays the points) are classified, and the circular ones enter the census.
    """
    if not 1 <= max_n <= 10:
        raise GraphError(f"tree size bound must be between 1 and 10: got {max_n}")
    reps: dict[tuple, CensusEntry] = {}
    for n in range(1, max_n + 1):
        for tree in free_trees(n):
            side_a, side_b = _tree_bipartition(tree)
            for part_u, part_w in ((side_a, side_b), (side_b, side_a)):
                g = BipartiteGraph(part_u, part_w, tree.edges)
                if classify(g).is_circular:
                    entry = _make_entry(g)
                    reps.setdefault(entry.canonical.key, entry)
    return tuple(entry for _, entry in sorted(reps.items(), key=lambda kv: kv[0]))


def _tree_bipartition(tree: SimpleGraph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    idx = tree.index
    layers = bfs_layers(idx.masks, 0)
    return idx.labels_of(sum(layers[0::2])), idx.labels_of(sum(layers[1::2]))


def brute_force_classify(g: BipartiteGraph) -> CircularClassification:
    """Recognition by the most naive loops possible; oracle for `classify`.

    Degrees and common-neighbor counts are recomputed by scanning the raw
    edge list, sharing no graph machinery with the main implementation.
    """
    upart = sorted(g.part_u)
    wpart = sorted(g.part_w)
    edges = list(g.edges)
    vacuous = len(upart) < 3
    note = (
        "part U has a single point: nominally the trivial case, "
        "but no circle can reach degree 3; classified not circular"
        if len(upart) == 1 and wpart
        else None
    )
    for w in wpart:
        d = 0
        for _, b in edges:
            if b == w:
                d += 1
        if d < 3:
            return CircularClassification(
                Verdict.NOT_CIRCULAR,
                Violation(ViolationKind.CIRCLE_DEGREE_TOO_SMALL, (w,), d),
                vacuous,
                note,
            )
    for x, y, z in combinations(upart, 3):
        c = 0
        for w in wpart:
            has_x = has_y = has_z = False
            for a, b in edges:
                if b == w:
                    if a == x:
                        has_x = True
                    elif a == y:
                        has_y = True
                    elif a == z:
                        has_z = True
            if has_x and has_y and has_z:
                c += 1
        if c != 1:
            kind = (
                ViolationKind.TRIPLE_UNCOVERED
                if c == 0
                else ViolationKind.TRIPLE_OVERCOVERED
            )
            return CircularClassification(
                Verdict.NOT_CIRCULAR, Violation(kind, (x, y, z), c), vacuous, note
            )
    if len(wpart) >= 2:
        return CircularClassification(Verdict.NON_TRIVIAL_CIRCULAR, None, vacuous, note)
    if len(wpart) == 1 and len(upart) >= 3:
        return CircularClassification(Verdict.TRIVIAL_CIRCULAR, None, vacuous, note)
    return CircularClassification(
        Verdict.NOT_CIRCULAR,
        Violation(ViolationKind.PART_ERROR, ()),
        vacuous,
        "no circles and at most two points: nothing models a circular space",
    )
