"""Named circular graphs and graphs derived from them.

Stars, the triangular circular graph built from the triangles of a complete
graph, incidence graphs ingested from point/block designs, open-neighborhood
doubling, and the linear graph obtained by deleting a pivot point together
with the circles that miss it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .circular import Verdict, classify
from .graphs import (
    BipartiteGraph,
    Graph,
    GraphError,
    _entries,
    _label_problems,
    fresh_label,
    induced_subgraph,
)


@dataclass(frozen=True)
class Design:
    """Point/block incidence data.

    Points are stored sorted; blocks are normalized to sorted member tuples
    and stored in lexicographic order. Every block needs at least three
    distinct members, all of them declared points, and no two blocks may
    coincide as sets. Whether every triple of points is covered exactly once
    is not decided here; that is what `classify` answers on the incidence
    graph.
    """

    points: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        problems, point_set = _label_problems(self.points, "point set")
        # A dict keeps the input order, which is often sorted already, so the
        # final sort is cheap.
        seen: dict[tuple[str, ...], None] = {}
        for blk in _entries(self.blocks, "block list", problems):
            # As for edges: text is no block, and members that cannot be
            # hashed or ordered raise TypeError.
            try:
                members = tuple(sorted(set(None if isinstance(blk, str) else blk)))
                if len(members) < 3:
                    problems.append(
                        f"block must contain at least three distinct points: {sorted(blk)!r}"
                    )
                    continue
            except TypeError:
                problems.append(f"block must be a list of labels: {blk!r}")
                continue
            unknown = [m for m in members if m not in point_set]
            if unknown:
                problems.append(
                    "block member is not a declared point: "
                    + ", ".join(repr(m) for m in unknown)
                )
                continue
            if members in seen:
                problems.append(f"duplicate block: {list(members)!r}")
                continue
            seen[members] = None
        if problems:
            raise GraphError("; ".join(problems))
        object.__setattr__(self, "points", tuple(sorted(self.points)))
        object.__setattr__(self, "blocks", tuple(sorted(seen)))


def block_label(members: tuple[str, ...]) -> str:
    """Circle-vertex label for a block, e.g. b{1,2,3}."""
    return "b{" + ",".join(sorted(members)) + "}"


def from_design(d: Design) -> BipartiteGraph:
    """Incidence graph of a design: points vs one circle vertex per block.

    Blocks are labeled in their stored order by `block_label`; a label that
    is already a point or an earlier block gets the first free `#k` suffix
    (`fresh_label`), so every valid design has an incidence graph.
    """
    used = set(d.points)
    labels = tuple(fresh_label(block_label(b), used) for b in d.blocks)
    edges = tuple((p, lab) for b, lab in zip(d.blocks, labels) for p in b)
    return BipartiteGraph(d.points, labels, edges)


def star(n: int) -> BipartiteGraph:
    """The star on n vertices: n-1 leaf points and one center circle.

    Needs n >= 4 so the center reaches degree 3.
    """
    if n < 4:
        raise GraphError(
            f"star size must be at least 4 so the center reaches degree 3: got {n}"
        )
    leaves = tuple(f"u{i}" for i in range(1, n))
    return BipartiteGraph(leaves, ("w",), tuple((u, "w") for u in leaves))


def triangular(n: int) -> BipartiteGraph:
    """Points 1..n against all 3-subsets, incidence by membership.

    Non-trivial circular for n >= 4; n = 3 degenerates to the star on four
    vertices.
    """
    if n < 3:
        raise GraphError(f"triangular construction needs at least 3 points: got {n}")
    points = tuple(str(i) for i in range(1, n + 1))
    return from_design(Design(points, tuple(combinations(points, 3))))


def neighborhood_graph(g: Graph) -> BipartiteGraph:
    """Open-neighborhood graph: originals on one side, one N(v) vertex per v.

    u is adjacent to N(v) exactly when u is a neighbor of v, so every input
    edge contributes two output edges. One neighborhood vertex is created per
    original vertex even when two vertices share the same neighbor set.
    Rejects graphs with isolated vertices, whose open neighborhood is empty.
    """
    idx = g.index
    for v, m in zip(idx.labels, idx.masks):
        if not m:
            raise GraphError(f"isolated vertex has an empty open neighborhood: {v!r}")
    used = set(idx.labels)
    tag = tuple(fresh_label(f"N({v})", used) for v in idx.labels)
    edges = tuple((u, t) for t, m in zip(tag, idx.masks) for u in idx.labels_of(m))
    return BipartiteGraph(idx.labels, tag, edges)


def derive_linear(g: BipartiteGraph, pivot: str) -> BipartiteGraph:
    """Delete a pivot point and every circle missing it; the rest is induced.

    On a non-trivial circular graph the result satisfies the linear-graph
    conditions: surviving point pairs keep exactly one common circle and no
    degree drops below 2. Any graph that `classify` does not find
    non-trivial circular raises GraphError.
    """
    cls = classify(g)
    if cls.verdict is not Verdict.NON_TRIVIAL_CIRCULAR:
        raise GraphError(
            "pivot deletion requires a non-trivial circular graph; "
            f"classification is {cls.verdict.value}"
        )
    if pivot not in g.part_u:
        raise GraphError(f"pivot must be a point vertex: {pivot!r}")
    keep = (set(g.part_u) - {pivot}) | g.neighbors(pivot)
    result = induced_subgraph(g, keep)
    assert isinstance(result, BipartiteGraph)
    return result
