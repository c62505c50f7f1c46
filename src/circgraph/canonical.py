"""Canonical labeling and isomorphism certificates at desk scale.

The labeling follows refinement-with-individualization: colors are refined
until stable by the signature (own color, sorted multiset of neighbor
colors); the smallest non-singleton color class is the branch target; each
branch individualizes one class member and refines again; a discrete
coloring is a candidate vertex order, and the least upper-triangular
adjacency bit string wins. Leaves hold it as row integers off the index masks
(row i: positions i+1..n-1, i+1 most significant, so fixed-width rows compare
as the string does); only the winner is spelled out as `bits`.

Class renumbering is order-preserving throughout (a class's children occupy
its slot), so in part-respecting mode all point vertices come before all
circle vertices in the canonical order; two bipartite graphs are then
part-isomorphic exactly when (n, u_size, bits) coincide.

Branches are pruned with automorphisms discovered from equal-value leaves:
a candidate in the same orbit as an already explored sibling, under the
subgroup fixing the individualized prefix pointwise, contributes no new
leaf values. Each search node keeps one union-find of those orbits and feeds
it, before each candidate, only the generators found since its last update.
The pruning never changes the winning leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .graphs import BipartiteGraph, Graph, GraphError, bits


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Relabeling-invariant encoding; equal keys decide isomorphism.

    `relabeling` maps each original label to its canonical position, and
    reading the input adjacency in that order reproduces `bits` exactly.
    `u_size` is the point-part size in part-respecting mode, else None.
    """

    n: int
    u_size: Optional[int]
    bits: str
    relabeling: Mapping[str, int]

    @property
    def key(self) -> tuple[int, Optional[int], str]:
        return (self.n, self.u_size, self.bits)


@dataclass(frozen=True, eq=False)
class IsoCertificate:
    """Isomorphism decision; the mapping is present iff isomorphic.

    Any returned mapping has been replayed edge-by-edge against both graphs
    before this object is handed out.
    """

    isomorphic: bool
    mapping: Optional[Mapping[str, str]] = None


def _refine(n: int, adj: tuple[frozenset[int], ...], colors: list[int]) -> list[int]:
    # Stable point: every class is determined by (color, neighbor colors).
    # New ids follow signature order, whose first component is the old id,
    # so renumbering preserves the existing class order.
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _individualize(colors: list[int], v: int) -> list[int]:
    # v takes its class's slot; former classmates shift one slot down.
    c = colors[v]
    out = []
    for u, cu in enumerate(colors):
        if cu < c or (u == v and cu == c):
            out.append(cu)
        elif cu == c:
            out.append(c + 1)
        else:
            out.append(cu + 1)
    return out


class _SearchState:
    __slots__ = ("best_rows", "best_pos2v", "gens", "gen_seen")

    def __init__(self):
        self.best_rows: tuple[int, ...] | None = None
        self.best_pos2v: list[int] = []
        self.gens: list[tuple[int, ...]] = []
        self.gen_seen: set[tuple[int, ...]] = set()


def _in_explored_orbit(
    parent: list[int],
    fresh: list[tuple[int, ...]],
    prefix: tuple[int, ...],
    explored: list[int],
    v: int,
) -> bool:
    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for p in fresh:
        if all(p[x] == x for x in prefix):
            for a, b in enumerate(p):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    rv = find(v)
    return any(find(u) == rv for u in explored)


def _search(
    n: int,
    adj: tuple[frozenset[int], ...],
    masks: tuple[int, ...],
    colors: list[int],
    prefix: tuple[int, ...],
    state: _SearchState,
) -> None:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target: list[int] | None = None
    target_color = -1
    for c in sorted(cells):
        members = cells[c]
        if len(members) >= 2 and (
            target is None or (len(members), c) < (len(target), target_color)
        ):
            target, target_color = members, c
    if target is None:
        pos2v = [0] * n
        for v, c in enumerate(colors):
            pos2v[c] = v
        # Position j of the leaf order is bit top-j; row i keeps the bits after i.
        top = n - 1
        rows = tuple(
            sum(1 << (top - colors[u]) for u in bits(masks[v])) & ((1 << (top - i)) - 1)
            for i, v in enumerate(pos2v[:-1])
        )
        if state.best_rows is None or rows < state.best_rows:
            state.best_rows = rows
            state.best_pos2v = pos2v
        elif rows == state.best_rows and pos2v != state.best_pos2v:
            perm = [0] * n
            for i in range(n):
                perm[state.best_pos2v[i]] = pos2v[i]
            t = tuple(perm)
            if t not in state.gen_seen and len(state.gens) < 64:
                state.gens.append(t)
                state.gen_seen.add(t)
        return
    explored: list[int] = []
    parent, absorbed = [], 0
    for v in target:
        if explored:
            parent = parent or list(range(n))
            fresh, absorbed = state.gens[absorbed:], len(state.gens)
            if _in_explored_orbit(parent, fresh, prefix, explored, v):
                continue
        _search(n, adj, masks, _refine(n, adj, _individualize(colors, v)), prefix + (v,), state)
        explored.append(v)


def canonical_form(g: Graph, respect_parts: bool = False) -> CanonicalForm:
    """Canonical form of a graph, invariant under relabeling.

    With respect_parts=True the input must be bipartite and only
    part-preserving relabelings are factored out; point vertices occupy the
    leading canonical positions.
    """
    if respect_parts and not isinstance(g, BipartiteGraph):
        raise GraphError("part-respecting canonical form requires a bipartite graph")
    idx = g.index
    n = len(idx.labels)
    adj = tuple(frozenset(bits(m)) for m in idx.masks)
    if respect_parts:
        init = [0 if idx.points >> v & 1 else 1 for v in range(n)]
        u_size: int | None = len(g.part_u)
    else:
        init = [0] * n
        u_size = None
    state = _SearchState()
    _search(n, adj, idx.masks, _refine(n, adj, init), (), state)
    relabeling = {idx.labels[v]: i for i, v in enumerate(state.best_pos2v)}
    bit_string = "".join(format(r, f"0{n - 1 - i}b") for i, r in enumerate(state.best_rows))
    return CanonicalForm(n, u_size, bit_string, relabeling)


def _verify_mapping(
    g1: Graph, g2: Graph, mapping: Mapping[str, str], respect_parts: bool
) -> None:
    if sorted(mapping) != sorted(g1.vertex_labels):
        raise RuntimeError("isomorphism mapping does not cover the first vertex set")
    if sorted(mapping.values()) != sorted(g2.vertex_labels):
        raise RuntimeError("isomorphism mapping is not onto the second vertex set")
    mapped = {frozenset((mapping[a], mapping[b])) for a, b in g1.edges}
    target = {frozenset(e) for e in g2.edges}
    if len(g1.edges) != len(g2.edges) or mapped != target:
        raise RuntimeError("isomorphism mapping does not transport the edge set exactly")
    if respect_parts:
        assert isinstance(g1, BipartiteGraph) and isinstance(g2, BipartiteGraph)
        if {mapping[u] for u in g1.part_u} != set(g2.part_u):
            raise RuntimeError("isomorphism mapping does not preserve the parts")


def are_isomorphic(g1: Graph, g2: Graph, respect_parts: bool = False) -> IsoCertificate:
    """Decide isomorphism by canonical form and return a replayable witness."""
    f1 = canonical_form(g1, respect_parts)
    f2 = canonical_form(g2, respect_parts)
    if f1.key != f2.key:
        return IsoCertificate(False, None)
    pos_to_label = {pos: lab for lab, pos in f2.relabeling.items()}
    mapping = {lab: pos_to_label[pos] for lab, pos in f1.relabeling.items()}
    _verify_mapping(g1, g2, mapping, respect_parts)
    return IsoCertificate(True, mapping)
