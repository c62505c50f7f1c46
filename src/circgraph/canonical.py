"""Canonical labeling and isomorphism certificates at desk scale.

The labeling follows refinement-with-individualization over one ordered
partition: a list of cells, each listing its positions in ascending order.
Refinement splits every cell of two or more members by its members' sorted
neighbor-cell indices until no cell splits; the pieces take their cell's
slot in key order, and singletons are never re-sorted. The smallest cell of
two or more members (lowest index on ties) is the branch target; each branch
moves one member into a singleton just before the rest of its cell and
refines again. A discrete partition, read cell by cell, is a candidate vertex
order, and the least upper-triangular adjacency bit string wins. Leaves hold
it as row integers (row i: positions i+1..n-1, i+1 most significant, so
fixed-width rows compare as the string does); only the winner is spelled out
as `bits`.

Cells never move past each other, so in part-respecting mode, which starts
from the cells (points, circles), all point vertices come before all circle
vertices in the canonical order; two bipartite graphs are then
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


def _refine(nbrs: tuple[tuple[int, ...], ...], cells: list[list[int]]) -> list[list[int]]:
    # Stable point: no cell splits by its members' neighbor-cell indices.
    # Pieces take their cell's slot in key order; singletons never split.
    where = [0] * len(nbrs)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                where[v] = i
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            pieces: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                pieces.setdefault(tuple(sorted([where[u] for u in nbrs[v]])), []).append(v)
            out.extend(pieces[k] for k in sorted(pieces))
        if len(out) == len(cells):
            return cells
        cells = out


class _SearchState:
    __slots__ = ("best_rows", "best_pos2v", "gens")

    def __init__(self):
        self.best_rows: tuple[int, ...] | None = None
        self.best_pos2v: list[int] = []
        self.gens: list[tuple[int, ...]] = []


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
    nbrs: tuple[tuple[int, ...], ...],
    cells: list[list[int]],
    prefix: tuple[int, ...],
    state: _SearchState,
) -> None:
    n = len(nbrs)
    t = -1
    for i, cell in enumerate(cells):
        if len(cell) >= 2 and (t < 0 or len(cell) < len(cells[t])):
            t = i
    if t < 0:
        pos2v = [cell[0] for cell in cells]
        pos = [0] * n
        for i, v in enumerate(pos2v):
            pos[v] = i
        # Position j of the leaf order is bit top-j; row i keeps the bits after i.
        top = n - 1
        rows = tuple(
            sum(1 << (top - pos[u]) for u in nbrs[v]) & ((1 << (top - i)) - 1)
            for i, v in enumerate(pos2v[:-1])
        )
        if state.best_rows is None or rows < state.best_rows:
            state.best_rows = rows
            state.best_pos2v = pos2v
        elif rows == state.best_rows and pos2v != state.best_pos2v:
            perm = [0] * n
            for i in range(n):
                perm[state.best_pos2v[i]] = pos2v[i]
            p = tuple(perm)
            if len(state.gens) < 64 and p not in state.gens:
                state.gens.append(p)
        return
    target = cells[t]
    explored: list[int] = []
    parent, absorbed = [], 0
    for v in target:
        if explored:
            parent = parent or list(range(n))
            fresh, absorbed = state.gens[absorbed:], len(state.gens)
            if _in_explored_orbit(parent, fresh, prefix, explored, v):
                continue
        rest = [u for u in target if u != v]
        refined = _refine(nbrs, cells[:t] + [[v], rest] + cells[t + 1 :])
        _search(nbrs, refined, prefix + (v,), state)
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
    # Tuples: reading bits(mask) inside the refinement loop was slower on dense graphs.
    nbrs = tuple(tuple(bits(m)) for m in idx.masks)
    if respect_parts:
        cells = [list(bits(idx.points)), list(bits(idx.circles))]
        u_size: int | None = len(g.part_u)
    else:
        cells = [list(range(n))]
        u_size = None
    state = _SearchState()
    _search(nbrs, _refine(nbrs, [c for c in cells if c]), (), state)
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
