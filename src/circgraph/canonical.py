"""Canonical labeling and isomorphism certificates at desk scale.

The labeling follows refinement-with-individualization over one ordered
partition: a list of cells, each listing its positions in ascending order.
Refinement runs in rounds; each round splits cells by their members' sorted
neighbor-cell indices, all taken at the start of the round, and the pieces
take their cell's slot in key order. Only dirty cells are re-keyed: those
holding a neighbor of a moved vertex. In the first refinement every vertex
counts as moved (a cell of isolated vertices has one key and never
splits); afterwards the moved vertices are those the last round split off
into a piece other than the largest of its cell (after individualizing v:
v itself). The members of any other cell still agree on their neighbor
count in every cell, the largest piece's count following from its old
cell's, and as cell indices only shift monotonically their keys stay
equal. The rounds stop when no dirty cell splits. The smallest
cell of two or more members (lowest index on ties) is the branch target;
each branch moves one member into a singleton just before the rest of its
cell and refines again. A discrete partition, read cell by cell, is a
candidate vertex order, and the least upper-triangular adjacency bit string
wins. Leaves hold it as row integers (row i: positions i+1..n-1, i+1 most
significant, so fixed-width rows compare as the string does), read off one
per-vertex bit table: the vertex at position i is bit n-1-i, so a row is
the sum of its neighbors' bits below its own. `_search` returns the first
least leaf in depth-first order, and `CanonicalForm` keeps its rows.

Cells never move past each other, so in part-respecting mode, which starts
from the cells (points, circles), all point vertices come before all circle
vertices in the canonical order; two bipartite graphs are then
part-isomorphic exactly when (n, u_size, bits) coincide.

Branches are pruned with automorphisms: a candidate in the same orbit as
an already explored sibling, under the subgroup fixing the individualized
prefix pointwise, contributes no new leaf values. Such an automorphism maps
the node's partition, and so its target cell, onto itself. Two kinds are
used, each read from one set per node. Twins, positions with the same open
or the same closed neighbourhood, are swapped by an automorphism fixing
every other position; each position has one twin class, and a candidate
whose class is in `seen`, the classes of the explored candidates, is
skipped at once. Other automorphisms are discovered from equal-value
leaves, each mapping the best order onto the leaf's (at most 64 kept).
`covered` is the closure of the explored candidates under the generators
found so far that fix the prefix, which is their orbit union; before each
candidate the node takes in only the generators found since its last look,
closes `covered` again if any fix the prefix, and skips the candidate if
it is covered. Neither pruning changes the winning leaf, as the search
keeps the first least leaf in depth-first order.

The search runs depth first on an explicit stack: each node on it is
suspended between two of its children, in target-cell order, and resumes
once the last child's subtree is complete. The depth, up to one node per
vertex on edgeless graphs, is bounded by memory, not by the recursion limit.

`are_isomorphic` compares sorted degree sequences (per part when
part-respecting) before any labeling, and replays every mapping it returns.
Past that check it labels the first graph with `canonical_form` and searches
the second with the first graph's rows as a target: the search stops as
soon as a leaf becomes the best with rows at most the target (McKay &
Piperno's two-graph test). Up to that leaf it visits the same leaves in the
same order, with the same pruning, as the full search. When the graphs are
isomorphic the target is the second graph's least value, so the leaf that
stops the search is its first least leaf, the one the full search returns,
and the mapping is the one two full labelings would compose. A leaf below
the target, or a search that ends above it, proves them not isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .graphs import BipartiteGraph, Graph, GraphError, bits


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Relabeling-invariant encoding; equal keys decide isomorphism.

    `rows` are the winning leaf's; `bits` spells row i out in n-1-i bits.
    `relabeling` maps each original label to its canonical position, and
    reading the input adjacency in that order reproduces `bits` exactly.
    `u_size` is the point-part size in part-respecting mode, else None.
    """

    n: int
    u_size: Optional[int]
    rows: tuple[int, ...]
    relabeling: Mapping[str, int]

    @cached_property
    def bits(self) -> str:
        return "".join(format(r, f"0{self.n - 1 - i}b") for i, r in enumerate(self.rows))

    @property
    def key(self) -> tuple[int, Optional[int], str]:
        return (self.n, self.u_size, self.bits)


@dataclass(frozen=True, eq=False)
class IsoCertificate:
    """Isomorphism decision; the mapping is present iff isomorphic.

    Any returned mapping has been replayed edge-by-edge against both graphs
    before this object is handed out. The field names are report keys.
    """

    isomorphic: bool
    mapping: Optional[Mapping[str, str]] = None


def _refine(
    nbrs: tuple[tuple[int, ...], ...],
    cells: list[list[int]],
    moved: Optional[Sequence[int]] = None,
) -> list[list[int]]:
    # Stable point: no cell splits by its members' neighbor-cell indices.
    # Pieces take their cell's slot in key order; singletons never split.
    # `moved` were split off their cells of a stable partition, and only
    # cells holding a neighbor of one of them can split; None moves every
    # vertex (a cell of isolated vertices has one key and never splits).
    if moved is None:
        moved = range(len(nbrs))
    where = [0] * len(nbrs)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                where[v] = i
        dirty = sorted({where[u] for x in moved for u in nbrs[x]})
        out: list[list[int]] = []
        kept = 0
        moved = []
        for i in dirty:
            cell = cells[i]
            if len(cell) == 1:
                continue
            pieces: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                pieces.setdefault(tuple(sorted([where[u] for u in nbrs[v]])), []).append(v)
            if len(pieces) == 1:
                continue
            split = [pieces[k] for k in sorted(pieces)]
            out += cells[kept:i]
            out += split
            kept = i + 1
            # Counts into the largest piece follow from those into the rest.
            largest = max(split, key=len)
            moved += [v for piece in split if piece is not largest for v in piece]
        if not moved:
            return cells
        out += cells[kept:]
        cells = out


def _twin_classes(masks: Sequence[int]) -> list[int]:
    """Class of each position: the first with the same open or closed neighbourhood.

    One class per position suffices: no position v has both an open twin u
    and a closed twin w. If it had, w would be adjacent to v and so to u;
    then u would be in w's closed neighbourhood but not in v's. Nor does an
    open neighbourhood equal another position's closed one, which would put
    each of the two in the other's neighbourhood and so one in its own; so
    both kinds share one dict.
    """
    first: dict[int, int] = {}
    return [first.setdefault(m, first.setdefault(m | 1 << v, v)) for v, m in enumerate(masks)]


def _close(covered: set[int], todo: list[int], gens: list[tuple[int, ...]]) -> None:
    # Adds to `covered` every image of `todo` under products of `gens`.
    while todo:
        x = todo.pop()
        for p in gens:
            y = p[x]
            if y not in covered:
                covered.add(y)
                todo.append(y)


def _children(
    nbrs: tuple[tuple[int, ...], ...],
    twins: list[int],
    cells: list[list[int]],
    t: int,
    prefix: tuple[int, ...],
    gens: list[tuple[int, ...]],
) -> Iterator[tuple[list[list[int]], tuple[int, ...]]]:
    # One search node, suspended between its children: it yields each
    # unpruned child, and that child's subtree is complete when it resumes.
    # `seen` holds the twin classes of the explored candidates and `covered`
    # their orbits under `fixing`, the generators fixing the prefix pointwise.
    target = cells[t]
    seen: set[int] = set()
    covered: set[int] = set()
    fixing: list[tuple[int, ...]] = []
    absorbed = 0
    for v in target:
        if twins[v] in seen:
            continue
        if covered:
            fresh = [p for p in gens[absorbed:] if all(p[x] == x for x in prefix)]
            absorbed = len(gens)
            if fresh:
                fixing += fresh
                _close(covered, list(covered), fixing)
            if v in covered:
                continue
        rest = [u for u in target if u != v]
        yield _refine(nbrs, cells[:t] + [[v], rest] + cells[t + 1 :], (v,)), prefix + (v,)
        seen.add(twins[v])
        covered.add(v)
        _close(covered, [v], fixing)


def _search(
    nbrs: tuple[tuple[int, ...], ...],
    twins: list[int],
    cells: list[list[int]],
    target: Optional[tuple[int, ...]] = None,
) -> tuple[tuple[int, ...], list[int]]:
    """Rows and vertex order of the first least leaf in depth-first order.

    With a `target`, the search returns as soon as a leaf becomes the best
    with rows <= target. Every leaf before it is greater than the target,
    so when the target is the least value this leaf is still the first least
    leaf: the search only skips the leaves after the winner.
    """
    # Depth first on an explicit stack of suspended nodes, so the depth is
    # bounded by memory rather than by the interpreter's recursion limit.
    n = len(nbrs)
    best: tuple[int, ...] = ()
    best_order: list[int] = []
    gens: list[tuple[int, ...]] = []
    bit = [0] * n
    stack: list[Iterator[tuple[list[list[int]], tuple[int, ...]]]] = []
    prefix: tuple[int, ...] = ()
    while True:
        t = -1
        for i, cell in enumerate(cells):
            if len(cell) >= 2 and (t < 0 or len(cell) < len(cells[t])):
                t = i
        if t >= 0:
            stack.append(_children(nbrs, twins, cells, t, prefix, gens))
        else:
            # Position i of the leaf order is bit n-1-i; row i keeps the bits after i.
            order = [cell[0] for cell in cells]
            for i, v in enumerate(order):
                bit[v] = 1 << (n - 1 - i)
            rows = tuple(sum([bit[u] for u in nbrs[v]]) & (bit[v] - 1) for v in order[:-1])
            if not best_order or rows < best:
                best, best_order = rows, order
                if target is not None and rows <= target:
                    return best, best_order
            elif rows == best and len(gens) < 64:
                perm = [0] * n
                for a, b in zip(best_order, order):
                    perm[a] = b
                gens.append(tuple(perm))
        while stack:
            child = next(stack[-1], None)
            if child is not None:
                cells, prefix = child
                break
            stack.pop()
        else:
            return best, best_order


def _initial_cells(g: Graph, respect_parts: bool) -> list[list[int]]:
    """[points, circles] in part-respecting mode, else one cell of all positions."""
    if respect_parts and not isinstance(g, BipartiteGraph):
        raise GraphError("part-respecting canonical form requires a bipartite graph")
    idx = g.index
    if respect_parts:
        return [list(bits(idx.points)), list(bits(idx.circles))]
    return [list(range(len(idx.labels)))]


def _label(
    g: Graph, respect_parts: bool, target: Optional[tuple[int, ...]] = None
) -> tuple[tuple[int, ...], list[int]]:
    """`_search` over the positions of `g`, from its refined initial cells."""
    cells = _initial_cells(g, respect_parts)
    masks = g.index.masks
    # Tuples: reading bits(mask) inside the refinement loop was slower on dense graphs.
    nbrs = tuple(tuple(bits(m)) for m in masks)
    return _search(nbrs, _twin_classes(masks), _refine(nbrs, [c for c in cells if c]), target)


def canonical_form(g: Graph, respect_parts: bool = False) -> CanonicalForm:
    """Canonical form of a graph, invariant under relabeling.

    With respect_parts=True the input must be bipartite and only
    part-preserving relabelings are factored out; point vertices occupy the
    leading canonical positions.
    """
    rows, order = _label(g, respect_parts)
    labels = g.index.labels
    u_size = g.index.points.bit_count() if respect_parts else None
    return CanonicalForm(len(labels), u_size, rows, {labels[v]: i for i, v in enumerate(order)})


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
    """Decide isomorphism by canonical form and return a replayable witness.

    Graphs whose sorted degree sequences differ (per part in part-respecting
    mode), and so also their vertex or edge counts, are rejected before any
    canonical labeling. Otherwise g1 gets its canonical form and g2 is
    searched only until a leaf reaches g1's rows or falls below them.
    """

    def degrees(g: Graph) -> list[list[int]]:
        masks = g.index.masks
        cells = _initial_cells(g, respect_parts)
        return [sorted(masks[v].bit_count() for v in cell) for cell in cells]

    if degrees(g1) != degrees(g2):
        return IsoCertificate(False, None)
    f1 = canonical_form(g1, respect_parts)
    rows, order = _label(g2, respect_parts, f1.rows)
    if rows != f1.rows:
        return IsoCertificate(False, None)
    mapping = {lab: g2.index.labels[order[pos]] for lab, pos in f1.relabeling.items()}
    _verify_mapping(g1, g2, mapping, respect_parts)
    return IsoCertificate(True, mapping)
