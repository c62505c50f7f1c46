"""Canonical labeling and isomorphism certificates at desk scale.

The labeling follows refinement-with-individualization over one ordered
partition: a list of cells, each an int mask whose bit v is position v.
Refinement runs in rounds. Each round counts, for all positions at once,
their neighbours in each new piece of the cells that split in the round
before, the last piece of each cell excepted. A counter is bit-sliced:
slice i holds bit i of every position's count, summed by ripple-carry
addition of the piece members' adjacency masks. Every cell of two or more
members is then split by the counters in piece-index order, larger counts
first, with a few ANDs per slice, and its groups take its slot. The rounds
stop when no cell splits.

This is the order of keying each cell by its members' sorted tuples of
neighbour-cell indices, all taken at the start of the round, the pieces
taking the cell's slot in key order. Two members of one cell at the start
of a round have the same degree. They agree on their counts into every
cell that did not split in the round before, and into each split cell as
a whole. So their tuples first differ at a piece of a split cell, and the
member with the larger count there sorts first. That piece is never the
last of its cell: the counts into the earlier pieces and the whole cell
imply the count into the last, which is why it goes uncounted. At the root
every position's neighbours lie in one initial cell, the other part or the
single cell, so the first round there is a sort by degree, ascending: the
root splits each cell by degree and then runs one round over all cells.
After individualizing v, the only piece counted is v itself.

The search tree is defined once, by three functions: `_refine` at the root,
then at each node `_target`, the smallest cell of two or more members
(lowest index on ties, -1 at a leaf), and for each member v of that cell
`_child`, which moves v into a singleton just before the rest of its cell
and refines from that piece. The tests' unpruned reference walks the same
tree through them, so pruning is all that sets `_search` apart from it.

A discrete partition, read cell by cell, is a candidate vertex order, and
the least upper-triangular adjacency bit string wins. Leaves hold it as
row integers (row i: positions i+1..n-1, i+1 most significant, so
fixed-width rows compare as the string does), read off one per-vertex bit
table: the vertex at position i is bit n-1-i, so a row is the sum of its
neighbors' bits below its own. `_search` returns the first least leaf in
depth-first order, and `CanonicalForm` keeps its rows.

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
leaves, each mapping the best order onto the leaf's. Every node keeps its
own list of them: those found so far that fix its prefix. A child's prefix
is its parent's and one position v more, and every generator in the
parent's list fixes the parent's prefix, so the child's list is the
parent's filtered by v alone. A generator found at a leaf joins the list of
each node on the stack from the root down, until the first node whose
running child's position it moves, as every prefix below holds it.
`covered` is the closure of the explored candidates under the node's list,
which is their orbit union; before each candidate the node closes all of
`covered` again if its list grew since it last looked, else only the
candidate explored last, and skips the candidate if it is covered. The
whole list is needed: with `covered` = {1, 2}, an old generator (3 4) and
a new one (1 3), the closure holds 4, which the new generator alone does
not reach. Neither pruning changes the winning leaf, as the search keeps
the first least leaf in depth-first order.

A leaf equal to the best also ends its branch (McKay, *Congr. Numer.* 30,
1981). Let node k be the first on the stack whose running child's position
the new generator p moves. The tree is built without regard to labels, so
p maps the best leaf's path onto this leaf's. The two paths share their
first k positions, which p fixes, and p maps the best path's next position,
an explored child of node k, onto the running child. The running child's
subtree is therefore the image under p of that explored child's subtree,
which is complete and holds no leaf below the best; node k resumes with
its next child at once, and the first least leaf stays the same.

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

from .graphs import BipartiteGraph, Graph, GraphError, _counts, bits


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


def _split(groups: list[int], slices: list[int]) -> list[int]:
    # Each group's members by count, larger counts first, the groups keeping
    # their order: each slice, most significant first, puts a group's set
    # members ahead of the rest.
    for s in reversed(slices):
        out = []
        for g in groups:
            high = g & s
            if high and high != g:
                out += (high, g ^ high)
            else:
                out.append(g)
        groups = out
    return groups


def _refine(
    masks: Sequence[int], cells: list[int], pieces: Optional[list[int]] = None
) -> list[int]:
    # Stable point: no cell splits by its members' counts into the pieces.
    # `pieces` are the new pieces of a stable partition's split cells, each
    # but the last of its cell (after individualizing v: [1 << v]). None is
    # the root: cells split by degree, ascending, and then count into all.
    if pieces is None:
        degrees = _counts(masks, sum(cells))
        cells = pieces = [g for cell in cells for g in reversed(_split([cell], degrees))]
    while True:
        # Each counter with the positions it reaches (a nonzero count).
        counters = []
        reach = 0
        for piece in pieces:
            slices = _counts(masks, piece)
            met = 0
            for s in slices:
                met |= s
            counters.append((slices, met))
            reach |= met
        out: list[int] = []
        kept = 0
        pieces = []
        for i in [i for i, cell in enumerate(cells) if cell & reach and cell & (cell - 1)]:
            cell = cells[i]
            groups = [cell]
            for slices, met in counters:
                if cell & met:
                    groups = _split(groups, slices)
            if len(groups) > 1:
                out += cells[kept:i]
                out += groups
                kept = i + 1
                pieces += groups[:-1]
        if not pieces:
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


def _target(cells: list[int]) -> int:
    # The branch target: the smallest cell of two or more members, the
    # lowest index on ties; -1 when the partition is discrete, at a leaf.
    t, size = -1, 0
    for i, cell in enumerate(cells):
        k = cell.bit_count()
        if k >= 2 and (t < 0 or k < size):
            t, size = i, k
    return t


def _child(masks: Sequence[int], cells: list[int], t: int, v: int) -> list[int]:
    # The child that individualizes v: v leaves cell t for a singleton just
    # before the rest of it, and the partition is refined from that piece.
    return _refine(masks, cells[:t] + [1 << v, cells[t] ^ 1 << v] + cells[t + 1 :], [1 << v])


def _children(
    masks: Sequence[int],
    twins: list[int],
    cells: list[int],
    t: int,
    fixing: list[tuple[int, ...]],
) -> Iterator[tuple[list[int], int]]:
    # One search node, suspended between its children: it yields each
    # unpruned child with the position it individualizes, and that child's
    # subtree is complete when it resumes. `fixing` is the node's list of the
    # generators found so far that fix its prefix pointwise; the search
    # appends to it while the node is suspended. `seen` holds the twin
    # classes of the explored candidates and `covered` their orbits under
    # `fixing`; `todo` is what `covered` still has to be closed from.
    seen: set[int] = set()
    covered: set[int] = set()
    todo: list[int] = []
    looked = 0
    for v in bits(cells[t]):
        if twins[v] in seen:
            continue
        if len(fixing) > looked:
            looked = len(fixing)
            todo = list(covered)
        _close(covered, todo, fixing)
        if v in covered:
            continue
        yield _child(masks, cells, t, v), v
        seen.add(twins[v])
        covered.add(v)
        todo.append(v)


def _search(
    masks: Sequence[int],
    twins: list[int],
    cells: list[int],
    target: Optional[tuple[int, ...]] = None,
) -> tuple[tuple[int, ...], list[int]]:
    """Rows and vertex order of the first least leaf in depth-first order.

    A leaf equal to the best returns the search to the node where its path
    and the best leaf's part, which resumes with its next child.

    With a `target`, the search returns as soon as a leaf becomes the best
    with rows <= target. Every leaf before it is greater than the target,
    so when the target is the least value this leaf is still the first least
    leaf: the search only skips the leaves after the winner.
    """
    # Depth first on an explicit stack of suspended nodes, so the depth is
    # bounded by memory rather than by the interpreter's recursion limit.
    n = len(masks)
    # Neighbour tuples for the leaf rows, built once per search.
    nbrs = tuple(tuple(bits(m)) for m in masks)
    best: tuple[int, ...] = ()
    best_order: list[int] = []
    bit = [0] * n
    # Each suspended node with its generator list, and the position its
    # running child individualizes: `path` is the prefix of that child.
    stack: list[tuple[Iterator[tuple[list[int], int]], list[tuple[int, ...]]]] = []
    path: list[int] = []
    while True:
        t = _target(cells)
        if t >= 0:
            # The parent's generators fix the parent's prefix, so those that
            # fix this node's prefix are the ones fixing its own position.
            fixing = [p for p in stack[-1][1] if p[path[-1]] == path[-1]] if stack else []
            stack.append((_children(masks, twins, cells, t, fixing), fixing))
        else:
            # Position i of the leaf order is bit n-1-i; row i keeps the bits after i.
            order = [cell.bit_length() - 1 for cell in cells]
            for i, v in enumerate(order):
                bit[v] = 1 << (n - 1 - i)
            rows = tuple(sum([bit[u] for u in nbrs[v]]) & (bit[v] - 1) for v in order[:-1])
            if not best_order or rows < best:
                best, best_order = rows, order
                if target is not None and rows <= target:
                    return best, best_order
            elif rows == best:
                # The automorphism taking the best order to this leaf's, kept
                # by every node from the root down whose prefix it fixes.
                p = tuple(b for _, b in sorted(zip(best_order, order)))
                for k, ((_, fixing), v) in enumerate(zip(stack, path)):
                    fixing.append(p)
                    if p[v] != v:
                        break
                # Node k's running child is p's image of an explored one: resume node k.
                del stack[k + 1 :]
        while stack:
            child = next(stack[-1][0], None)
            if child is not None:
                cells, v = child
                path[len(stack) - 1 :] = [v]
                break
            stack.pop()
        else:
            return best, best_order


def _initial_cells(g: Graph, respect_parts: bool) -> list[int]:
    """[points, circles] in part-respecting mode, else one cell of all positions."""
    if respect_parts and not isinstance(g, BipartiteGraph):
        raise GraphError("part-respecting canonical form requires a bipartite graph")
    idx = g.index
    return [idx.points, idx.circles] if respect_parts else [(1 << len(idx.labels)) - 1]


def _label(
    g: Graph, respect_parts: bool, target: Optional[tuple[int, ...]] = None
) -> tuple[tuple[int, ...], list[int]]:
    """`_search` over the positions of `g`, from its refined initial cells."""
    cells = _initial_cells(g, respect_parts)
    masks = g.index.masks
    return _search(masks, _twin_classes(masks), _refine(masks, [c for c in cells if c]), target)


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
        return [sorted(masks[v].bit_count() for v in bits(cell)) for cell in cells]

    if degrees(g1) != degrees(g2):
        return IsoCertificate(False, None)
    f1 = canonical_form(g1, respect_parts)
    rows, order = _label(g2, respect_parts, f1.rows)
    if rows != f1.rows:
        return IsoCertificate(False, None)
    mapping = {lab: g2.index.labels[order[pos]] for lab, pos in f1.relabeling.items()}
    _verify_mapping(g1, g2, mapping, respect_parts)
    return IsoCertificate(True, mapping)
