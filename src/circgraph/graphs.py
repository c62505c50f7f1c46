"""Immutable simple and bipartite graphs with exact metric and neighborhood queries.

Vertex labels are opaque nonempty text that encodes as UTF-8 (`is_label`);
no numeric parsing anywhere. Every construction path validates and
normalizes, so a graph value in hand always satisfies its invariants: no
loops, no duplicate edges, declared endpoints, and (for bipartite graphs)
disjoint parts with every edge crossing them. Vertices, both bipartite parts
and edges are stored in lexicographic label order, and all set-valued results
come back in that order, so output is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Optional, Sequence, Union


class GraphError(ValueError):
    """Invalid graph input: unknown labels, malformed edges, broken invariants.

    The constructors raise it for any value of any field: text, a number or
    None where a collection belongs, or an edge or block whose members are
    not labels. None of them raises TypeError on its input.
    """


class BipartiteError(GraphError):
    """Bipartite validation failure carrying every violation found."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


# Distance between vertices in different components: orders above every
# int, so max/min over eccentricities behave like the graph-theoretic
# infinity. Library paths return this one object, so `is UNREACHABLE` holds.
UNREACHABLE = math.inf

Distance = Union[int, float]


def is_label(x: Any) -> bool:
    """Nonempty text that encodes as UTF-8: no lone surrogate such as "\\ud800"."""
    if not isinstance(x, str) or not x:
        return False
    if x.isascii():
        return True
    try:
        x.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _entries(value: Any, where: str, problems: list[str]) -> Iterable[Any]:
    """value's entries; text or a value that is not a collection is reported and has none."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        problems.append(f"{where} must be a collection: {value!r}")
        return ()
    return value


def _label_problems(labels: Iterable[str], where: str) -> tuple[list[str], set[str]]:
    problems: list[str] = []
    seen: set[str] = set()
    for v in _entries(labels, where, problems):
        if not is_label(v):
            problems.append(f"{where} label must be nonempty UTF-8 text: {v!r}")
        elif v in seen:
            problems.append(f"duplicate label in {where}: {v!r}")
        else:
            seen.add(v)
    return problems, seen


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _counts(masks: Sequence[int], piece: int) -> list[int]:
    # Bit-sliced neighbour counts into `piece`: slice i holds bit i of every
    # position's count, summed by ripple-carry addition of the members' masks.
    slices: list[int] = []
    while piece:
        low = piece & -piece
        piece ^= low
        carry = masks[low.bit_length() - 1]
        for i, s in enumerate(slices):
            slices[i] = s ^ carry
            carry &= s
            if not carry:
                break
        else:
            slices.append(carry)
    return slices


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


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Integer view of a graph, shared by every layer.

    Position i holds the i-th label in sorted order, so reading positions in
    ascending order reads labels in lexicographic order. Bit j of masks[i] is
    set when positions i and j are adjacent; `points` has the bits of the
    point part of a bipartite graph and is 0 for a simple graph.

    `layers`, the all-sources BFS table (entry i is bfs_layers(masks, i)),
    is computed once per graph, on first use, in level-synchronous rounds.
    After k rounds source i keeps one ball, the mask of the positions within
    distance k. Each round grows every source still in the round list by one
    level, working from a snapshot of the balls taken at the round's start.
    The next ball is i's ball OR either the masks of its last layer
    (top-down) or its neighbours' balls, since a vertex within distance k+1
    of i is within distance k of i or of some neighbour of i. A step goes
    top-down when the last layer has no more vertices than i has neighbours,
    so it reads min(|last layer|, degree) masks, never more than the
    per-source BFS would. On the paper's circular graphs the early rounds go
    top-down and the later ones, whose layers are large, take the
    neighbours' way. The new layer is the new ball XOR the old one. A source
    leaves the round list once its ball is everything or stops growing; a
    finished ball never changes, so a neighbour may read it in any later
    round. On a connected graph the rounds number its diameter, so `verify`,
    which builds the table only for graphs that `classify` accepts, whose
    diameter is at most 4, takes at most 4 rounds; a disconnected graph
    takes one more round than its largest finite distance.

    `overlap` is the largest number of neighbours two circle positions share
    (any two positions of a simple graph) with the first pair, in ascending
    position order, that reaches it; the pair is None when no two share a
    neighbour. It is computed once per graph, in one pass per circle x:
    `_counts(masks, masks[x])` holds, bit-sliced, each position's number of
    neighbours among x's points, which for a circle y is the number of
    points x and y share. Among the circles after x, the slices read from
    the most significant one narrow the candidates to those with each bit
    set, where any has it; what remains are the circles that share most
    with x, and the first of them pairs with x. The pass sums each circle's
    point masks once instead of intersecting all C(w, 2) circle pairs.
    It serves the counting identity of `circular.classify`: when circles
    have degree >= 3 and no two share three points, each point triple lies
    on at most one circle, so the sum over circles of C(deg, 3) counts the
    covered triples and the graph is circular exactly when it is C(u, 3).
    """

    labels: tuple[str, ...]
    position: dict[str, int]
    masks: tuple[int, ...]
    points: int

    @property
    def circles(self) -> int:
        return ((1 << len(self.labels)) - 1) & ~self.points

    def at(self, v: str) -> int:
        try:
            return self.position[v]
        except KeyError:
            raise GraphError(f"unknown vertex label: {v!r}") from None

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    @cached_property
    def layers(self) -> tuple[list[int], ...]:
        masks = self.masks
        n = len(masks)
        everything = (1 << n) - 1
        table = tuple([1 << i] for i in range(n))
        balls = [1 << i for i in range(n)]
        growing = [i for i in range(n) if balls[i] != everything]
        while growing:
            start = balls[:]
            for i in growing:
                last, m, ball = table[i][-1], masks[i], start[i]
                if last.bit_count() <= m.bit_count():
                    for j in bits(last):
                        ball |= masks[j]
                else:
                    for j in bits(m):
                        ball |= start[j]
                if ball != start[i]:
                    table[i].append(ball ^ start[i])
                    balls[i] = ball
            growing = [i for i in growing if start[i] != balls[i] != everything]
        return table

    @cached_property
    def overlap(self) -> tuple[int, Optional[tuple[int, int]]]:
        masks = self.masks
        circles = self.circles
        best, pair = 0, None
        for x in bits(circles):
            slices = _counts(masks, masks[x])
            # The largest count among the circles after x, and who reaches it.
            ahead = circles >> (x + 1) << (x + 1)
            cn = 0
            for s in reversed(slices):
                cn <<= 1
                hit = ahead & s
                if hit:
                    ahead = hit
                    cn |= 1
            if cn > best:
                best, pair = cn, (x, (ahead & -ahead).bit_length() - 1)
        return best, pair


class _Indexed:
    """Adjacency queries of both graph kinds, all answered from `index`."""

    @cached_property
    def index(self) -> GraphIndex:
        labels = tuple(sorted(self.vertex_labels))
        position = {v: i for i, v in enumerate(labels)}
        masks = [0] * len(labels)
        for a, b in self.edges:
            i, j = position[a], position[b]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        points = 0
        if isinstance(self, BipartiteGraph):
            for u in self.part_u:
                points |= 1 << position[u]
        return GraphIndex(labels, position, tuple(masks), points)

    def neighbors(self, v: str) -> frozenset[str]:
        idx = self.index
        return frozenset(idx.labels_of(idx.masks[idx.at(v)]))

    def degree(self, v: str) -> int:
        idx = self.index
        return idx.masks[idx.at(v)].bit_count()


@dataclass(frozen=True)
class SimpleGraph(_Indexed):
    """Undirected simple graph.

    Vertices are stored sorted; edges as (a, b) pairs with a < b, sorted.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        problems, seen = _label_problems(self.vertices, "vertex set")
        norm: set[tuple[str, str]] = set()
        for e in _entries(self.edges, "edge list", problems):
            # Text is no pair: it would split into characters. Entries whose
            # endpoints cannot be hashed or ordered raise TypeError here.
            try:
                a, b = None if isinstance(e, str) else e
                if a == b:
                    problems.append(f"loop edge not allowed: ({a!r}, {b!r})")
                    continue
                key = (a, b) if a < b else (b, a)
                for x in (a, b):
                    if x not in seen:
                        problems.append(f"edge endpoint is not a declared vertex: {x!r}")
            except (TypeError, ValueError):
                problems.append(f"edge must be a pair of labels: {e!r}")
                continue
            if key in norm:
                problems.append(f"duplicate edge: {key!r}")
            norm.add(key)
        if problems:
            raise GraphError("; ".join(problems))
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def vertex_labels(self) -> tuple[str, ...]:
        return self.vertices


@dataclass(frozen=True)
class BipartiteGraph(_Indexed):
    """Bipartite graph with named parts: points (part_u) and circles (part_w).

    Both parts are stored sorted; edges are normalized to (u, w) orientation
    and stored sorted. Construction rejects, with the full violation list,
    any edge inside a part, labels shared across parts, and duplicated labels
    or edges.
    """

    part_u: tuple[str, ...]
    part_w: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        u_problems, u_seen = _label_problems(self.part_u, "part U")
        w_problems, w_seen = _label_problems(self.part_w, "part W")
        violations = u_problems + w_problems
        for shared in sorted(u_seen & w_seen):
            violations.append(f"label in both parts: {shared!r}")
        norm: set[tuple[str, str]] = set()
        for e in _entries(self.edges, "edge list", violations):
            # As in SimpleGraph: text is no pair, and unhashable endpoints raise.
            try:
                a, b = None if isinstance(e, str) else e
                if a in u_seen and b in w_seen:
                    key = (a, b)
                elif a in w_seen and b in u_seen:
                    key = (b, a)
                elif a in u_seen and b in u_seen:
                    violations.append(f"edge inside part U: ({a!r}, {b!r})")
                    continue
                elif a in w_seen and b in w_seen:
                    violations.append(f"edge inside part W: ({a!r}, {b!r})")
                    continue
                else:
                    for x in (a, b):
                        if x not in u_seen and x not in w_seen:
                            violations.append(f"edge endpoint is not a declared vertex: {x!r}")
                    continue
            except (TypeError, ValueError):
                violations.append(f"edge must be a pair of labels: {e!r}")
                continue
            if key in norm:
                violations.append(f"duplicate edge: {key!r}")
            norm.add(key)
        if violations:
            raise BipartiteError(violations)
        object.__setattr__(self, "part_u", tuple(sorted(self.part_u)))
        object.__setattr__(self, "part_w", tuple(sorted(self.part_w)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def vertex_labels(self) -> tuple[str, ...]:
        return self.part_u + self.part_w


Graph = Union[SimpleGraph, BipartiteGraph]


@dataclass(frozen=True)
class MetricSummary:
    """Eccentricity of every vertex plus graph diameter, radius, connectivity."""

    eccentricities: dict[str, Distance]
    diameter: Distance
    radius: Distance
    connected: bool


def as_simple(g: Graph) -> SimpleGraph:
    """Forget the bipartition; identity on SimpleGraph inputs."""
    if isinstance(g, SimpleGraph):
        return g
    return SimpleGraph(g.vertex_labels, g.edges)


def common_neighbors(g: Graph, s: Iterable[str]) -> tuple[str, ...]:
    """Vertices adjacent to every member of s, in lexicographic order.

    A label-level query; the checks count common neighbours on the index
    masks directly.
    """
    members = sorted(set(s))
    if not members:
        raise GraphError("common_neighbors requires at least one vertex")
    idx = g.index
    common = -1
    for v in members:
        common &= idx.masks[idx.at(v)]
    return idx.labels_of(common)


def bfs_layers(masks: tuple[int, ...], start: int) -> list[int]:
    """Masks of the positions at distance 0, 1, 2, ... from start.

    The layers are disjoint, so their sum is the set of reached positions.
    """
    frontier = 1 << start
    unseen = ((1 << len(masks)) - 1) ^ frontier
    layers = []
    while frontier:
        layers.append(frontier)
        if not unseen:
            break
        reach = 0
        for i in bits(frontier):
            reach |= masks[i]
        frontier = reach & unseen
        unseen ^= frontier
    return layers


def distance(g: Graph, a: str, b: str) -> Distance:
    """Hop count of a shortest path, UNREACHABLE when none exists."""
    idx = g.index
    target = 1 << idx.at(b)
    for d, layer in enumerate(bfs_layers(idx.masks, idx.at(a))):
        if layer & target:
            return d
    return UNREACHABLE


def metric_summary(g: Graph) -> MetricSummary:
    """Eccentricities, diameter, radius, and connectivity by all-sources BFS."""
    idx = g.index
    if not idx.labels:
        raise GraphError("metric summary of an empty graph")
    everything = (1 << len(idx.labels)) - 1
    ecc: dict[str, Distance] = {
        v: len(layers) - 1 if sum(layers) == everything else UNREACHABLE
        for v, layers in zip(idx.labels, all_pairs_distances(g))
    }
    return MetricSummary(
        eccentricities=ecc,
        diameter=max(ecc.values()),
        radius=min(ecc.values()),
        connected=ecc[idx.labels[0]] is not UNREACHABLE,
    )


def fresh_label(base: str, used: set[str]) -> str:
    """First of base, base#2, base#3, ... not in `used`; it is added to `used`."""
    name = base
    k = 2
    while name in used:
        name = f"{base}#{k}"
        k += 1
    used.add(name)
    return name


def disjoint_union(g1: Graph, g2: Graph) -> SimpleGraph:
    """Tagged union of two graphs; colliding labels get a copy-index suffix."""
    used = set(g1.vertex_labels)
    rename = {v: fresh_label(v, used) for v in g2.vertex_labels}
    vertices = tuple(g1.vertex_labels) + tuple(rename[v] for v in g2.vertex_labels)
    edges = tuple(g1.edges) + tuple((rename[a], rename[b]) for a, b in g2.edges)
    return SimpleGraph(vertices, edges)


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """Restriction to `keep`; result kind matches the input kind."""
    keep_set = set(keep)
    unknown = sorted(keep_set - set(g.vertex_labels))
    if unknown:
        raise GraphError(
            "unknown vertex labels: " + ", ".join(repr(v) for v in unknown)
        )
    kept_edges = tuple(e for e in g.edges if e[0] in keep_set and e[1] in keep_set)
    if isinstance(g, BipartiteGraph):
        return BipartiteGraph(
            tuple(v for v in g.part_u if v in keep_set),
            tuple(v for v in g.part_w if v in keep_set),
            kept_edges,
        )
    return SimpleGraph(tuple(v for v in g.vertices if v in keep_set), kept_edges)


def connected_components(g: Graph) -> tuple[tuple[str, ...], ...]:
    """Components as sorted label tuples, ordered by their smallest label."""
    idx = g.index
    remaining = (1 << len(idx.labels)) - 1
    out: list[tuple[str, ...]] = []
    while remaining:
        reached = sum(bfs_layers(idx.masks, next(bits(remaining))))
        out.append(idx.labels_of(reached))
        remaining &= ~reached
    return tuple(out)


def all_pairs_distances(g: Graph) -> tuple[list[int], ...]:
    """BFS layer masks from every position: entry i is bfs_layers(masks, i).

    A position in no layer of entry i is unreachable from position i. The
    table is `GraphIndex.layers`, built once per graph by growing one ball
    per source (see `GraphIndex` for the step and the exit rule), and
    shared: do not modify it.
    """
    return g.index.layers
