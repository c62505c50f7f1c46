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

from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Any, Iterable, Iterator, Union


class GraphError(ValueError):
    """Invalid graph input: unknown labels, malformed edges, broken invariants."""


class BipartiteError(GraphError):
    """Bipartite validation failure carrying every violation found."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


@total_ordering
class _UnreachableType:
    """Distance between vertices in different components.

    A singleton that compares strictly greater than every int, so max/min
    over mixed eccentricity values behave like an honest infinity without
    smuggling in a sentinel integer.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unreachable"

    def __lt__(self, other):
        if isinstance(other, (int, _UnreachableType)):
            return False
        return NotImplemented


UNREACHABLE = _UnreachableType()

Distance = Union[int, _UnreachableType]


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


def _label_problems(labels: Iterable[str], where: str) -> tuple[list[str], set[str]]:
    problems: list[str] = []
    seen: set[str] = set()
    for v in labels:
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


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Integer view of a graph, shared by every layer.

    Position i holds the i-th label in sorted order, so reading positions in
    ascending order reads labels in lexicographic order. Bit j of masks[i] is
    set when positions i and j are adjacent; `points` has the bits of the
    point part of a bipartite graph and is 0 for a simple graph.

    `layers`, the all-sources BFS table (entry i is bfs_layers(masks, i)),
    is computed once per graph, on first use, in level-synchronous rounds:
    each round advances every source that still has unseen vertices by one
    level. Source i's next frontier is either the OR of masks[j] over j in
    its frontier (top-down), or the OR of its neighbours' frontiers minus
    its ball, since a vertex at distance k+1 from i is at distance exactly k
    from some neighbour of i. A step goes top-down when the frontier has no
    more vertices than i has neighbours, so it reads min(|frontier|, degree)
    masks, never more than the per-source BFS would. On the paper's circular
    graphs the early rounds go top-down and the later ones, whose frontiers
    are large, take the neighbours' way. A source drops out once its
    frontier is empty or its ball is everything, so the table takes at most
    one round more than the largest finite distance. `verify` builds it only
    for graphs that `classify` accepts, whose diameter is at most 4: at most
    5 rounds.
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
        table = tuple([1 << i] for i in range(n))
        frontier = [1 << i for i in range(n)]
        unseen = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        active = [i for i in range(n) if unseen[i]]
        while active:
            # A source that drops out keeps frontier 0 from the next round on.
            nxt = [0] * n
            still = []
            for i in active:
                f, m = frontier[i], masks[i]
                reach = 0
                if f.bit_count() <= m.bit_count():
                    for j in bits(f):
                        reach |= masks[j]
                else:
                    for j in bits(m):
                        reach |= frontier[j]
                f = reach & unseen[i]
                if f:
                    table[i].append(f)
                    nxt[i] = f
                    unseen[i] ^= f
                    if unseen[i]:
                        still.append(i)
            frontier, active = nxt, still
        return table


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

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        """Neighbor labels of every vertex, for callers that work in labels."""
        idx = self.index
        return {v: frozenset(idx.labels_of(m)) for v, m in zip(idx.labels, idx.masks)}

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
        for e in self.edges:
            pair = tuple(e)
            if len(pair) != 2:
                problems.append(f"edge must be a pair of labels: {e!r}")
                continue
            a, b = pair
            if a == b:
                problems.append(f"loop edge not allowed: ({a!r}, {b!r})")
                continue
            for x in (a, b):
                if x not in seen:
                    problems.append(f"edge endpoint is not a declared vertex: {x!r}")
            key = (a, b) if a < b else (b, a)
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
        violations: list[str] = []
        u_problems, u_seen = _label_problems(self.part_u, "part U")
        w_problems, w_seen = _label_problems(self.part_w, "part W")
        violations.extend(u_problems)
        violations.extend(w_problems)
        for shared in sorted(u_seen & w_seen):
            violations.append(f"label in both parts: {shared!r}")
        norm: set[tuple[str, str]] = set()
        for e in self.edges:
            pair = tuple(e)
            if len(pair) != 2:
                violations.append(f"edge must be a pair of labels: {e!r}")
                continue
            a, b = pair
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
    table is `GraphIndex.layers`: built once per graph in level-synchronous
    rounds, each frontier expanded top-down or from the neighbours'
    frontiers, whichever reads fewer masks, and shared: do not modify it.
    """
    return g.index.layers
