"""Independent oracles and small utilities shared by the tests.

Everything here recomputes facts from scratch (plain BFS, permutation
search, raw loops) so library results are checked against code that shares
no logic with the implementation under test. Two exceptions reuse library
code around the part they check. `reference_are_isomorphic` composes two of
the library's full canonical labelings: the reference for the
early-stopping second search of `are_isomorphic`. `free_trees` keeps the
first tree of each plain canonical form, and `brute_force_circular_trees`
deduplicates and describes those trees with the census's own class winner
rule and entry code: the reference for the closed-form tree census, which
they reach by searching every tree. `first_least_leaf` walks the canonical
search tree, built with the library's `_refine`, with no pruning at all:
the reference for the pruned search.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations, permutations
import random

from circgraph.canonical import IsoCertificate, _refine, canonical_form
from circgraph.census import _classes
from circgraph.circular import (
    CircularClassification,
    Verdict,
    Violation,
    ViolationKind,
    classify,
)
from circgraph.graphs import UNREACHABLE, BipartiteGraph, GraphError, SimpleGraph, bfs_layers


def oracle_bfs(g, start):
    """Distance map by a from-scratch BFS over the adjacency dict."""
    adj = {v: set() for v in g.vertex_labels}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def oracle_distance(g, a, b):
    return oracle_bfs(g, a).get(b, UNREACHABLE)


def oracle_diameter_radius(g):
    """(diameter, radius) by all-pairs BFS; UNREACHABLE when disconnected."""
    labels = list(g.vertex_labels)
    eccs = []
    for v in labels:
        dist = oracle_bfs(g, v)
        if len(dist) < len(labels):
            eccs.append(UNREACHABLE)
        else:
            eccs.append(max(dist.values()))
    return max(eccs), min(eccs)


def oracle_components(g):
    labels = set(g.vertex_labels)
    comps = []
    while labels:
        start = min(labels)
        reached = set(oracle_bfs(g, start))
        comps.append(tuple(sorted(reached)))
        labels -= reached
    return sorted(comps)


def oracle_neighborhood_graph(g):
    """(part_u, part_w, edges) of the open-neighborhood graph, each sorted,
    by raw loops over g.edges: u meets N(v) when {u, v} is an edge. No
    label of g may look like N(...), since no tag gets a suffix here."""
    part_u = sorted(g.vertex_labels)
    edges = []
    for v in part_u:
        for a, b in g.edges:
            if a == v:
                edges.append((b, f"N({v})"))
            elif b == v:
                edges.append((a, f"N({v})"))
    return part_u, sorted(f"N({v})" for v in part_u), sorted(edges)


def oracle_isomorphic(g1, g2):
    """Permutation search; only for graphs with at most ~7 vertices."""
    v1, v2 = sorted(g1.vertex_labels), sorted(g2.vertex_labels)
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False
    e2 = {frozenset(e) for e in g2.edges}
    for perm in permutations(v2):
        mapping = dict(zip(v1, perm))
        if {frozenset((mapping[a], mapping[b])) for a, b in g1.edges} == e2:
            return True
    return False


def oracle_part_isomorphic(g1, g2):
    """Part-preserving permutation search; parts of at most ~4 labels."""
    if (len(g1.part_u), len(g1.part_w), len(g1.edges)) != (
        len(g2.part_u),
        len(g2.part_w),
        len(g2.edges),
    ):
        return False
    e2 = set(g2.edges)
    for pu in permutations(g2.part_u):
        mu = dict(zip(sorted(g1.part_u), pu))
        for pw in permutations(g2.part_w):
            mw = dict(zip(sorted(g1.part_w), pw))
            mapping = {**mu, **mw}
            if {(mapping[a], mapping[b]) for a, b in g1.edges} == e2:
                return True
    return False


def reference_are_isomorphic(g1, g2, respect_parts=False):
    """Isomorphism by two full canonical labelings: isomorphic when the keys
    agree, the mapping composed through both relabelings. The reference for
    `are_isomorphic`, whose second labeling stops at its first least leaf."""
    f1 = canonical_form(g1, respect_parts)
    f2 = canonical_form(g2, respect_parts)
    if f1.key != f2.key:
        return IsoCertificate(False, None)
    pos_to_label = {pos: lab for lab, pos in f2.relabeling.items()}
    return IsoCertificate(True, {lab: pos_to_label[pos] for lab, pos in f1.relabeling.items()})


def reference_rows(form):
    """The row integers that `form.bits` spells out, row i in n-1-i bits."""
    rows = []
    start = 0
    for width in range(form.n - 1, 0, -1):
        rows.append(int(form.bits[start : start + width], 2))
        start += width
    return tuple(rows)


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


def simple_cycles_up_to(g, max_len):
    """All simple cycles of length <= max_len, each reported twice (both
    directions); good enough for parity checks on small graphs."""
    adj = {v: sorted(g.neighbors(v)) for v in g.vertex_labels}
    cycles = []

    def extend(path, start):
        last = path[-1]
        for nxt in adj[last]:
            if nxt == start and len(path) >= 3:
                cycles.append(tuple(path))
            elif nxt not in path and nxt > start and len(path) < max_len:
                extend(path + [nxt], start)

    for s in sorted(g.vertex_labels):
        extend([s], s)
    return cycles


def random_bipartite(rng: random.Random, max_part=6) -> BipartiteGraph:
    """Random bipartite graph whose parts draw from one shuffled label pool
    (v8, v9, v10, ...), so sorted label order interleaves the parts."""
    nu = rng.randint(0, max_part)
    nw = rng.randint(0, max_part)
    pool = [f"v{i}" for i in range(8, 8 + nu + nw)]
    rng.shuffle(pool)
    us, ws = pool[:nu], pool[nu:]
    p = rng.choice([0.15, 0.35, 0.6, 0.85])
    edges = [(u, w) for u in us for w in ws if rng.random() < p]
    return BipartiteGraph(tuple(us), tuple(ws), tuple(edges))


def relabeled(g, rng: random.Random):
    """Random relabeling; bipartite graphs keep their parts."""
    labels = list(g.vertex_labels)
    new = [f"x{i}" for i in range(len(labels))]
    rng.shuffle(new)
    mapping = dict(zip(labels, new))
    edges = tuple((mapping[a], mapping[b]) for a, b in g.edges)
    if isinstance(g, BipartiteGraph):
        return (
            BipartiteGraph(
                tuple(mapping[v] for v in g.part_u),
                tuple(mapping[v] for v in g.part_w),
                edges,
            ),
            mapping,
        )
    return SimpleGraph(tuple(mapping[v] for v in g.vertices), edges), mapping


PERTURBATIONS = ("drop", "add", "merge", "duplicate")


def perturbed(g: BipartiteGraph, rng: random.Random, kind: str):
    """g with one seeded change of the given kind, or None where it has none.

    drop removes an incidence, add joins a point to a circle missing it,
    merge joins a circle's points into another circle and removes it, and
    duplicate adds a copy of a circle under a fresh label.
    """
    edges = list(g.edges)
    if kind == "drop":
        if not edges:
            return None
        edges.remove(rng.choice(edges))
        return BipartiteGraph(g.part_u, g.part_w, tuple(edges))
    points = {w: sorted(u for u, x in edges if x == w) for w in g.part_w}
    if kind == "add":
        missing = [(u, w) for w in g.part_w for u in g.part_u if u not in points[w]]
        if not missing:
            return None
        return BipartiteGraph(g.part_u, g.part_w, tuple(edges + [rng.choice(missing)]))
    if kind == "merge":
        if len(g.part_w) < 2:
            return None
        keep, gone = rng.sample(g.part_w, 2)
        merged = {(u, keep if w == gone else w) for u, w in edges}
        return BipartiteGraph(
            g.part_u, tuple(w for w in g.part_w if w != gone), tuple(merged)
        )
    if not g.part_w:
        return None
    w = rng.choice(g.part_w)
    copy = w + "'"
    while copy in g.part_u or copy in g.part_w:
        copy += "'"
    return BipartiteGraph(
        g.part_u, g.part_w + (copy,), tuple(edges + [(u, copy) for u in points[w]])
    )


def dumb_circular_families(u_size):
    """Powerset filter over all block families; cross-check for the census.

    Only feasible for u_size <= 5. Returns the set of families, each as a
    sorted tuple of sorted member tuples.
    """
    points = list(range(u_size))
    blocks = []
    for size in range(3, u_size + 1):
        blocks.extend(combinations(points, size))
    triples = list(combinations(points, 3))
    families = set()
    for mask in range(1 << len(blocks)):
        chosen = [blocks[i] for i in range(len(blocks)) if mask >> i & 1]
        cover = {t: 0 for t in triples}
        for b in chosen:
            for t in combinations(b, 3):
                cover[t] += 1
        if all(c == 1 for c in cover.values()):
            families.add(tuple(sorted(chosen)))
    return families


def reference_refine(n, adj, colors):
    """Colour refinement by global signature (own colour, sorted neighbour
    colours), renumbered in signature order; the reference for the cell
    order of `canonical._refine`. `adj[v]` is the set of v's neighbours."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def reference_individualize(colors, v):
    """v takes its class's slot; former classmates shift one slot down."""
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


def cell_masks(cells):
    """Cells as lists of positions -> cells as masks (bit v = position v)."""
    return [sum(1 << v for v in cell) for cell in cells]


def cell_lists(cells):
    """Cells as masks -> cells as ascending lists of positions."""
    return [[v for v in range(cell.bit_length()) if cell >> v & 1] for cell in cells]


def reference_in_explored_orbit(gens, prefix, explored, v):
    """Orbit pruning over all n vertices, from scratch: union a with p[a]
    for every a and every generator p fixing the prefix pointwise, then ask
    whether v shares an orbit with an explored candidate."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for p in gens:
        if all(p[x] == x for x in prefix):
            for a, b in enumerate(p):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return find(v) in {find(u) for u in explored}


def first_least_leaf(masks, cells):
    """Bits and vertex order of the first least leaf, in depth-first order,
    of the whole search tree from the initial `cells`: every member of every
    target cell is individualized, with no pruning. The tree is the one
    `canonical._search` walks: `_refine` at each node, and the target is
    the smallest cell of two or more members, the lowest index on ties."""
    n = len(masks)
    best = None

    def walk(cells):
        nonlocal best
        open_cells = [(cell.bit_count(), t) for t, cell in enumerate(cells) if cell & (cell - 1)]
        if not open_cells:
            order = [cell.bit_length() - 1 for cell in cells]
            leaf = "".join(
                str(masks[order[i]] >> order[j] & 1) for i in range(n) for j in range(i + 1, n)
            )
            if best is None or leaf < best[0]:
                best = (leaf, order)
            return
        _, t = min(open_cells)
        target = cells[t]
        for v in range(n):
            if target >> v & 1:
                low = 1 << v
                walk(_refine(masks, cells[:t] + [low, target ^ low] + cells[t + 1 :], [low]))

    walk(_refine(masks, [cell for cell in cells if cell]))
    return best


def _simple(n, adjacent, prefix):
    labels = [f"{prefix}{i}" for i in range(n)]
    edges = tuple((labels[a], labels[b]) for a, b in combinations(range(n), 2) if adjacent(a, b))
    return SimpleGraph(tuple(labels), edges)


def shrikhande():
    """Cayley graph of Z4 x Z4 on steps +-(1,0), +-(0,1), +-(1,1): srg(16,6,2,2)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return _simple(16, lambda a, b: ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps, "s")


def rook(k):
    """The k x k rook's graph; rook(4) is srg(16,6,2,2), not isomorphic to
    Shrikhande's."""
    return _simple(k * k, lambda a, b: a // k == b // k or a % k == b % k, "r")


def paley(p):
    squares = {x * x % p for x in range(1, p)}
    return _simple(p, lambda a, b: (b - a) % p in squares, "p")


def cfi(base_edges, n, twists):
    """Cai-Fuerer-Immerman graph over a base graph on vertices 0..n-1.

    Vertex x becomes one a-vertex per even subset S of its incident edges
    and two b-vertices (bit 0, bit 1) per incident edge e; a_S meets bit 1
    of e when e is in S, else bit 0. The two ends of each base edge join bit
    to bit, crossed on the edges whose indices are in twists. Over a
    connected base graph, twisting an even number of edges gives a graph
    isomorphic to the untwisted one and an odd number one that is not;
    colour refinement cannot tell them apart. Edges (x, y) have x < y and
    n <= 10, so the labels are unique.
    """
    edges = []
    for x in range(n):
        incident = [e for e in base_edges if x in e]
        for size in range(0, len(incident) + 1, 2):
            for subset in combinations(incident, size):
                a = f"a{x}:" + ",".join(f"{e[0]}{e[1]}" for e in subset)
                edges.extend((a, f"b{x}:{e[0]}{e[1]}:{int(e in subset)}") for e in incident)
    for i, (x, y) in enumerate(base_edges):
        for bit in (0, 1):
            other = bit ^ (i in twists)
            edges.append((f"b{x}:{x}{y}:{bit}", f"b{y}:{x}{y}:{other}"))
    return SimpleGraph(tuple(sorted({v for e in edges for v in e})), tuple(edges))


def cfi_k4(twisted):
    """The CFI graphs over K4 (40 vertices, 60 edges), twisted on the first edge."""
    return cfi(list(combinations(range(4), 2)), 4, {0} if twisted else ())


def petersen_edges():
    """The Petersen graph's 15 edges: outer 5-cycle, spokes, inner pentagram."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return sorted(tuple(sorted(e)) for e in edges)


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[SimpleGraph, ...]:
    """All free trees on n vertices up to isomorphism, labels v0..v(n-1).

    Grown by leaf attachment from the trees on n-1 vertices and deduplicated
    by canonical form, keeping the first tree of each form, in key order;
    every tree arises because removing any leaf of it lands on a smaller
    representative.
    """
    if not 1 <= n <= 12:
        raise GraphError(f"tree size must be between 1 and 12: got {n}")
    if n == 1:
        return (SimpleGraph(("v0",), ()),)
    new = f"v{n - 1}"
    first: dict[tuple, SimpleGraph] = {}
    for t in free_trees(n - 1):
        for v in t.vertices:
            g = SimpleGraph(t.vertices + (new,), t.edges + ((v, new),))
            first.setdefault(canonical_form(g).key, g)
    return tuple(first[key] for key in sorted(first))


def _tree_bipartition(tree: SimpleGraph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    idx = tree.index
    layers = bfs_layers(idx.masks, 0)
    return idx.labels_of(sum(layers[0::2])), idx.labels_of(sum(layers[1::2]))


def brute_force_circular_trees(max_n):
    """The tree census by search: both orientations of every free tree on up
    to max_n vertices go through `classify`, and the circular ones through
    the census's own class and entry code."""

    def circular():
        for n in range(1, max_n + 1):
            for tree in free_trees(n):
                side_a, side_b = _tree_bipartition(tree)
                for part_u, part_w in ((side_a, side_b), (side_b, side_a)):
                    g = BipartiteGraph(part_u, part_w, tree.edges)
                    if classify(g).is_circular:
                        yield g

    return _classes(circular())
