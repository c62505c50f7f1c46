"""Independent oracles and small utilities shared by the tests.

Everything here recomputes facts from scratch (plain BFS, permutation
search, raw loops) so library results are checked against code that shares
no logic with the implementation under test.
"""

from collections import deque
from itertools import combinations, permutations
import random

from circgraph.graphs import UNREACHABLE, BipartiteGraph


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
    from circgraph.graphs import SimpleGraph

    return SimpleGraph(tuple(mapping[v] for v in g.vertices), edges), mapping


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
