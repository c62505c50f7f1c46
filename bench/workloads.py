"""The three workloads: seeded input files plus the expected answer per operation.

An operation is one `circgraph` command line. The program sees only its
argv and the files named there; the `expect` part stays with the benchmark.
"""

from __future__ import annotations

import random
from pathlib import Path

import corpus
import oracle

WORKLOADS = ("verify-corpus", "iso-pairs", "census")

# Pinned by the benchmark's own naive enumeration (test_bench.py), never
# read from circgraph's output. The circular census runs at u = 6 (83
# labeled families, about 0.3 s), not u = 7 (6150 families, about 20 s):
# a run then times dozens of censuses spread over its length instead of
# two, and the u = 7 figures of ten runs spread wider than any bound the
# benchmark may set (see README.md).
CENSUS_U = 6
CENSUS_CLASSES = 6
TREES_MAX = 10
TREE_ENTRIES = 7

FORMATS = ("bigraph-v1", "design-v1")


class Plan:
    """Writes input files into one directory and collects the operations.

    The operations fall into groups. Each group runs as its own pass, in a
    fresh interpreter, once per round of the workload.
    """

    def __init__(self, root: Path, directory: Path, graph_keys: dict | None = None):
        self.root = root
        self.dir = directory
        self.groups: list[dict] = []
        # Graphs already written; plans of one run share it.
        self.graph_keys: dict[tuple, str] = {} if graph_keys is None else graph_keys

    def write(self, name: str, obj: dict) -> str:
        """Write one input file; its graph must differ from every earlier one.

        A repeated graph would be served from canonical_form's lru_cache or
        a cached adjacency, which a real one-command process never hits.
        """
        key = graph_key(obj)
        if key in self.graph_keys:
            raise AssertionError(f"{name} repeats the graph of {self.graph_keys[key]}")
        path = self.dir / f"{len(self.graph_keys):03d}-{name}.json"
        self.graph_keys[key] = path.name
        path.write_text(corpus.dump(obj), encoding="utf-8")
        return path.relative_to(self.root).as_posix()

    def group(self) -> None:
        """Start a group; later operations go into it."""
        self.groups.append({"ops": []})

    def add(self, name: str, argv: list[str], expect: dict) -> None:
        if not self.groups:
            self.group()
        self.groups[-1]["ops"].append({"name": name, "argv": argv, "expect": expect})


def graph_key(obj: dict) -> tuple:
    """The labeled graph a file describes, as parts and an edge set."""
    if obj["format"] == "design-v1":
        w = [corpus.design_block_label(b) for b in obj["blocks"]]
        edges = [(x, lab) for b, lab in zip(obj["blocks"], w) for x in b]
        parts = (frozenset(obj["points"]), frozenset(w))
    elif obj["format"] == "bigraph-v1":
        edges, parts = obj["edges"], (frozenset(obj["u"]), frozenset(obj["w"]))
    else:
        edges, parts = obj["edges"], (frozenset(obj["vertices"]),)
    return parts, frozenset(frozenset(e) for e in edges)


def verify_corpus(plan: Plan, rng: random.Random) -> None:
    # The two large stars cost about what the q=5 plane and triangular(11)
    # cost, so the tail rank (the 11th slowest of 72) sits inside a cluster
    # of eight similar operations instead of at the edge of a gap.
    bases = (
        [(f"plane{q}", corpus.inversive_plane(q)) for q in (3, 4, 5, 7, 8)]
        + [("sqs8", corpus.sqs8())]
        + [(f"tri{n}", corpus.triangular(n)) for n in range(6, 13)]
        + [(f"star{m}", corpus.star(m)) for m in (5, 9, 17, 58, 62)]
    )
    files = []
    for name, d in bases:
        # Each base in both formats, plus two seeded perturbations of it.
        for fmt in rng.sample(FORMATS, 2):
            files.append((name, corpus.label_design(d, rng, fmt)))
        for _ in range(2):
            fmt = rng.choice(FORMATS)
            kind, bad = corpus.perturb(d, rng, keep_size_3=fmt == "design-v1")
            files.append((f"{name}-{kind}", corpus.label_design(bad, rng, fmt)))
    rng.shuffle(files)
    for name, ld in files:
        expect = oracle.expected_verify(ld)
        if ("-" in name) != (expect["classification"]["verdict"] == "NotCircular"):
            raise AssertionError(f"{name}: generator produced {expect['classification']}")
        path = plan.write(name, ld.to_obj())
        plan.add(name, ["verify", path], {"kind": "verify", "file": path, **expect})


def iso_pairs(plan: Plan, rng: random.Random) -> None:
    # Copy counts put 17 operations below the twenty triangular(8) pairs and
    # 17 above them, so the median falls in the middle of that cluster, and
    # the tail rank (the 11th slowest of 54) in the middle of the eleven
    # triangular(9) relabelings. A rank at the edge of a cluster, next to
    # kinds whose cost moves with the draw of switches and labelings (the
    # switched q=3 planes, the doubling pairs), would swing with the seed;
    # a large cluster at the median makes it move little when the costs
    # within the cluster do.
    pairs = []  # (name, first, second, respect_parts, isomorphic)

    def bigraph(d):
        return corpus.label_design(d, rng, "bigraph-v1").to_obj()

    tri = {n: corpus.triangular(n) for n in range(5, 12)}
    plane3, plane4, sqs = corpus.inversive_plane(3), corpus.inversive_plane(4), corpus.sqs8()
    for name, d, copies in (("tri8", tri[8], 10), ("tri9", tri[9], 11), ("tri10", tri[10], 2),
                            ("tri11", tri[11], 1), ("plane3", plane3, 3), ("plane4", plane4, 1),
                            ("sqs8", sqs, 3)):
        for _ in range(copies):
            pairs.append((f"relabel-{name}", bigraph(d), bigraph(d), True, True))
    for name, d, copies in (("tri8", tri[8], 10), ("plane3", plane3, 3), ("sqs8", sqs, 3)):
        for _ in range(copies):
            a = bigraph(d)
            # Keep a switch only when networkx's common-neighbor profile tells
            # the graphs apart; that proves them non-isomorphic.
            profile = oracle.pair_profile(oracle.file_graph(a))
            while True:
                b = bigraph(corpus.edge_switch(d, rng))
                if oracle.pair_profile(oracle.file_graph(b)) != profile:
                    break
            pairs.append((f"switch-{name}", a, b, True, False))
    for n in (5, 6):
        for _ in range(2):
            nbhd, union = corpus.doubling_pair(tri[n])
            pairs.append((f"doubling-tri{n}", bigraph(nbhd), corpus.label_simple(union, rng), False, True))
    a = corpus.label_simple(corpus.shrikhande(), rng)
    b = corpus.label_simple(corpus.rook4(), rng)
    if not oracle.non_isomorphic(oracle.file_graph(a), oracle.file_graph(b)):
        raise AssertionError("networkx finds Shrikhande and the rook's graph isomorphic")
    pairs.append(("shrikhande-rook", a, b, False, False))
    for _ in range(2):
        paley = corpus.paley(13)
        pairs.append(("relabel-paley13", corpus.label_simple(paley, rng),
                      corpus.label_simple(paley, rng), False, True))
    rng.shuffle(pairs)
    for name, a, b, respect, iso in pairs:
        pa, pb = plan.write(name + "-a", a), plan.write(name + "-b", b)
        argv = ["iso"] + (["--respect-parts"] if respect else []) + [pa, pb]
        plan.add(name, argv, {"kind": "iso", "files": [pa, pb], "respect_parts": respect,
                              "isomorphic": iso, "exit": 0 if iso else 1})


def hostile_pair(plan: Plan, rng: random.Random) -> dict:
    """Two edgeless graphs on 1200 vertices: isomorphic, and the input on which
    canonical search exceeds Python's recursion limit at the seed commit."""
    files = [plan.write(f"edgeless1200-{side}", corpus.label_simple((1200, []), rng)) for side in "ab"]
    return {"name": "edgeless1200", "argv": ["iso", *files],
            "expect": {"kind": "iso", "files": files, "respect_parts": False,
                       "isomorphic": True, "exit": 0}}


def census(plan: Plan, rng: random.Random) -> None:
    # Each census in its own fresh process, as two `circgraph enum` commands
    # would run; the tree census also never sees the circular census's caches.
    plan.group()
    plan.add("enum-circular", ["enum", "circular", "--u", str(CENSUS_U)],
             {"kind": "census", "classes": CENSUS_CLASSES, "u_size": CENSUS_U, "exit": 0})
    plan.group()
    plan.add("enum-trees", ["enum", "trees", "--max", str(TREES_MAX)],
             {"kind": "census", "classes": TREE_ENTRIES, "u_size": None, "exit": 0})


BUILDERS = {"verify-corpus": verify_corpus, "iso-pairs": iso_pairs, "census": census}
