"""Expected answers, computed without circgraph.

Recognition uses the benchmark's own triple counter: count, for every point
triple, the circles holding all three. The expected verify report follows
the documented contract: circle degrees are checked first and then point
triples in lexicographic order, the first violation is the witness, and
the four checks pass on every circular graph they apply to. Isomorphism
answers follow from how each pair was built. Non-isomorphic pairs and
census classes are told apart with networkx, which only this directory
uses, and, where its invariant cannot, by trying every point bijection.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations, permutations

import networkx as nx

from corpus import LabeledDesign

CHECK_ORDER = ("w_pair_bound", "point_degrees", "distance_profile", "metric_bounds")


def triple_counts(blocks) -> Counter:
    """For every point triple (sorted), the number of blocks containing it."""
    counts: Counter = Counter()
    for members in blocks:
        counts.update(combinations(sorted(members), 3))
    return counts


def classification(points, circles) -> dict:
    """The classification a report must carry for this labeled design.

    `circles` pairs each circle label with its member points.
    """
    def verdict(name, kind=None, vertices=(), detail=None):
        witness = None
        if kind is not None:
            witness = {"kind": kind, "vertices": list(vertices), "detail": detail}
        return {"verdict": name, "witness": witness,
                "triple_axiom_vacuous": len(points) < 3, "note": None}

    for label, members in sorted(circles):
        if len(members) < 3:
            return verdict("NotCircular", "CircleDegreeTooSmall", (label,), len(members))
    counts = triple_counts(members for _, members in circles)
    for t in combinations(sorted(points), 3):
        c = counts.get(t, 0)
        if c != 1:
            kind = "TripleUncovered" if c == 0 else "TripleOvercovered"
            return verdict("NotCircular", kind, t, c)
    if len(circles) >= 2:
        return verdict("NonTrivialCircular")
    if len(circles) == 1 and len(points) >= 3:
        return verdict("TrivialCircular")
    raise ValueError("the corpus holds no degenerate designs")


def expected_verify(ld: LabeledDesign) -> dict:
    cls = classification(ld.points, ld.circles)
    statuses = {
        "NonTrivialCircular": ["Pass"] * 4,
        "TrivialCircular": ["Pass", "NotApplicable", "NotApplicable", "Pass"],
        "NotCircular": ["NotApplicable"] * 4,
    }[cls["verdict"]]
    return {
        "classification": cls,
        "checks": statuses,
        "exit": 1 if cls["verdict"] == "NotCircular" else 0,
    }


def sha256_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_verify(report: dict, expect: dict, text: str) -> str | None:
    """None when the verify report is right, else what is wrong."""
    if report.get("format") != "report-v1":
        return "not a report-v1 object"
    if report.get("input_digest") != sha256_text(text):
        return "input digest does not match the input file"
    if report.get("classification") != expect["classification"]:
        return f"classification {report.get('classification')} != {expect['classification']}"
    got = [(c.get("check"), c.get("status")) for c in report.get("checks", [])]
    want = list(zip(CHECK_ORDER, expect["checks"]))
    if got != want:
        return f"checks {got} != {want}"
    return None


# --- graphs read back from the generated files ----------------------------


def file_graph(obj: dict) -> nx.Graph:
    """The graph a bigraph-v1 or graph-v1 file describes; parts as node data."""
    g = nx.Graph()
    if obj["format"] == "bigraph-v1":
        g.add_nodes_from(obj["u"], part="u")
        g.add_nodes_from(obj["w"], part="w")
    else:
        g.add_nodes_from(obj["vertices"], part=None)
    g.add_edges_from(obj["edges"])
    return g


def pair_profile(g: nx.Graph) -> list:
    """Per vertex, its part and the sorted common-neighbor counts with the
    other vertices of its part. The sorted list is a part-respecting
    isomorphism invariant that, unlike colour refinement, tells apart the
    biregular graphs an edge switch produces."""
    prof = []
    for v in g:
        part = g.nodes[v]["part"]
        counts = sorted(
            len(list(nx.common_neighbors(g, v, x)))
            for x in g
            if x != v and g.nodes[x]["part"] == part
        )
        prof.append((str(part), tuple(counts)))
    return sorted(prof)


def non_isomorphic(g1: nx.Graph, g2: nx.Graph) -> bool:
    """True when networkx's VF2++ finds no isomorphism (parts ignored)."""
    return not nx.vf2pp_is_isomorphic(g1, g2)


def replay_mapping(mapping: dict, g1: nx.Graph, g2: nx.Graph, respect_parts: bool) -> str | None:
    """None when the mapping is a (part-preserving) isomorphism g1 -> g2."""
    if sorted(mapping) != sorted(g1.nodes) or sorted(mapping.values()) != sorted(g2.nodes):
        return "mapping is not a bijection between the vertex sets"
    moved = {frozenset((mapping[a], mapping[b])) for a, b in g1.edges}
    if moved != {frozenset(e) for e in g2.edges}:
        return "mapping does not carry the edge set onto the other"
    if respect_parts and any(g1.nodes[v]["part"] != g2.nodes[mapping[v]]["part"] for v in g1):
        return "mapping does not preserve the parts"
    return None


def check_iso(out: dict, expect: dict, g1: nx.Graph, g2: nx.Graph) -> str | None:
    if out.get("isomorphic") is not expect["isomorphic"]:
        return f"isomorphic={out.get('isomorphic')}, expected {expect['isomorphic']}"
    if not expect["isomorphic"]:
        return None if out.get("mapping") is None else "mapping given for a non-isomorphic pair"
    if not isinstance(out.get("mapping"), dict):
        return "no mapping for an isomorphic pair"
    return replay_mapping(out["mapping"], g1, g2, expect["respect_parts"])


# --- census ---------------------------------------------------------------


def bigraph_blocks(obj: dict) -> tuple[list[str], list[tuple[str, tuple[str, ...]]]]:
    members: dict[str, list[str]] = {w: [] for w in obj["w"]}
    for u, w in obj["edges"]:
        members[w].append(u)
    return obj["u"], [(w, tuple(ms)) for w, ms in members.items()]


def design_isomorphic(points1, blocks1, points2, blocks2) -> bool:
    """Part-respecting isomorphism of two small designs, by trying every
    bijection of the points; exact, and bounded by the point count."""
    if len(points1) != len(points2) or sorted(map(len, blocks1)) != sorted(map(len, blocks2)):
        return False
    target = Counter(frozenset(b) for b in blocks2)
    for image in permutations(points2):
        move = dict(zip(points1, image))
        if Counter(frozenset(move[x] for x in b) for b in blocks1) == target:
            return True
    return False


def check_census(report: dict, classes: int, u_size: int | None) -> str | None:
    """Each class circular by the counter, the count pinned, classes distinct."""
    entries = report.get("census")
    if not isinstance(entries, list) or len(entries) != classes:
        return f"expected {classes} classes, got {None if entries is None else len(entries)}"
    designs = []
    for e in entries:
        points, circles = bigraph_blocks(e["graph"])
        verdict = classification(points, circles)["verdict"]
        if verdict == "NotCircular" or verdict != e.get("verdict"):
            return f"class verdict {e.get('verdict')}, counter says {verdict}"
        if u_size is not None and len(points) != u_size:
            return f"class has {len(points)} points, expected {u_size}"
        blocks = [members for _, members in circles]
        designs.append((points, blocks, pair_profile(file_graph(e["graph"]))))
    for (p1, b1, prof1), (p2, b2, prof2) in combinations(designs, 2):
        if prof1 == prof2 and design_isomorphic(p1, b1, p2, b2):
            return "two census classes are isomorphic"
    return None
