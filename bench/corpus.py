"""Benchmark inputs built from first principles, sharing no code with circgraph.

Designs are point/block systems on points 0..n-1 with blocks as sorted int
tuples. The circular ones come from finite geometry: the Miquelian inversive
planes S(3, q+1, q^2+1), whose circles are the images of PG(1, q) under
PGL(2, q^2), and SQS(8), the planes of AG(3, 2). Triangular designs (all
3-subsets) and stars (one block holding every point) complete the family.
Non-circular inputs are seeded perturbations of these, and every file gets a
seeded relabeling, so a seed fixes the inputs exactly.
"""

from __future__ import annotations

import json
import random
import string
from itertools import combinations, product
from typing import NamedTuple


class Design(NamedTuple):
    points: int
    blocks: tuple[tuple[int, ...], ...]


# --- finite fields -------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e, r = 0, q
            while r % p == 0:
                r //= p
                e += 1
            if r != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, e
    raise ValueError(f"not a prime power: {q}")


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    # Remainder of a modulo the monic polynomial m; coefficients low to high.
    a = a[:]
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(m)
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _irreducible(p: int, n: int) -> list[int]:
    """The first monic degree-n polynomial over GF(p) with no proper factor."""
    for low in product(range(p), repeat=n):
        m = list(low) + [1]
        if m[0] == 0:
            continue
        if all(
            _poly_rem(m, list(d) + [1], p)
            for k in range(1, n // 2 + 1)
            for d in product(range(p), repeat=k)
        ):
            return m
    raise ValueError(f"no irreducible polynomial of degree {n} over GF({p})")


class Field:
    """GF(p^n); element k stands for the polynomial with base-p digits of k."""

    def __init__(self, p: int, n: int):
        self.q = q = p**n
        modulus = _irreducible(p, n)

        def digits(k: int) -> list[int]:
            return [k // p**i % p for i in range(n)]

        def encode(coeffs: list[int]) -> int:
            return sum(c * p**i for i, c in enumerate(coeffs))

        self.add = [
            [encode([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
            for a in range(q)
        ]
        self.neg = [encode([-x % p for x in digits(a)]) for a in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits(a)
            for b in range(q):
                prod = [0] * (2 * n - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(digits(b)):
                        prod[i + j] = (prod[i + j] + x * y) % p
                self.mul[a][b] = encode(_poly_rem(prod, modulus, p))
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def power(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul[r][a]
        return r


# --- designs ---------------------------------------------------------------


def inversive_plane(q: int) -> Design:
    """The Miquelian inversive plane of order q on the points of PG(1, q^2).

    Point k < q^2 is the field element k; point q^2 is infinity. The circle
    through three points A, B, C is the image of PG(1, q) under the Moebius
    map sending 0, 1, infinity to A, B, C; walking triples in order and
    skipping covered ones meets each circle once.
    """
    p, e = _prime_power(q)
    f = Field(p, 2 * e)
    subfield = [x for x in range(f.q) if f.power(x, q) == x]
    inf = f.q
    mul, add = f.mul, f.add

    def vec(k: int) -> tuple[int, int]:
        return (1, 0) if k == inf else (k, 1)

    def point(x: int, y: int) -> int:
        return inf if y == 0 else mul[x][f.inv[y]]

    covered: set[tuple[int, int, int]] = set()
    blocks = []
    for a, b, c in combinations(range(f.q + 1), 3):
        if (a, b, c) in covered:
            continue
        (a0, a1), (b0, b1), (c0, c1) = vec(a), vec(b), vec(c)
        det_inv = f.inv[f.sub(mul[c0][a1], mul[a0][c1])]
        lam = mul[f.sub(mul[b0][a1], mul[a0][b1])][det_inv]
        mu = mul[f.sub(mul[c0][b1], mul[b0][c1])][det_inv]
        col0 = (mul[lam][c0], mul[lam][c1])
        col1 = (mul[mu][a0], mul[mu][a1])
        circle = {point(*col0)}
        for x in subfield:
            circle.add(point(add[mul[x][col0[0]]][col1[0]], add[mul[x][col0[1]]][col1[1]]))
        block = tuple(sorted(circle))
        blocks.append(block)
        covered.update(combinations(block, 3))
    return Design(f.q + 1, tuple(blocks))


def sqs8() -> Design:
    """SQS(8): the 14 planes of AG(3, 2), points being the vectors of GF(2)^3."""
    blocks = tuple(
        blk for blk in combinations(range(8), 4) if blk[0] ^ blk[1] ^ blk[2] ^ blk[3] == 0
    )
    return Design(8, blocks)


def triangular(n: int) -> Design:
    return Design(n, tuple(combinations(range(n), 3)))


def star(m: int) -> Design:
    """m points on a single circle: the trivial circular graph."""
    return Design(m, (tuple(range(m)),))


def perturb(d: Design, rng: random.Random, keep_size_3: bool) -> tuple[str, Design]:
    """Break one axiom: drop an incidence, add one, or merge two circles.

    With keep_size_3 no block shrinks below three points, so the result is
    still a valid design-v1 file.
    """
    blocks = [set(b) for b in d.blocks]
    kinds = ["drop", "add", "merge"] if len(blocks) > 1 else ["drop"]
    while True:
        kind = rng.choice(kinds)
        new = [set(b) for b in blocks]
        if kind == "drop":
            i = rng.randrange(len(new))
            if keep_size_3 and len(new[i]) <= 3:
                continue
            new[i].discard(rng.choice(sorted(new[i])))
        elif kind == "add":
            i = rng.randrange(len(new))
            missing = sorted(set(range(d.points)) - new[i])
            if not missing:
                continue
            new[i].add(rng.choice(missing))
        else:
            i, j = sorted(rng.sample(range(len(new)), 2))
            new[i] |= new.pop(j)
        out = tuple(tuple(sorted(b)) for b in new)
        if len(set(out)) == len(out):
            return kind, Design(d.points, out)


def edge_switch(d: Design, rng: random.Random) -> Design:
    """Swap the circles of two incidences; every degree stays the same."""
    blocks = [set(b) for b in d.blocks]
    while True:
        i, j = rng.sample(range(len(blocks)), 2)
        x = rng.choice(sorted(blocks[i] - blocks[j]) or [None])
        y = rng.choice(sorted(blocks[j] - blocks[i]) or [None])
        if x is None or y is None:
            continue
        new = blocks[:]
        new[i] = (blocks[i] - {x}) | {y}
        new[j] = (blocks[j] - {y}) | {x}
        out = tuple(tuple(sorted(b)) for b in new)
        if sorted(out) != sorted(d.blocks):  # two blocks differing in x, y just trade places
            return Design(d.points, out)


# --- simple graphs: (vertex count, edges as int pairs) ------------------


def shrikhande() -> tuple[int, list[tuple[int, int]]]:
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return 16, [
        (a, b)
        for a, b in combinations(range(16), 2)
        if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps
    ]


def rook4() -> tuple[int, list[tuple[int, int]]]:
    return 16, [
        (a, b) for a, b in combinations(range(16), 2) if a // 4 == b // 4 or a % 4 == b % 4
    ]


def paley(p: int) -> tuple[int, list[tuple[int, int]]]:
    squares = {x * x % p for x in range(1, p)}
    return p, [(a, b) for a, b in combinations(range(p), 2) if (b - a) % p in squares]


def incidence_edges(d: Design) -> tuple[int, list[tuple[int, int]]]:
    """The incidence graph as a simple graph: circle i is vertex points + i."""
    return d.points + len(d.blocks), [
        (x, d.points + i) for i, blk in enumerate(d.blocks) for x in blk
    ]


def doubling_pair(d: Design) -> tuple[Design, tuple[int, list[tuple[int, int]]]]:
    """The open-neighborhood graph of the incidence graph G, and G + G.

    The first is bipartite: vertex v of G against one circle N(v) holding
    the neighbors of v. The paper shows it is isomorphic to two copies of G.
    """
    n, edges = incidence_edges(d)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    neighborhood = Design(n, tuple(tuple(sorted(ns)) for ns in nbrs))
    union = edges + [(a + n, b + n) for a, b in edges]
    return neighborhood, (2 * n, union)


# --- seeded labels and files ---------------------------------------------


def fresh_labels(rng: random.Random, k: int) -> list[str]:
    """k distinct random labels, in random order."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < k:
        lab = "".join(rng.choices(string.ascii_lowercase, k=6))
        if lab not in seen:
            seen.add(lab)
            out.append(lab)
    return out


class LabeledDesign(NamedTuple):
    """A design as the program will see it.

    `circles` holds each block's circle label next to its point labels;
    for design-v1 files the label is the one the file format assigns.
    """

    fmt: str
    points: tuple[str, ...]
    circles: tuple[tuple[str, tuple[str, ...]], ...]

    def to_obj(self) -> dict:
        if self.fmt == "design-v1":
            return {
                "format": "design-v1",
                "points": list(self.points),
                "blocks": [list(members) for _, members in self.circles],
            }
        return {
            "format": "bigraph-v1",
            "u": list(self.points),
            "w": [lab for lab, _ in self.circles],
            "edges": [[x, lab] for lab, members in self.circles for x in members],
        }


def design_block_label(members) -> str:
    """Circle label of a design-v1 block, as the file format defines it."""
    return "b{" + ",".join(sorted(members)) + "}"


def label_design(d: Design, rng: random.Random, fmt: str) -> LabeledDesign:
    names = fresh_labels(rng, d.points + len(d.blocks))
    pts = names[: d.points]
    circles = []
    for i in rng.sample(range(len(d.blocks)), len(d.blocks)):
        members = [pts[x] for x in d.blocks[i]]
        rng.shuffle(members)
        lab = design_block_label(members) if fmt == "design-v1" else names[d.points + i]
        circles.append((lab, tuple(members)))
    shown = pts[:]
    rng.shuffle(shown)
    return LabeledDesign(fmt, tuple(shown), tuple(circles))


def label_simple(graph: tuple[int, list[tuple[int, int]]], rng: random.Random) -> dict:
    n, edges = graph
    names = fresh_labels(rng, n)
    shown = [[names[a], names[b]] if rng.random() < 0.5 else [names[b], names[a]] for a, b in edges]
    rng.shuffle(shown)
    return {"format": "graph-v1", "vertices": rng.sample(names, n), "edges": shown}


def dump(obj: dict) -> str:
    return json.dumps(obj) + "\n"
