"""Hypothesis strategies for random graphs."""

from hypothesis import strategies as st

from circgraph.graphs import BipartiteGraph, SimpleGraph


@st.composite
def simple_graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    labels = [f"a{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return SimpleGraph(tuple(labels), tuple(edges))


@st.composite
def bipartite_graphs(draw, max_u=5, max_w=5):
    # Both parts draw from one shuffled pool (v8, v9, v10, ...), so sorted
    # label order interleaves the parts and differs from construction order.
    nu = draw(st.integers(min_value=0, max_value=max_u))
    nw = draw(st.integers(min_value=0, max_value=max_w))
    pool = draw(st.permutations([f"v{i}" for i in range(8, 8 + nu + nw)]))
    us, ws = pool[:nu], pool[nu:]
    edges = [(u, w) for u in us for w in ws if draw(st.booleans())]
    return BipartiteGraph(tuple(us), tuple(ws), tuple(edges))


@st.composite
def nonempty_simple_graphs(draw, max_n=7):
    return draw(simple_graphs(min_n=1, max_n=max_n))
