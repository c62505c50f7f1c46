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


# Any value a JSON document can hold, and a few it cannot: lone surrogates,
# tuples. Text draws from every code point, surrogates included, and from a
# few short labels so that some entries name declared vertices.
_labels = st.sampled_from(["a", "b", "c", "u1", "w1", "", "\ud800", "ab"])
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | _labels
    | st.text(st.characters(blacklist_categories=()), max_size=3)
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_labels, inner, max_size=3),
    max_leaves=12,
)
# A constructor field: any value, or a list of label pairs, label triples,
# lone labels and arbitrary values, so that validation reaches past the
# field itself into its entries.
json_fields = json_values | st.lists(
    st.lists(_labels, min_size=2, max_size=3) | _labels | json_values, max_size=5
)
