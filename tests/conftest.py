import hypothesis.strategies as st
import numpy as np

from scoresets.graph_core import BipartiteOrientedGraph


@st.composite
def graphs(draw, max_m=4, max_n=4):
    """Random graphs with uniformly chosen pair states."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    states = draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n))
    return BipartiteOrientedGraph.from_states(np.array(states).reshape(m, n))


def per_vertex_scores(g):
    """Reference U- and V-scores, one vertex at a time from its row or
    column of states: part size + out-arcs - in-arcs."""
    rows, cols = g.states.tolist(), g.states.T.tolist()
    return (
        [g.n + row.count(1) - row.count(2) for row in rows],
        [g.m + col.count(2) - col.count(1) for col in cols],
    )


@st.composite
def nondecreasing_sequences(draw, max_len=6, max_value=12):
    values = draw(st.lists(st.integers(0, max_value), min_size=1, max_size=max_len))
    return tuple(sorted(values))
