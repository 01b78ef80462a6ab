import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np

import scoresets
from scoresets.graph_core import BipartiteOrientedGraph


def run_python(script, *args):
    """``python -c script args...`` in a fresh interpreter that imports
    this checkout's scoresets; the completed process, output as text."""
    src = str(Path(scoresets.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )


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
