import json
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import graphs
from scoresets.graph_core import (
    ArcState,
    BipartiteOrientedGraph,
    Block,
    ScoreSequencePair,
    ScoreSet,
)


def test_new_graph_is_all_absent():
    g = BipartiteOrientedGraph(1, 1)
    assert g.arc(0, 0) is ArcState.ABSENT
    g = BipartiteOrientedGraph(2, 3)
    assert all(g.arc(u, v) is ArcState.ABSENT for u in range(2) for v in range(3))
    assert (g.m, g.n) == (2, 3)


@pytest.mark.parametrize("m,n", [(0, 4), (4, 0), (0, 0), (-1, 2)])
def test_new_graph_rejects_empty_parts(m, n):
    with pytest.raises(ValueError):
        BipartiteOrientedGraph(m, n)


def test_set_arc_write_read():
    g = BipartiteOrientedGraph(1, 1)
    g.set_arc(0, 0, ArcState.U_TO_V)
    assert g.arc(0, 0) is ArcState.U_TO_V


def test_set_arc_overwrites():
    g = BipartiteOrientedGraph(1, 1)
    g.set_arc(0, 0, ArcState.U_TO_V)
    g.set_arc(0, 0, ArcState.V_TO_U)
    assert g.arc(0, 0) is ArcState.V_TO_U
    g = BipartiteOrientedGraph(2, 3)
    g.set_arc(0, 1, ArcState.U_TO_V)
    g.set_arc(1, 2, ArcState.V_TO_U)
    g.set_arc(1, 0, ArcState.U_TO_V)
    g.set_arc(1, 0, ArcState.ABSENT)
    assert repr(g) == "BipartiteOrientedGraph(m=2, n=3, arcs=2)"


def test_set_arc_bounds():
    g = BipartiteOrientedGraph(1, 1)
    with pytest.raises(IndexError):
        g.set_arc(0, 1, ArcState.U_TO_V)
    with pytest.raises(IndexError):
        g.set_arc(1, 0, ArcState.U_TO_V)
    with pytest.raises(IndexError):
        g.score_u(1)
    with pytest.raises(IndexError):
        g.score_v(-2)


def test_scores_on_single_pair():
    g = BipartiteOrientedGraph(1, 1)
    g.set_arc(0, 0, ArcState.U_TO_V)
    assert g.score_u(0) == 2
    assert g.score_v(0) == 0
    g.set_arc(0, 0, ArcState.V_TO_U)
    assert g.score_u(0) == 0
    assert g.score_v(0) == 2


def test_scores_on_empty_graph():
    g = BipartiteOrientedGraph(2, 2)
    assert [g.score_u(u) for u in range(2)] == [2, 2]
    assert [g.score_v(v) for v in range(2)] == [2, 2]


@pytest.mark.parametrize(
    "state,u_score,v_score", [(ArcState.U_TO_V, 600, 0), (ArcState.V_TO_U, 0, 600)]
)
def test_scores_of_complete_300x300(state, u_score, v_score):
    # 300 arcs per vertex overflow an 8-bit accumulator
    g = BipartiteOrientedGraph(300, 300)
    for u in range(300):
        for v in range(300):
            g.set_arc(u, v, state)
    assert g.scores() == ([u_score] * 300, [v_score] * 300)


def test_score_sequences_trivial():
    g = BipartiteOrientedGraph(1, 1)
    assert g.score_sequences() == ScoreSequencePair((1,), (1,))
    g.set_arc(0, 0, ArcState.U_TO_V)
    assert g.score_sequences() == ScoreSequencePair((2,), (0,))


def test_score_set_of_empty_graphs():
    assert BipartiteOrientedGraph(3, 3).score_set() == ScoreSet((3,))
    assert BipartiteOrientedGraph(2, 5).score_set() == ScoreSet((2, 5))


def test_json_of_empty_graph_is_exact():
    assert BipartiteOrientedGraph(1, 1).to_json() == '{"m":1,"n":1,"arcs":[]}'


def test_json_round_trip_all_2x2():
    from scoresets.oracle import EnumerationSpace

    space = EnumerationSpace(2, 2)
    for index in range(space.total):
        g = space.decode(index)
        assert BipartiteOrientedGraph.from_json(g.to_json()) == g


def test_json_duplicate_pair_rejected():
    doc = '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"uv"},{"u":0,"v":0,"dir":"vu"}]}'
    with pytest.raises(ValueError, match="more than once"):
        BipartiteOrientedGraph.from_json(doc)


MALFORMED_DOCUMENTS = [
    ("not json", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1,2]", "graph document must be a JSON object"),
    ('{"m":1,"arcs":[]}', "fields 'm' and 'n' must be integers"),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":1,"dir":"uv"}]}',
        "arc indices out of range: {'u': 0, 'v': 1, 'dir': 'uv'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"sideways"}]}',
        "arc dir must be 'uv' or 'vu': {'u': 0, 'v': 0, 'dir': 'sideways'}",
    ),
    ('{"m":1,"n":1,"arcs":[[0,0,"uv"]]}', "arc entry must be an object: [0, 0, 'uv']"),
    ('{"m":0,"n":1,"arcs":[]}', "both parts must be nonempty, got m=0, n=1"),
    ('{"m":true,"n":1,"arcs":[]}', "fields 'm' and 'n' must be integers"),
    ('{"m":1,"n":2.0,"arcs":[]}', "fields 'm' and 'n' must be integers"),
    ('{"m":1,"n":1,"arcs":{}}', "field 'arcs' must be a list"),
    (
        '{"m":1,"n":1,"arcs":[{"u":true,"v":0,"dir":"uv"}]}',
        "arc indices must be integers: {'u': True, 'v': 0, 'dir': 'uv'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0.0,"v":0,"dir":"uv"}]}',
        "arc indices must be integers: {'u': 0.0, 'v': 0, 'dir': 'uv'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"up"},{"u":0,"v":0,"dir":"uv"}]}',
        "arc dir must be 'uv' or 'vu': {'u': 0, 'v': 0, 'dir': 'up'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"uv"},{"u":0,"v":0,"dir":"up"}]}',
        "pair (0, 0) listed more than once",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":["uv"]}]}',
        "arc dir must be 'uv' or 'vu': {'u': 0, 'v': 0, 'dir': ['uv']}",
    ),
]


@pytest.mark.parametrize(
    "doc,message", MALFORMED_DOCUMENTS, ids=[doc for doc, _ in MALFORMED_DOCUMENTS]
)
def test_json_malformed_documents_rejected(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BipartiteOrientedGraph.from_json(doc)


def reference_arcs(g):
    return [
        (u, v, g.arc(u, v))
        for u in range(g.m)
        for v in range(g.n)
        if g.arc(u, v) is not ArcState.ABSENT
    ]


def reference_json(g, u_blocks, v_blocks):
    arcs = [
        {"u": u, "v": v, "dir": "uv" if s is ArcState.U_TO_V else "vu"}
        for u, v, s in reference_arcs(g)
    ]
    doc = {"m": g.m, "n": g.n, "arcs": arcs}
    if u_blocks is not None or v_blocks is not None:
        doc["blocks"] = {
            part: [{"label": b.label, "from": b.start, "to": b.stop} for b in blocks or ()]
            for part, blocks in (("U", u_blocks), ("V", v_blocks))
        }
    return json.dumps(doc, separators=(",", ":"))


def reference_dot(g, u_blocks, v_blocks):
    lines = ["digraph {"]
    for part, prefix, size, blocks in (("U", "u", g.m, u_blocks), ("V", "v", g.n, v_blocks)):
        labels = {i: b.label for b in blocks or () for i in b.indices()}
        lines += [f"  subgraph cluster_{part} {{", f'    label="{part}";']
        for i in range(size):
            name = f"{prefix}{i}"
            if i in labels:
                lines.append(f'    {name} [label="{name}\\n{labels[i]}"];')
            else:
                lines.append(f"    {name};")
        lines.append("  }")
    for u, v, s in reference_arcs(g):
        lines.append(f"  u{u} -> v{v};" if s is ArcState.U_TO_V else f"  v{v} -> u{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def block_lists(draw, size, prefix):
    """None, or consecutive blocks over a subrange of [0, size)."""
    if draw(st.booleans()):
        return None
    cuts = sorted(draw(st.sets(st.integers(0, size), max_size=size + 1)))
    labels = st.text(alphabet="XYé\"1", min_size=1, max_size=3)
    return [
        Block(f"{prefix}{draw(labels)}", lo, hi, draw(st.integers(0, 12)))
        for lo, hi in zip(cuts, cuts[1:])
    ]


@given(st.data())
def test_serialization_matches_reference(data):
    g = data.draw(graphs(max_m=6, max_n=6))
    u_blocks = data.draw(block_lists(g.m, "X"))
    v_blocks = data.draw(block_lists(g.n, "Y"))
    text = g.to_json(u_blocks=u_blocks, v_blocks=v_blocks)
    assert text == reference_json(g, u_blocks, v_blocks)
    assert g.to_dot(u_blocks=u_blocks, v_blocks=v_blocks) == reference_dot(g, u_blocks, v_blocks)
    assert BipartiteOrientedGraph.from_json(text) == g


def test_json_blocks_follow_schema():
    g = BipartiteOrientedGraph(2, 1)
    doc = json.loads(
        g.to_json(u_blocks=[Block("X1", 0, 2, 5)], v_blocks=[Block("Y1", 0, 1, 5)])
    )
    assert doc["blocks"] == {
        "U": [{"label": "X1", "from": 0, "to": 2}],
        "V": [{"label": "Y1", "from": 0, "to": 1}],
    }


def test_dot_single_edge():
    g = BipartiteOrientedGraph(1, 1)
    g.set_arc(0, 0, ArcState.U_TO_V)
    text = g.to_dot()
    assert text.count("u0 -> v0;") == 1
    assert "v0 -> u0" not in text
    assert "cluster_U" in text and "cluster_V" in text


def test_dot_empty_graph_has_nodes_no_edges():
    text = BipartiteOrientedGraph(2, 2).to_dot()
    assert "->" not in text
    for name in ("u0", "u1", "v0", "v1"):
        assert f"{name};" in text


def test_dot_is_deterministic():
    g = BipartiteOrientedGraph(3, 2)
    g.set_arc(2, 1, ArcState.V_TO_U)
    g.set_arc(0, 0, ArcState.U_TO_V)
    assert g.to_dot() == g.to_dot()


def test_dot_block_labels():
    g = BipartiteOrientedGraph(2, 1)
    text = g.to_dot(u_blocks=[Block("X1", 0, 2, 3)])
    assert 'u0 [label="u0\\nX1"];' in text


def test_score_set_validation():
    with pytest.raises(ValueError):
        ScoreSet((2, 1))
    with pytest.raises(ValueError):
        ScoreSet((1, 1))
    with pytest.raises(ValueError):
        ScoreSet((-1, 3))
    assert ScoreSet.from_values([3, 1, 3]) == ScoreSet((1, 3))
    assert list(ScoreSet((1, 2))) == [1, 2]
    assert 2 in ScoreSet((1, 2)) and 5 not in ScoreSet((1, 2))


def test_score_sequence_pair_validation():
    with pytest.raises(ValueError):
        ScoreSequencePair((2, 1), (0,))
    with pytest.raises(ValueError):
        ScoreSequencePair((0,), (-1,))
    with pytest.raises(ValueError):
        ScoreSequencePair((), (1,))
    pair = ScoreSequencePair([0, 1], [2])
    assert pair.a == (0, 1) and pair.b == (2,)


@given(graphs())
def test_score_bounds(g):
    for u in range(g.m):
        assert 0 <= g.score_u(u) <= 2 * g.n
    for v in range(g.n):
        assert 0 <= g.score_v(v) <= 2 * g.m


@given(graphs())
def test_scores_match_per_vertex_scores(g):
    u_scores, v_scores = g.scores()
    assert u_scores == [g.score_u(u) for u in range(g.m)]
    assert v_scores == [g.score_v(v) for v in range(g.n)]


@given(graphs())
def test_handshake_identity(g):
    total = sum(g.score_u(u) for u in range(g.m)) + sum(g.score_v(v) for v in range(g.n))
    assert total == 2 * g.m * g.n


@given(graphs())
def test_sequences_respect_caps(g):
    pair = g.score_sequences()
    assert all(0 <= x <= 2 * g.n for x in pair.a)
    assert all(0 <= x <= 2 * g.m for x in pair.b)


@given(graphs())
def test_json_round_trip_identity(g):
    assert BipartiteOrientedGraph.from_json(g.to_json()) == g
