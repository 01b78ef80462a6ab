import json

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


def test_set_arcs_matches_pointwise_loop():
    bulk = BipartiteOrientedGraph(4, 5)
    slow = BipartiteOrientedGraph(4, 5)
    bulk.set_arcs(range(1, 3), range(2, 5), ArcState.V_TO_U)
    for u in range(1, 3):
        for v in range(2, 5):
            slow.set_arc(u, v, ArcState.V_TO_U)
    assert bulk == slow
    bulk.set_arcs(range(0, 0), range(0, 5), ArcState.U_TO_V)  # empty is a no-op
    assert bulk == slow


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


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[1,2]",
        '{"m":1,"arcs":[]}',
        '{"m":1,"n":1,"arcs":[{"u":0,"v":1,"dir":"uv"}]}',
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"sideways"}]}',
        '{"m":1,"n":1,"arcs":[[0,0,"uv"]]}',
        '{"m":0,"n":1,"arcs":[]}',
        '{"m":true,"n":1,"arcs":[]}',
        '{"m":1,"n":1,"arcs":{}}',
    ],
)
def test_json_malformed_documents_rejected(doc):
    with pytest.raises(ValueError):
        BipartiteOrientedGraph.from_json(doc)


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


@given(graphs())
def test_reversal_flips_scores(g):
    rev = g.reverse()
    for u in range(g.m):
        assert g.score_u(u) + rev.score_u(u) == 2 * g.n
    for v in range(g.n):
        assert g.score_v(v) + rev.score_v(v) == 2 * g.m
