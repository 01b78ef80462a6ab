import copy
import json
import pickle
import re
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import graphs, per_vertex_scores
from scoresets import graph_core
from scoresets.constructions import realize
from scoresets.graph_core import (
    ArcState,
    BipartiteOrientedGraph,
    ScoreSequencePair,
    ScoreSet,
)


def test_new_graph_is_all_absent():
    g = BipartiteOrientedGraph(1, 1)
    assert g.arc(0, 0) is ArcState.ABSENT
    g = BipartiteOrientedGraph(2, 3)
    assert all(g.arc(u, v) is ArcState.ABSENT for u in range(2) for v in range(3))
    assert (g.m, g.n) == (2, 3)
    with pytest.raises(TypeError):  # compared by value, left unhashable: __eq__ without __hash__
        hash(BipartiteOrientedGraph(1, 1))
    assert g.__eq__(1) is NotImplemented  # only graphs compare by value
    assert g != "x"


@pytest.mark.parametrize("m,n", [(0, 4), (4, 0), (0, 0), (-1, 2)])
def test_new_graph_rejects_empty_parts(m, n):
    with pytest.raises(ValueError):
        BipartiteOrientedGraph(m, n)


def test_from_states_write_read():
    g = BipartiteOrientedGraph.from_states(np.array([[ArcState.U_TO_V]]))
    assert g.arc(0, 0) is ArcState.U_TO_V
    g = BipartiteOrientedGraph.from_states(np.array([[0, 1, 0], [0, 0, 2]], dtype=np.int8))
    assert [g.arc(0, 1), g.arc(1, 2), g.arc(1, 0)] == [ArcState.U_TO_V, ArcState.V_TO_U, ArcState.ABSENT]
    assert g.states.dtype == np.uint8 and g.states.tolist() == [[0, 1, 0], [0, 0, 2]]
    assert repr(g) == "BipartiteOrientedGraph(m=2, n=3, arcs=2)"


def test_from_states_copies_its_input():
    states = np.zeros((2, 2), dtype=np.uint8)
    g = BipartiteOrientedGraph.from_states(states)
    states[0, 0] = ArcState.U_TO_V
    assert g == BipartiteOrientedGraph(2, 2)


def test_arc_bounds():
    g = BipartiteOrientedGraph(1, 1)
    for u, v in [(0, 1), (1, 0), (-1, 0), (0, -2)]:
        with pytest.raises(IndexError):
            g.arc(u, v)


@pytest.mark.parametrize(
    "states",
    [
        np.zeros(3, dtype=np.int64),  # 1-D
        np.zeros((2, 2, 2), dtype=np.int64),  # 3-D
        np.zeros((2, 2)),  # float
        np.zeros((2, 2), dtype=bool),
        np.array([[0, 3]], dtype=np.uint8),
        np.array([[0, -1]], dtype=np.int8),
        np.array([[2, -1]], dtype=np.int64),
        np.zeros((0, 3), dtype=np.uint8),  # an empty part
        np.zeros((3, 0), dtype=np.uint8),
        # 2**29 pairs without allocating them: the limit is checked before any copy
        np.broadcast_to(np.uint8(0), (2**15, 2**14)),
    ],
)
def test_from_states_rejects(states):
    with pytest.raises(ValueError):
        BipartiteOrientedGraph.from_states(states)


def test_states_are_read_only():
    g = BipartiteOrientedGraph.from_states(np.array([[2, 0]]))
    with pytest.raises(ValueError):
        g.states[0, 0] = 1
    with pytest.raises(ValueError):
        g.states.setflags(write=True)
    assert g.states.tolist() == [[2, 0]]
    assert g == BipartiteOrientedGraph.from_states(np.array([[2, 0]]))


@given(graphs())
def test_from_states_of_states_is_the_graph(g):
    assert BipartiteOrientedGraph.from_states(g.states) == g


def test_scores_on_single_pair():
    g = BipartiteOrientedGraph.from_states(np.array([[ArcState.U_TO_V]]))
    assert g.scores() == ([2], [0])
    g = BipartiteOrientedGraph.from_states(np.array([[ArcState.V_TO_U]]))
    assert g.scores() == ([0], [2])


def test_scores_on_empty_graph():
    assert BipartiteOrientedGraph(2, 2).scores() == ([2, 2], [2, 2])


@pytest.mark.parametrize(
    "m,n,state,u_score,v_score",
    [
        (300, 300, ArcState.U_TO_V, 600, 0),
        (300, 300, ArcState.V_TO_U, 0, 600),
        (1, 40000, ArcState.U_TO_V, 80000, 0),
        (40000, 1, ArcState.V_TO_U, 0, 80000),
    ],
)
def test_scores_of_complete_graphs(m, n, state, u_score, v_score):
    # 300 arcs per vertex overflow an 8-bit accumulator, 40000 a 16-bit one
    g = BipartiteOrientedGraph.from_states(np.full((m, n), state, dtype=np.uint8))
    assert g.scores() == ([u_score] * m, [v_score] * n)


@pytest.mark.parametrize("m,n", [(1, 257), (257, 1), (37, 53), (53, 37), (300, 200)])
def test_scores_of_random_states_past_the_strategy_cap(m, n):
    states = np.random.default_rng(m * n).integers(0, 3, (m, n), dtype=np.uint8)
    g = BipartiteOrientedGraph.from_states(states)
    assert g.scores() == per_vertex_scores(g)


def test_scores_allocate_one_byte_per_pair():
    # one m x n temporary of uint8: numpy's buffers are traced, the state
    # matrix is built before tracing starts
    m, n = 2000, 1500
    states = np.random.default_rng(2).integers(0, 3, (m, n), dtype=np.uint8)
    g = BipartiteOrientedGraph.from_states(states)
    tracemalloc.start()
    try:
        g.scores()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m * n, f"peak {peak / (m * n):.2f} bytes per pair"


def test_score_sequences_trivial():
    assert BipartiteOrientedGraph(1, 1).score_sequences() == ScoreSequencePair((1,), (1,))
    g = BipartiteOrientedGraph.from_states(np.array([[ArcState.U_TO_V]]))
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
    # documents that look like to_json's layout but are not in it
    (
        '{"m":2,"n":1,"arcs":[{"u":01,"v":0,"dir":"uv"}]}',
        "not valid JSON: Expecting ',' delimiter: line 1 column 28 (char 27)",
    ),
    ('{"m":01,"n":1,"arcs":[]}', "not valid JSON: Expecting ',' delimiter: line 1 column 7 (char 6)"),
    (
        '{"m":1,"n":1,"arcs":[],"blocks":{"U":[],"V":[]}}x',
        "not valid JSON: Extra data: line 1 column 49 (char 48)",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"uv"}],"blocks":1,"m":0}',
        "both parts must be nonempty, got m=0, n=1",
    ),
    (
        '{"m":100000,"n":100000,"arcs":[x]}',
        "not valid JSON: Expecting value: line 1 column 32 (char 31)",
    ),
    (
        '{"m":1,"n":2,"arcs":[{"u":0,"v":1,"dir":"uv"},{"u":0,"v":1,"dir":"vu"}]}',
        "pair (0, 1) listed more than once",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"uv"},{"u":0,"v":1,"dir":"vu"}]}',
        "arc indices out of range: {'u': 0, 'v': 1, 'dir': 'vu'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":,"v":0,"dir":"uv"0}]}',
        "not valid JSON: Expecting value: line 1 column 27 (char 26)",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":,"v":0,"dir":"uv"}]}',
        "not valid JSON: Expecting value: line 1 column 27 (char 26)",
    ),
    (
        '{"m":1,"n":1,"arcs":[5{"u":0,"v":0,"dir":"uv"}]}',
        "not valid JSON: Expecting ',' delimiter: line 1 column 23 (char 22)",
    ),
    (
        '{"m":1,"n":1,"arcs":[5{"u":,"v":0,"dir":"uv"}]}',
        "not valid JSON: Expecting ',' delimiter: line 1 column 23 (char 22)",
    ),
    (
        # 2**64, which wraps to 0 in int64
        '{"m":1,"n":1,"arcs":[{"u":18446744073709551616,"v":0,"dir":"uv"}]}',
        "arc indices out of range: {'u': 18446744073709551616, 'v': 0, 'dir': 'uv'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"wt"}]}',
        "arc dir must be 'uv' or 'vu': {'u': 0, 'v': 0, 'dir': 'wt'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"uu"}]}',
        "arc dir must be 'uv' or 'vu': {'u': 0, 'v': 0, 'dir': 'uu'}",
    ),
    (
        '{"m":1,"n":1,"arcs":[{"u":0,"v":0,"dir":"é"}]}',
        "arc dir must be 'uv' or 'vu': {'u': 0, 'v': 0, 'dir': 'é'}",
    ),
]


@pytest.mark.parametrize(
    "doc,message", MALFORMED_DOCUMENTS, ids=[doc for doc, _ in MALFORMED_DOCUMENTS]
)
def test_json_malformed_documents_rejected(doc, message):
    assert BipartiteOrientedGraph._from_bands(doc) is None
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BipartiteOrientedGraph.from_json(doc)


def test_json_nested_past_recursion_limit_rejected():
    # to_json's exact head, and a "blocks" value too deep for json.loads
    head = BipartiteOrientedGraph(1, 1).to_json()[:-1]
    deep = head + ',"blocks":' + "[" * 100000 + "]" * 100000 + "}"
    assert BipartiteOrientedGraph._from_bands(deep) is None
    for doc in (deep, "[" * 100000):
        with pytest.raises(ValueError, match="^not valid JSON: "):
            BipartiteOrientedGraph.from_json(doc)


def test_json_later_duplicate_key_wins():
    # json.loads keeps the last "m", so this is a 5x1 graph, not to_json's 1x1
    g = BipartiteOrientedGraph.from_json('{"m":1,"n":1,"arcs":[],"blocks":1,"m":5}')
    assert g == BipartiteOrientedGraph(5, 1)


def read_outcome(reader, text):
    try:
        return reader(text)
    except ValueError as exc:
        return str(exc)


@st.composite
def edited_documents(draw):
    """to_json output of a random graph, with or without blocks, then
    possibly one character replaced, inserted or deleted."""
    g = draw(st.one_of(graphs(max_m=12, max_n=12), repeated_row_graphs()))
    u_blocks = draw(block_lists(g.m, "X"))
    v_blocks = draw(block_lists(g.n, "Y"))
    blocks = None if u_blocks is None and v_blocks is None else (u_blocks or [], v_blocks or [])
    text = g.to_json(blocks=blocks)
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from('0123456789{}[]:,"uvdirmnbloks \t\n-.eé'))
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit == "replace":
        text = text[:at] + char + text[at + 1 :]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1 :]
    return text


@given(edited_documents())
def test_band_lane_agrees_with_general_reader(text):
    expected = read_outcome(BipartiteOrientedGraph._from_doc, text)
    assert read_outcome(BipartiteOrientedGraph.from_json, text) == expected
    graph = BipartiteOrientedGraph._from_bands(text)  # never raises
    assert graph is None or graph == expected


def test_to_json_output_is_read_in_bands(monkeypatch):
    def general_reader(cls, text):
        raise AssertionError("to_json output reached the per-arc reader")

    monkeypatch.setattr(BipartiteOrientedGraph, "_from_doc", classmethod(general_reader))
    # 120x120 with every pair set: 14,400 arcs, more than one band
    full = graph_of([[1 + (u * v) % 2 for v in range(120)] for u in range(120)])
    samples = [(graph_of(SHAPED_GRAPHS[name]), None) for name in sorted(SHAPED_GRAPHS)]
    samples += [(full, None), (full, ([("X0", 0, 120)], []))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, blocks in samples:
            text = g.to_json(blocks=blocks)
            assert BipartiteOrientedGraph.from_json(text) == g
            assert BipartiteOrientedGraph.from_json(f" \n{text}\r\n\t") == g
    text = full.to_json()
    assert len(text) > 2 * graph_core._BAND
    # its rows alternate, so none is copied: the bands cover the arcs once,
    # plus at most one row that a band read and then left to the next
    graph, spans = fast_lane_read(text)
    arcs = text[text.index("[") + 1 : text.index("]")]
    row = len(arcs) // full.m + 1
    assert graph == full
    assert sum(end - start for start, end in spans) <= len(arcs) + len(spans) * row


def test_band_without_an_arc_cut_goes_to_the_general_reader(monkeypatch):
    # "}, {" between arcs: no band of this text has a "},{" cut to end on
    full = graph_of([[1 + (u * v) % 2 for v in range(120)] for u in range(120)])
    text = full.to_json().replace("},{", "}, {")
    assert len(text) > 2 * graph_core._BAND and "},{" not in text

    def no_band(band, m, n):
        raise AssertionError("a band was read without a cut")

    monkeypatch.setattr(graph_core, "_read_arc_band", no_band)
    assert BipartiteOrientedGraph._from_bands(text) is None
    read = []
    from_doc = BipartiteOrientedGraph._from_doc.__func__
    monkeypatch.setattr(
        BipartiteOrientedGraph, "_from_doc", classmethod(lambda cls, t: read.append(t) or from_doc(cls, t))
    )
    assert BipartiteOrientedGraph.from_json(text) == full
    assert read == [text]


def fast_lane_read(text):
    """``_from_bands(text)``, and the span of ``text`` that each band it
    passed to ``_read_arc_band`` came from, in order."""
    spans = []
    read_band = graph_core._read_arc_band

    def recording(band, m, n):
        # a band starts after the start of the band before it and, but for
        # the comma added to the last band, is a slice of the text
        start = text.find(band[:-1], spans[-1][0] + 1 if spans else 0)
        spans.append((start, start + len(band) - 1))
        return read_band(band, m, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_core, "_read_arc_band", recording)
        return BipartiteOrientedGraph._from_bands(text), spans


def lane_cases(text, spans):
    """The cases that reading ``text``, a document the fast lane accepted,
    in bands from ``spans`` met: "copy" (a row that no band read),
    "miss" (a band after such a row), "straddle" (a band that starts inside
    a row) and "long row" (a row longer than ``_BAND``)."""
    close = text.index("]")
    arcs = [(found.start(), int(found[1])) for found in re.finditer(r'\{"u":(\d+),', text[:close])]
    row_starts = [pos for k, (pos, u) in enumerate(arcs) if k == 0 or arcs[k - 1][1] != u]
    read_rows = {u for pos, u in arcs if any(start <= pos < end for start, end in spans)}
    copies = [pos for pos, u in arcs if u not in read_rows]
    cases = set()
    if copies:
        cases.add("copy")
        if any(start > copies[0] for start, _ in spans):
            cases.add("miss")
    if any(start not in row_starts for start, _ in spans):
        cases.add("straddle")
    if any(end - start > graph_core._BAND for start, end in zip(row_starts, row_starts[1:] + [close])):
        cases.add("long row")
    return cases


def test_band_lane_agrees_with_general_reader_at_small_windows():
    # a 64-character first window and 96-character bands: the fast lane
    # copies rows, misses its template, starts bands inside rows and meets
    # rows longer than a band, and still returns None or _from_doc's graph
    seen = set()

    @settings(max_examples=300, derandomize=True)
    @given(edited_documents())
    def agrees(text):
        expected = read_outcome(BipartiteOrientedGraph._from_doc, text)
        assert read_outcome(BipartiteOrientedGraph.from_json, text) == expected
        graph, spans = fast_lane_read(text)
        assert graph is None or graph == expected
        if graph is not None:
            seen.update(lane_cases(text, spans))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_core, "_FIRST_WINDOW", 64)
        patch.setattr(graph_core, "_BAND", 96)
        agrees()
    assert seen == {"copy", "miss", "straddle", "long row"}


def arcs_doc(m, n, arcs):
    """A document in ``to_json``'s layout but for its arcs: ``(u, v, dir)``
    triples in order, ``u`` as its literal text."""
    listed = ",".join(f'{{"u":{u},"v":{v},"dir":"{d}"}}' for u, v, d in arcs)
    return f'{{"m":{m},"n":{n},"arcs":[{listed}]}}'


def row_arcs(u, columns, d="uv"):
    return [(u, v, d) for v in columns]


# documents whose rows after a template, the last whole row read, are not
# plain copies of it: the fast lane must not take them for copies
_EQUAL_1 = [arc for u in range(4) for arc in row_arcs(u, [1])]
_EQUAL_12 = [arc for u in range(4) for arc in row_arcs(u, [1, 2])]
TEMPLATE_DOCUMENTS = {
    # the template matches only a prefix of the row after it
    "row extends the one before": arcs_doc(6, 4, _EQUAL_12 + row_arcs(4, [1, 2, 3])),
    "row index repeated": arcs_doc(6, 4, _EQUAL_1 + row_arcs(3, [2])),
    "row index decreasing": arcs_doc(6, 4, _EQUAL_12 + row_arcs(5, [1, 2]) + row_arcs(4, [1, 2])),
    "row index at m": arcs_doc(5, 4, _EQUAL_1 + row_arcs(5, [1])),
    "row index with a leading zero": arcs_doc(6, 4, _EQUAL_1 + row_arcs("04", [1])),
    "row index in Arabic-Indic digits": arcs_doc(6, 4, _EQUAL_1 + row_arcs("\u0664", [1])),
    "duplicate arc after a copied row": arcs_doc(6, 4, _EQUAL_12 + row_arcs(3, [2])),
    "copied row listed again": arcs_doc(
        8, 4, _EQUAL_1 + row_arcs(4, [1]) + row_arcs(5, [1]) + row_arcs(6, [0]) + row_arcs(4, [1])
    ),
    # valid JSON: the copy of row 4 must not hide its arc at column 3
    "copied row with an arc listed later": arcs_doc(
        8, 4, _EQUAL_1 + row_arcs(4, [1]) + row_arcs(5, [1]) + row_arcs(6, [0]) + row_arcs(4, [3])
    ),
}

# the ones that the fast lane reads at every window: their rows come once each
FAST_LANE_DOCUMENTS = {"row extends the one before", "row index decreasing"}


@pytest.mark.parametrize("name", sorted(TEMPLATE_DOCUMENTS))
def test_rows_after_a_template_agree_with_general_reader(name):
    text = TEMPLATE_DOCUMENTS[name]
    expected = read_outcome(BipartiteOrientedGraph._from_doc, text)
    tried = []
    row_at = graph_core._row_at
    for first, band in [(16, 96), (32, 128), (64, 64), (256, 96), (graph_core._FIRST_WINDOW, graph_core._BAND)]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_core, "_FIRST_WINDOW", first)
            patch.setattr(graph_core, "_BAND", band)
            patch.setattr(graph_core, "_row_at", lambda *args: tried.append(args) or row_at(*args))
            graph = BipartiteOrientedGraph._from_bands(text)
            assert graph == expected or graph is None and name not in FAST_LANE_DOCUMENTS
            assert read_outcome(BipartiteOrientedGraph.from_json, text) == expected
    assert tried  # some window had a template to try


def test_uncut_text_after_copied_rows_goes_to_the_general_reader(monkeypatch):
    # 40 equal rows, then arcs joined by "}, {": the template misses there,
    # and a window that holds no "},{" cut widens until it is a band
    g = graph_of([[1] * 120] * 130)
    text = g.to_json()
    stretch = text.index('{"u":40,')
    text = text[:stretch] + text[stretch:].replace("},{", "}, {")
    assert len(text) - stretch > graph_core._BAND
    bands, tries = [], []
    read_band, row_at = graph_core._read_arc_band, graph_core._row_at

    def recording(band, m, n):
        assert "}, {" not in band, "a band was read without a cut"
        bands.append(band)
        return read_band(band, m, n)

    def counting(*args):
        tries.append(args)
        assert len(tries) < 200, "the template was tried again and again"
        return row_at(*args)

    monkeypatch.setattr(graph_core, "_read_arc_band", recording)
    monkeypatch.setattr(graph_core, "_row_at", counting)
    assert BipartiteOrientedGraph._from_bands(text) is None
    assert bands and len(tries) > 30  # rows were read as copies before the stretch
    assert BipartiteOrientedGraph.from_json(text) == BipartiteOrientedGraph._from_doc(text) == g


def test_repeated_rows_skip_the_band_reader():
    # {5,15,45,135,405}: 305x305 in five blocks of equal rows
    text = realize(ScoreSet((5, 15, 45, 135, 405))).to_json()
    graph, spans = fast_lane_read(text)
    assert graph == BipartiteOrientedGraph._from_doc(text)
    assert sum(end - start for start, end in spans) < 0.1 * len(text)


def test_short_blocks_are_read_in_whole_bands():
    # 3000 rows of 10 columns, each row repeated 8 times: copying a block saves
    # less than a band call costs, so the text still goes in whole bands
    rng = np.random.default_rng(1)
    g = graph_of(np.repeat(rng.integers(0, 3, size=(375, 10)), 8, axis=0))
    text = g.to_json()
    graph, spans = fast_lane_read(text)
    assert graph == g
    assert len(spans) <= len(text) // graph_core._BAND + 2


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
            part: [{"label": label, "from": start, "to": stop} for label, start, stop in blocks or ()]
            for part, blocks in (("U", u_blocks), ("V", v_blocks))
        }
    return json.dumps(doc, separators=(",", ":"))


def reference_dot(g, u_blocks, v_blocks):
    lines = ["digraph {"]
    for part, prefix, size, blocks in (("U", "u", g.m, u_blocks), ("V", "v", g.n, v_blocks)):
        labels = {i: label for label, start, stop in blocks or () for i in range(start, stop)}
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
    """None, or consecutive (label, start, stop) blocks over a subrange of [0, size)."""
    if draw(st.booleans()):
        return None
    cuts = sorted(draw(st.sets(st.integers(0, size), max_size=size + 1)))
    labels = st.text(alphabet="XYé\"1", min_size=1, max_size=3)
    return [(f"{prefix}{draw(labels)}", lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def graph_of(rows):
    return BipartiteOrientedGraph.from_states(np.array(rows, dtype=np.uint8))


@st.composite
def repeated_row_graphs(draw, max_m=14, max_n=14):
    """Graphs of up to 14x14 whose rows come from a pool of at most three,
    the all-absent row among the candidates."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    pool = draw(st.lists(st.one_of(st.just([0] * n), row), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    return graph_of([pool[i] for i in picks])


@given(st.data())
def test_serialization_matches_reference(data):
    g = data.draw(st.one_of(graphs(max_m=6, max_n=6), repeated_row_graphs()))
    u_blocks = data.draw(block_lists(g.m, "X"))
    v_blocks = data.draw(block_lists(g.n, "Y"))
    blocks = None if u_blocks is None and v_blocks is None else (u_blocks or [], v_blocks or [])
    text = g.to_json(blocks=blocks)
    assert text == reference_json(g, u_blocks, v_blocks)
    assert g.to_dot(blocks=blocks) == reference_dot(g, u_blocks, v_blocks)
    assert BipartiteOrientedGraph.from_json(text) == g


_STRIPE = [(0, 1, 2, 2, 1, 0, 1)[v % 7] for v in range(14)]
SHAPED_GRAPHS = {
    # two-digit u and v on both sides
    "12x13": [[(u * 5 + v * 7 + u * v) % 3 for v in range(13)] for u in range(12)],
    "all rows equal": [_STRIPE] * 12,
    # a row that comes back after another is formatted again, not from a stale template
    "rows A, B, A, A": [_STRIPE, _STRIPE[::-1], _STRIPE, _STRIPE],
    "empty rows between": [_STRIPE if u % 3 else [0] * 14 for u in range(11)],
    "all absent": [[0] * 12 for _ in range(11)],
    "1x25": [[(v * v) % 3 for v in range(25)]],
    "25x1": [[(u * u + 1) % 3] for u in range(25)],
}


@pytest.mark.parametrize("name", sorted(SHAPED_GRAPHS))
def test_serialization_matches_reference_at_shaped_graphs(name):
    g = graph_of(SHAPED_GRAPHS[name])
    u_blocks = [("X0", 0, 1), ("X1", 1, g.m)]
    v_blocks = [("Y0", 0, g.n)]
    for blocks in (None, (u_blocks, v_blocks)):
        expected = (None, None) if blocks is None else blocks
        text = g.to_json(blocks=blocks)
        assert text == reference_json(g, *expected)
        assert g.to_dot(blocks=blocks) == reference_dot(g, *expected)
        assert BipartiteOrientedGraph.from_json(text) == g


def test_json_blocks_follow_schema():
    g = BipartiteOrientedGraph(2, 1)
    doc = json.loads(
        g.to_json(blocks=([("X1", 0, 2)], [("Y1", 0, 1)]))
    )
    assert doc["blocks"] == {
        "U": [{"label": "X1", "from": 0, "to": 2}],
        "V": [{"label": "Y1", "from": 0, "to": 1}],
    }


def test_dot_single_edge():
    g = BipartiteOrientedGraph.from_states(np.array([[ArcState.U_TO_V]]))
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
    g = BipartiteOrientedGraph.from_states(np.array([[1, 0], [0, 0], [0, 2]]))
    assert g.to_dot() == g.to_dot()


def test_dot_block_labels():
    g = BipartiteOrientedGraph(2, 1)
    text = g.to_dot(blocks=([("X1", 0, 2)], []))
    assert 'u0 [label="u0\\nX1"];' in text


def test_score_set_validation():
    with pytest.raises(ValueError, match="score set is empty"):
        ScoreSet(())
    with pytest.raises(ValueError):
        ScoreSet((2, 1))
    with pytest.raises(ValueError):
        ScoreSet((1, 1))
    with pytest.raises(ValueError):
        ScoreSet((-1, 3))
    assert ScoreSet.from_values([3, 1, 3]) == ScoreSet((1, 3))
    assert list(ScoreSet((1, 2))) == [1, 2]
    assert 2 in ScoreSet((1, 2)) and 5 not in ScoreSet((1, 2))


def test_score_set_reads_its_values():
    # in, len, iter and str read the values, not the one field; copies and
    # pickles rebuild the same set
    values = ScoreSet((1, 2, 5))
    assert (len(values), list(values), str(values)) == (3, [1, 2, 5], "{1,2,5}")
    assert 5 in values and (1, 2, 5) not in values
    assert copy.copy(values) == pickle.loads(pickle.dumps(values)) == values


def test_score_set_shares_the_sequence_checks():
    # a score set is a sequence without repeats: signs and order are
    # checked as for a sequence pair's sides
    with pytest.raises(ValueError, match="^sequence 'values' has a negative entry: \\(-1, 3\\)$"):
        ScoreSet((-1, 3))
    with pytest.raises(ValueError, match="^sequence 'values' is not nondecreasing: \\(2, 1\\)$"):
        ScoreSet((2, 1))
    with pytest.raises(ValueError, match="^score set has a repeated value: \\(1, 1\\)$"):
        ScoreSet((1, 1))


def test_score_sequence_pair_validation():
    with pytest.raises(ValueError):
        ScoreSequencePair((2, 1), (0,))
    with pytest.raises(ValueError):
        ScoreSequencePair((0,), (-1,))
    with pytest.raises(ValueError):
        ScoreSequencePair((), (1,))
    pair = ScoreSequencePair([0, 1], [2])
    assert pair.a == (0, 1) and pair.b == (2,)


@pytest.mark.parametrize("seq", [(3, -1), (-1, -2), (0, 5, -3, 4)])
def test_negative_entry_is_reported_before_order(seq):
    # each of these sequences is also out of order; the sign check comes first
    message = f"^sequence 'b' has a negative entry: {re.escape(str(seq))}$"
    with pytest.raises(ValueError, match=message):
        ScoreSequencePair((0,), seq)
    with pytest.raises(ValueError, match="^sequence 'a' is not nondecreasing: \\(3, 1\\)$"):
        ScoreSequencePair((3, 1), seq)


@given(graphs())
def test_score_bounds(g):
    u_scores, v_scores = g.scores()
    assert all(0 <= score <= 2 * g.n for score in u_scores)
    assert all(0 <= score <= 2 * g.m for score in v_scores)


@given(graphs())
def test_scores_match_per_vertex_scores(g):
    assert g.scores() == per_vertex_scores(g)


@given(graphs())
def test_handshake_identity(g):
    u_scores, v_scores = per_vertex_scores(g)
    assert sum(u_scores) + sum(v_scores) == 2 * g.m * g.n


@given(graphs())
def test_sequences_respect_caps(g):
    pair = g.score_sequences()
    assert all(0 <= x <= 2 * g.n for x in pair.a)
    assert all(0 <= x <= 2 * g.m for x in pair.b)


@given(graphs())
def test_json_round_trip_identity(g):
    assert BipartiteOrientedGraph.from_json(g.to_json()) == g
