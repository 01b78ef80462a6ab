import hashlib
import json

import pytest
from hypothesis import given

import scoresets.oracle as oracle

from conftest import graphs
from scoresets.graph_core import ArcState, BipartiteOrientedGraph, ScoreSet
from scoresets.oracle import (
    BudgetExceededError,
    EnumerationSpace,
    RealizabilityCatalog,
    Witness,
    bounded_search,
    catalog_for_shape,
    criterion_equivalence,
    realizable_sets_up_to,
    space_size,
)


def every_graph(m, n):
    """Reference lane: every assignment of shape (m, n) in ascending
    index order, decoded one index at a time."""
    space = EnumerationSpace(m, n)
    return (space.decode(index) for index in range(space.total))


def test_decode_encode_round_trip_exhaustive():
    space = EnumerationSpace(2, 2)
    for index in range(space.total):
        assert space.encode(space.decode(index)) == index


@given(graphs(max_m=3, max_n=3))
def test_encode_decode_identity(g):
    space = EnumerationSpace(g.m, g.n)
    assert space.decode(space.encode(g)) == g


def test_decode_digit_semantics():
    # index 1 is digit 1 at pair (0, 0): arc u0 -> v0
    g = EnumerationSpace(2, 2).decode(1)
    assert g.arc(0, 0) is ArcState.U_TO_V
    # index 2 * 3**3 sets pair (1, 1), the highest row-major position
    g = EnumerationSpace(2, 2).decode(2 * 27)
    assert g.arc(1, 1) is ArcState.V_TO_U
    assert g.arc(0, 0) is ArcState.ABSENT


def test_decode_rejects_out_of_range():
    space = EnumerationSpace(1, 1)
    with pytest.raises(ValueError):
        space.decode(3)
    with pytest.raises(ValueError):
        space.decode(-1)


def test_catalog_1x1_exact():
    catalog = realizable_sets_up_to(1, 1)
    assert sorted(catalog.sets) == [(0, 2), (1,)]
    pairs = sorted(catalog.pairs)
    assert pairs == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]


def test_catalog_2x2_contains_singleton_with_empty_witness():
    catalog = realizable_sets_up_to(2, 2)
    witness = catalog.sets[(2,)]
    assert (witness.m, witness.n, witness.index) == (2, 2, 0)
    assert witness.graph() == BipartiteOrientedGraph(2, 2)


def test_catalog_3x3_has_no_zero_set():
    catalog = realizable_sets_up_to(3, 3)
    assert (0,) not in catalog.sets
    assert (0, 1) not in catalog.sets
    assert (0, 1, 2) not in catalog.sets
    assert (3,) in catalog.sets


def test_catalog_witnesses_reproduce_keys():
    catalog = realizable_sets_up_to(2, 2)
    for key, witness in catalog.sets.items():
        assert witness.graph().score_set().values == key
    for (a, b), witness in catalog.pairs.items():
        pair = witness.graph().score_sequences()
        assert (pair.a, pair.b) == (a, b)


def test_shard_merge_determinism(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 81)
    reference = catalog_for_shape(2, 2)
    # {0,2,6} is first attained at 2x3, index 368; {0} nowhere within 2x3
    found = bounded_search(ScoreSet((0, 2, 6)), 2, 3)
    assert (found.m, found.n, EnumerationSpace(2, 3).encode(found)) == (2, 3, 368)
    sizes = []
    chunk_scores = oracle._chunk_scores

    def recording(m, n, lo, hi):
        sizes.append(hi - lo)
        return chunk_scores(m, n, lo, hi)

    monkeypatch.setattr(oracle, "_chunk_scores", recording)
    for chunk in (1, 5, 7, 80, 1000):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        sizes.clear()
        other = catalog_for_shape(2, 2)
        assert other.sets == reference.sets
        assert other.pairs == reference.pairs
        assert bounded_search(ScoreSet((0, 2, 6)), 2, 3) == found
        assert bounded_search(ScoreSet((0,)), 2, 3) is None
        assert max(sizes) == min(chunk, space_size(2, 3))


def test_visitor_and_vectorized_lanes_agree():
    m, n = 2, 3
    sets = {}
    pairs = {}
    for index, g in enumerate(every_graph(m, n)):
        sets.setdefault(g.score_set().values, Witness(m, n, index))
        pair = g.score_sequences()
        pairs.setdefault((pair.a, pair.b), Witness(m, n, index))
    catalog = catalog_for_shape(m, n)
    assert catalog.sets == sets
    assert catalog.pairs == pairs


def test_bounded_search_examples():
    witness = bounded_search(ScoreSet((1,)), 1, 1)
    assert witness == BipartiteOrientedGraph(1, 1)
    assert bounded_search(ScoreSet((0,)), 3, 3) is None
    witness = bounded_search(ScoreSet((1, 2, 5)), 3, 4)
    assert witness is not None
    assert witness.score_set().values == (1, 2, 5)


def test_bounded_search_respects_pruning_soundness():
    # {5} needs a vertex scoring 5, impossible at 2x2, and the handshake
    # forbids it anywhere below 3x3
    assert bounded_search(ScoreSet((5,)), 2, 2) is None
    # values above every attainable score are pruned without scanning
    assert bounded_search(ScoreSet((9,)), 1, 1) is None


def test_bounded_search_returns_first_shape_in_order():
    witness = bounded_search(ScoreSet((1, 2)), 2, 2)
    assert witness is not None
    assert (witness.m, witness.n) == (1, 2)  # shape (1, 2) precedes (2, 1)


def test_criterion_equivalence_small_shapes():
    report = criterion_equivalence(1, 1)
    assert report.necessity_ok and report.sufficiency_ok
    assert report.counterexamples == []
    for m, n in [(2, 2), (3, 2)]:
        report = criterion_equivalence(m, n)
        assert report.necessity_ok and report.sufficiency_ok


def test_report_flags_follow_the_counterexamples():
    report = criterion_equivalence(2, 2)
    report.counterexamples.append(("sufficiency", (), ()))
    assert not report.sufficiency_ok
    assert report.necessity_ok


def test_criterion_equivalence_1x1_passing_pairs():
    from itertools import combinations_with_replacement

    from scoresets.criteria import check_bipartite_pair
    from scoresets.graph_core import ScoreSequencePair

    passing = [
        (a, b)
        for a in combinations_with_replacement(range(3), 1)
        for b in combinations_with_replacement(range(3), 1)
        if check_bipartite_pair(ScoreSequencePair(a, b)).valid
    ]
    assert passing == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]


def test_budget_enforcement():
    with pytest.raises(BudgetExceededError):
        catalog_for_shape(5, 4)
    with pytest.raises(BudgetExceededError):
        catalog_for_shape(1, 1, budget=2)
    with pytest.raises(BudgetExceededError):
        bounded_search(ScoreSet((1,)), 5, 4)
    with pytest.raises(BudgetExceededError):
        realizable_sets_up_to(4, 5)
    # raising the budget admits the shape
    assert sorted(catalog_for_shape(1, 1, budget=3).sets) == [(0, 2), (1,)]


@pytest.mark.parametrize("m,n", [(1, 40), (5, 8), (32, 1), (1, 32)])
def test_shapes_beyond_int64_rejected_before_any_allocation(m, n, monkeypatch):
    import scoresets.oracle as oracle

    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(oracle, "_chunk_scores", no_scan)
    monkeypatch.setattr(oracle.EnumerationSpace, "decode", no_scan)
    budget = space_size(m, n)  # the budget admits the shape; the int64 range does not
    calls = [
        lambda: EnumerationSpace(m, n),
        lambda: catalog_for_shape(m, n, budget=budget),
        lambda: criterion_equivalence(m, n, budget=budget),
        lambda: bounded_search(ScoreSet((1,)), m, n, budget=budget),
        lambda: realizable_sets_up_to(m, n, budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="int64"):
            call()


def test_score_bound_saturation_1x1():
    assert {g.score_u(0) for g in every_graph(1, 1)} == {0, 1, 2}


def test_handshake_on_enumerated_graphs():
    for g in every_graph(2, 2):
        total = sum(g.score_u(u) for u in range(g.m))
        total += sum(g.score_v(v) for v in range(g.n))
        assert total == 2 * g.m * g.n


def test_jsonl_round_trip_and_ordering():
    catalog = catalog_for_shape(1, 2)
    text = catalog.to_jsonl()
    loaded = RealizabilityCatalog.from_jsonl(text)
    assert loaded.sets == catalog.sets
    assert loaded.pairs == catalog.pairs
    lines = text.splitlines()
    set_keys = [line for line in lines if '"kind":"set"' in line]
    assert set_keys == sorted(set_keys)
    record = json.loads(lines[0])
    assert isinstance(record["index"], str)


def test_catalog_for_shape_emit_flags():
    only_sets = catalog_for_shape(1, 1, pairs=False)
    assert only_sets.sets and not only_sets.pairs
    only_pairs = catalog_for_shape(1, 1, sets=False)
    assert only_pairs.pairs and not only_pairs.sets


def test_from_jsonl_rejects_tampered_records():
    text = catalog_for_shape(1, 2).to_jsonl()
    good = json.loads(text.splitlines()[0])
    tampered = [
        {**good, "index": str(int(good["index"]) + 1)},  # decodes to another set
        {**good, "index": "9"},  # outside the 1x2 space of 9 assignments
        {**good, "index": "x"},
        {**good, "kind": "triple"},
        {**good, "key": [good["key"]]},
        {**good, "key": [True if v == 1 else v for v in good["key"]]},
        {**good, "m": 0},
        {**good, "m": 40},
        {**good, "m": True},
        {**good, "n": 2.0},
    ]
    for record in tampered:
        line = json.dumps(record, separators=(",", ":"))
        with pytest.raises(ValueError):
            RealizabilityCatalog.from_jsonl(text + line + "\n")
    with pytest.raises(ValueError):
        RealizabilityCatalog.from_jsonl('{"kind":"set"}\n')
    with pytest.raises(ValueError):
        RealizabilityCatalog.from_jsonl("[1]\n")


def test_from_jsonl_rejects_duplicate_keys():
    # {0,1,3} at 1x2: index 1 (u->v0) and index 3 (u->v1) both reproduce the key
    first, second = (
        json.dumps({"kind": "set", "key": [0, 1, 3], "m": 1, "n": 2, "index": index})
        for index in ("1", "3")
    )
    for line, index in ((first, 1), (second, 3)):
        assert RealizabilityCatalog.from_jsonl(line).sets == {(0, 1, 3): Witness(1, 2, index)}
    with pytest.raises(ValueError, match="line 2"):
        RealizabilityCatalog.from_jsonl(first + "\n" + second + "\n")


def test_empty_parts_are_rejected():
    for m, n in [(0, 2), (2, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="empty part"):
            catalog_for_shape(m, n)
        with pytest.raises(ValueError, match="empty part"):
            EnumerationSpace(m, n)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalog_output_golden_digests(capsys):
    from scoresets.cli import main

    # the catalog file contract: these bytes must not change with the scan code
    golden = {
        "sets": "9f8bfada7eaa5c2f692302777829ac068d755dbae45e4fab08ad0d6add1e0458",
        "pairs": "0bd690479174bae2a65a70d4b06ba83a1ce437464a8655c0f4bbf25941a51b23",
    }
    for emit, digest in golden.items():
        assert main(["enumerate", "--m", "2", "--n", "3", "--emit", emit]) == 0
        assert _sha256(capsys.readouterr().out) == digest, emit
    assert _sha256(realizable_sets_up_to(2, 3).to_jsonl()) == (
        "c2ba5a51f7622eaa6725d14f36190d73b01e68f7bc391e836bcad946e9d8921d"
    )
