import functools
import hashlib
import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scoresets.oracle as oracle

from conftest import graphs, per_vertex_scores
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
)


def every_graph(m, n):
    """Reference lane: every assignment of shape (m, n) in ascending
    index order, decoded one index at a time."""
    space = EnumerationSpace(m, n)
    return (space.decode(index) for index in range(space.total))


def full_scan(m, n):
    """Reference lane: score every index 0 .. 3**(m*n) - 1 and keep the
    least index of each score set and sequence pair, keys in ascending
    order of that index."""
    index = np.arange(3 ** (m * n), dtype=np.int64)
    u_scores = np.full((index.size, m), n, dtype=np.int64)
    v_scores = np.full((index.size, n), m, dtype=np.int64)
    rem = index
    for pos in range(m * n):
        rem, digit = np.divmod(rem, 3)
        net = (digit == ArcState.U_TO_V).astype(np.int64) - (digit == ArcState.V_TO_U)
        u_scores[:, pos // n] += net
        v_scores[:, pos % n] -= net
    scores = np.concatenate([u_scores, v_scores], axis=1)
    masks = np.bitwise_or.reduce(np.left_shift(1, scores), axis=1)
    rows = np.concatenate([np.sort(u_scores, axis=1), np.sort(v_scores, axis=1)], axis=1)
    codes = np.zeros(index.size, dtype=np.int64)
    for col in rows.T:
        codes = codes * (2 * max(m, n) + 1) + col
    catalog = RealizabilityCatalog()
    _, first = np.unique(masks, return_index=True)
    for i in np.sort(first).tolist():
        catalog.sets[tuple(sorted(set(scores[i].tolist())))] = Witness(m, n, i)
    _, first = np.unique(codes, return_index=True)
    for i in np.sort(first).tolist():
        catalog.pairs[(tuple(rows[i, :m].tolist()), tuple(rows[i, m:].tolist()))] = Witness(m, n, i)
    return catalog


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8])
def test_decode_encode_round_trip_exhaustive(m, n):
    space = EnumerationSpace(m, n)
    for index in range(space.total):
        assert space.encode(space.decode(index)) == index


@pytest.mark.parametrize("m,n,index", [(3, 13, 0), (3, 13, 3**39 - 1), (1, 31, 3**31 - 1)])
def test_decode_encode_round_trip_at_int64_extremes(m, n, index):
    space = EnumerationSpace(m, n)
    g = space.decode(index)
    assert space.encode(g) == index
    # the last index has every pair at digit 2, the first every pair absent
    assert np.all(g.states == (0 if index == 0 else ArcState.V_TO_U))


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


def test_encode_refuses_a_graph_of_another_shape():
    with pytest.raises(ValueError, match="graph shape does not match this space"):
        EnumerationSpace(2, 2).encode(BipartiteOrientedGraph(1, 1))


def test_decode_takes_only_integer_indices():
    space = EnumerationSpace(2, 2)
    with pytest.raises(TypeError):
        space.decode(2.5)
    assert space.decode(np.int64(54)) == space.decode(54)


@pytest.mark.parametrize("length", range(1, 7))
def test_line_table_scores_each_state_as_its_graph(length):
    # row lines at (length, length); column lines at (length, length + 1),
    # the longest column in the oracle's range
    shapes = [(length, n) for n in (length, length + 1) if length * n <= 39]
    for m, n in shapes:
        scores, weights, *_ = oracle._shape_lines(m, n)
        count = max(m, n)
        assert scores.shape == (3**length,) and weights.shape == (count, 3**length, length + 1)
        for state in range(3**length):
            digits, rem = [], state
            for _ in range(length):
                rem, digit = divmod(rem, 3)
                digits.append(digit)
            states = np.array([digits]) if n <= m else np.array([digits]).T
            u_scores, v_scores = BipartiteOrientedGraph.from_states(states).scores()
            own, cross = (u_scores[0], v_scores) if n <= m else (v_scores[0], u_scores)
            assert scores[state] == own
            # line 0 also adds the count of lines; each cross vertex of the
            # one-line graph starts at 1 and takes its pair's share
            shares = weights[:, state, 1:] - count * (np.arange(count) == 0)[:, None]
            assert shares.tolist() == [[score - 1 for score in cross]] * count


@pytest.mark.parametrize("m,n", [(31, 1), (1, 31)])
def test_pair_keys_of_the_largest_key_spaces(m, n):
    # 63 * 3**31 pair keys, the most of any shape in the oracle's range
    pairs = catalog_for_shape(m, n, budget=3**31, sets=False).pairs
    assert len(pairs) == 528
    for (a, b), witness in pairs.items():
        pair = witness.graph().score_sequences()
        assert (pair.a, pair.b) == (a, b)


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
    # {0,2,6} is first attained at 2x3, index 368; {0} nowhere within 2x3
    found = bounded_search(ScoreSet((0, 2, 6)), 2, 3)
    assert (found.m, found.n, EnumerationSpace(2, 3).encode(found)) == (2, 3, 368)
    assert bounded_search(ScoreSet((0,)), 2, 3) is None
    # 3x3 builds rows, 2x6 and 3x5 columns; the references are one block each
    default = oracle._BLOCK
    monkeypatch.setattr(oracle, "_BLOCK", 1 << 40)
    references = {(m, n): catalog_for_shape(m, n) for m, n in [(3, 3), (2, 6), (3, 5)]}
    sizes = []
    candidates = oracle._candidates

    def recording(*args):
        for block in candidates(*args):
            sizes.append(block[0].size)
            yield block

    monkeypatch.setattr(oracle, "_candidates", recording)
    # candidates per block; 3x5's 70,243 candidates take 19 blocks at the default
    caps = {(3, 3): (1, 7, 1000), (2, 6): (1, 7, 1000), (3, 5): (1000, default // 8)}
    for (m, n), reference in references.items():
        for cap in caps[m, n]:
            monkeypatch.setattr(oracle, "_BLOCK", cap * (m + n))
            sizes.clear()
            other = catalog_for_shape(m, n)
            assert list(other.sets.items()) == list(reference.sets.items())
            assert list(other.pairs.items()) == list(reference.pairs.items())
            assert max(sizes) <= cap < sum(sizes), (cap, m, n)


@pytest.mark.parametrize("m,n", [(3, 3), (2, 5), (5, 2), (1, 12)])
def test_pairs_lane_matches_unique_reference_across_chunks(m, n, monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK", 50 * (m + n))  # blocks of 50 split every shape
    assert len(list(oracle._candidates(m, n))) > 1
    reference = full_scan(m, n).pairs
    pairs = catalog_for_shape(m, n, sets=False).pairs
    # keys, witness indices and insertion order
    assert list(pairs.items()) == list(reference.items())


def test_catalog_memory_stays_per_block():
    # 250,841 candidates at 4x4 and 414,848 at 3x6: blocks merge into the
    # keys so far, so no array grows with the count of candidates
    for m, n, budget in ((4, 4, oracle.DEFAULT_BUDGET), (3, 6, 3**18)):
        tracemalloc.start()
        try:
            catalog_for_shape(m, n, pairs=False, budget=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"{m}x{n}: peak {peak} bytes"


SMALL_SHAPES = [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9]


@pytest.mark.parametrize("m,n", SMALL_SHAPES + [(3, 4), (4, 3), (2, 5), (5, 2), (1, 12), (12, 1)])
def test_catalog_matches_full_scan_reference(m, n):
    reference = full_scan(m, n)
    catalog = catalog_for_shape(m, n)
    assert catalog.to_jsonl() == reference.to_jsonl()
    assert list(catalog.sets.items()) == list(reference.sets.items())
    assert list(catalog.pairs.items()) == list(reference.pairs.items())


def sorted_lines(index, m, n, by_rows):
    """The index of assignment ``index`` of shape (m, n) with its rows,
    or its columns, reordered by their codes, largest first."""
    digits = [index // 3**pos % 3 for pos in range(m * n)]
    if by_rows:
        # row u in state r adds r * 3**(n*u)
        lines = sorted((digits[u * n : u * n + n] for u in range(m)), key=lambda row: row[::-1], reverse=True)
        return sum(d * 3 ** (u * n + v) for u, row in enumerate(lines) for v, d in enumerate(row))
    # column v with code c adds c * 3**v
    lines = sorted((digits[v::n] for v in range(n)), key=lambda col: col[::-1], reverse=True)
    return sum(d * 3 ** (u * n + v) for v, col in enumerate(lines) for u, d in enumerate(col))


@given(st.sampled_from([(3, 4), (4, 3)]), st.integers(0, 3**12 - 1))
def test_sorted_lines_keep_the_keys_and_lower_the_index(shape, index):
    m, n = shape
    space = EnumerationSpace(m, n)
    before = space.decode(index)
    for by_rows in (True, False):
        least = sorted_lines(index, m, n, by_rows)
        after = space.decode(least)
        assert after.score_set() == before.score_set()
        assert after.score_sequences() == before.score_sequences()
        assert least <= index


def test_visitor_and_vectorized_lanes_agree():
    m, n = 2, 3
    sets = {}
    pairs = {}
    for index, g in enumerate(every_graph(m, n)):
        sets.setdefault(g.score_set().values, Witness(m, n, index))
        pair = g.score_sequences()
        pairs.setdefault((pair.a, pair.b), Witness(m, n, index))
    for catalog in (catalog_for_shape(m, n), full_scan(m, n)):
        assert list(catalog.sets.items()) == list(sets.items())
        assert list(catalog.pairs.items()) == list(pairs.items())


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


def test_total_score_bound_holds_on_every_catalog_set():
    shapes = [(m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 12]
    assert len(shapes) == 23
    for m, n in shapes:
        sets = catalog_for_shape(m, n, pairs=False).sets
        for values in sets:
            assert oracle._shape_admits(values, m, n), (m, n, values)
        # acceptance criterion 4's sets: no scan finds them, and none is needed
        for values in [(0,), (0, 1), (0, 1, 2)]:
            assert values not in sets
            assert not oracle._shape_admits(values, m, n)


def record_shapes(monkeypatch):
    """Replace the search lane with one that appends its shape to the
    returned list before running."""
    scanned = []
    lane = oracle._first_by_lines

    def recording(m, n, target):
        scanned.append((m, n))
        return lane(m, n, target)

    monkeypatch.setattr(oracle, "_first_by_lines", recording)
    return scanned


def test_bounded_search_scans_no_shape_the_bound_rules_out(monkeypatch):
    scanned = record_shapes(monkeypatch)
    for values in [(0,), (0, 1), (0, 1, 2)]:
        assert bounded_search(ScoreSet(values), 4, 4) is None
    assert scanned == []
    # {0,2,6} at 1x3 fits the vertex count and the maximum, but its
    # values sum to 8 > 2mn = 6: only 2x3 is searched
    assert bounded_search(ScoreSet((0, 2, 6)), 2, 3) is not None
    assert scanned == [(2, 3)]
    # {0,3,5} passes the bound at 1x4, 2x3 and 2x4 only; all three are
    # searched, and 2x4 holds the witness
    scanned.clear()
    found = bounded_search(ScoreSet((0, 3, 5)), 2, 4)
    assert EnumerationSpace(2, 4).encode(found) == 1200
    assert scanned == [(1, 4), (2, 3), (2, 4)]


def test_bounded_search_allocates_nothing_for_a_huge_value():
    # 10**8 exceeds every score at 2x2: no shape is admitted, and no set
    # mask of 10**8 bits is built
    target = ScoreSet((1, 10**8))
    tracemalloc.start()
    try:
        assert bounded_search(target, 2, 2) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m_max,n_max", [(1, 12), (12, 1)])
def test_line_lanes_at_long_shapes(m_max, n_max, monkeypatch):
    # 1x12 is built from its single-pair columns and 12x1 from its rows;
    # the first witness is the catalog's at the first shape that has the set
    catalogs = [catalog_for_shape(m, n, pairs=False).sets for m, n in oracle._shapes(m_max, n_max, 3**12)]
    scanned = record_shapes(monkeypatch)
    realized = [(1, 2, 11), (0, 2, 22), (0, 1, 2, 21)]  # first at the long shape
    unrealized = [(0, 3, 21), (0, 5, 6), (1, 4, 7)]  # admitted there, but two values exceed 2
    for values in realized + unrealized:
        scanned.clear()
        found = bounded_search(ScoreSet(values), m_max, n_max)
        assert scanned[-1] == (m_max, n_max)
        expected = next((sets[values] for sets in catalogs if values in sets), None)
        assert (expected is None) == (values in unrealized)
        if found is None:
            assert expected is None
        else:
            assert Witness(found.m, found.n, EnumerationSpace(found.m, found.n).encode(found)) == expected


def assert_scan_witnesses(m, n, sets):
    """Every admitted subset of {0..8} gets its first index in ``sets``
    from the search of shape (m, n), or None where ``sets`` lacks it."""
    for mask in range(1, 1 << 9):
        values = oracle._values_of(mask)
        if oracle._shape_admits(values, m, n):
            expected = sets[values].index if values in sets else None
            assert oracle._first_by_lines(m, n, mask) == expected, (m, n, values)


def test_line_lanes_find_the_scan_witness():
    # the catalog's first witnesses, whether the shape is built from its
    # rows or its columns
    shapes = [(2, 4), (4, 2), (3, 3), (1, 7), (7, 1), (1, 1), (1, 6), (2, 3), (3, 2), (6, 1)]
    for m, n in shapes:
        assert_scan_witnesses(m, n, catalog_for_shape(m, n, pairs=False).sets)


def test_long_columns_lanes_agree():
    # for every subset of {0..4}, the first index of m x 1 is that of the
    # test's own full scan at 12x1, and the catalog's at 13x1 to 16x1
    for m in range(12, 17):
        sets = (full_scan if m == 12 else catalog_for_shape)(m, 1).sets
        for size in range(1, 6):
            for values in combinations(range(5), size):
                target = oracle._mask_of(values)
                expected = sets[values].index if values in sets else None
                assert oracle._first_by_lines(m, 1, target) == expected, (m, values)


@pytest.mark.parametrize("m,n", [(2, 8), (8, 2), (3, 5), (5, 3)])
def test_sorted_lane_finds_the_catalog_witness(m, n, monkeypatch):
    # sampled realized sets get the catalog's first witness, sampled
    # admitted but unrealized ones None, and the answers do not depend
    # on the block size
    sets = catalog_for_shape(m, n, pairs=False).sets
    realized = sorted(sets)[::12]
    admitted = [
        values
        for values in map(oracle._values_of, range(1, 1 << (2 * max(m, n) + 1), 7))
        if oracle._shape_admits(values, m, n) and values not in sets
    ]
    admitted = admitted[:: len(admitted) // 20]
    assert len(realized) > 50 and len(admitted) >= 20
    candidates, generated = oracle._candidates, {}

    def counting(*args):
        target = args[2]
        generated[target] = 0
        for block in candidates(*args):
            generated[target] += block[0].size
            yield block

    monkeypatch.setattr(oracle, "_candidates", counting)
    expected = {oracle._mask_of(values): sets[values].index for values in realized}
    expected.update((oracle._mask_of(values), None) for values in admitted)
    assert {target: oracle._first_by_lines(m, n, target) for target in expected} == expected
    assert len(generated) >= 3
    # blocks of 7 split a search of up to 9,000 candidates into up to 1,286
    for chunk, most in ((300, math.inf), (7, 9000)):
        monkeypatch.setattr(oracle, "_BLOCK", chunk * (m + n))
        split = [target for target, count in generated.items() if chunk < count <= most]
        assert split
        assert [oracle._first_by_lines(m, n, target) for target in split] == [expected[t] for t in split]


def digit_grids(index, m, n):
    """The base-3 digits of each index as an (m, n) grid, pair (u, v) at
    [u, v]."""
    index = np.asarray(index, dtype=np.int64)
    return (index[:, None] // 3 ** np.arange(m * n, dtype=np.int64) % 3).reshape(-1, m, n)


def doubly_sorted(grids):
    """Whether each grid has its row codes nonincreasing in u and its
    column codes nonincreasing in v (pair (u, v) weighs 3**(u*n + v))."""
    m, n = grids.shape[1:]
    rows = grids @ 3 ** np.arange(n, dtype=np.int64)
    cols = np.einsum("kuv,u->kv", grids, 3 ** (n * np.arange(m, dtype=np.int64)))
    return np.all(rows[:, :-1] >= rows[:, 1:], axis=1) & np.all(cols[:, :-1] >= cols[:, 1:], axis=1)


def all_candidates(m, n, target=-1):
    """Index, U scores and V scores of every candidate, in one array each."""
    return [np.concatenate(part) for part in zip(*oracle._candidates(m, n, target))]


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_candidates_are_exactly_the_doubly_sorted_assignments(m, n):
    index = np.arange(3 ** (m * n), dtype=np.int64)
    expected = index[doubly_sorted(digit_grids(index, m, n))]
    found, u_scores, v_scores = all_candidates(m, n)
    assert np.array_equal(np.sort(found), expected)  # each once
    for i, u, v in zip(found.tolist(), u_scores.tolist(), v_scores.tolist()):
        assert (u, v) == per_vertex_scores(EnumerationSpace(m, n).decode(i))


def test_candidate_counts():
    # against C(3**3 + 3, 4) = 27,405 column multisets at 3x4 and 4x3,
    # and C(3**4 + 3, 4) = 1,929,501 row multisets at 4x4
    counts = {(3, 3): 1169, (3, 4): 10020, (4, 3): 10020, (4, 4): 250841}
    for (m, n), count in counts.items():
        index = all_candidates(m, n)[0]
        assert index.size == np.unique(index).size == count, (m, n)
        assert doubly_sorted(digit_grids(index, m, n)).all(), (m, n)


ROW_BUILT = [(m, n) for m in range(1, 17) for n in range(1, m + 1) if m * n <= 16]


@pytest.mark.parametrize("m,n", ROW_BUILT)
def test_row_built_candidates_ascend_in_index(m, n, monkeypatch):
    # a row-built search stops at its first hit because candidates come
    # in ascending index, within a block and from block to block
    monkeypatch.setattr(oracle, "_BLOCK", 100 * (m + n))
    index = all_candidates(m, n)[0]
    assert np.all(index[1:] > index[:-1])


@pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
def test_row_built_search_in_small_blocks_finds_the_scan_witness(m, n, monkeypatch):
    # blocks of 5 candidates: the first hit is still the full scan's witness
    monkeypatch.setattr(oracle, "_BLOCK", 5 * (m + n))
    assert_scan_witnesses(m, n, full_scan(m, n).sets)


@functools.cache
def candidate_set(m, n):
    return frozenset(all_candidates(m, n)[0].tolist())


@given(st.sampled_from([(3, 4), (4, 3)]), st.integers(0, 3**12 - 1))
def test_sorting_lines_reaches_a_candidate(shape, index):
    # sorting the rows, then the columns, and so on until both stay
    # sorted keeps every key and never raises the index
    m, n = shape
    grid = digit_grids([index], m, n)[0]
    while not doubly_sorted(grid[None])[0]:
        grid = grid[np.argsort(-(grid @ 3 ** np.arange(n)), kind="stable")]
        grid = grid[:, np.argsort(-(3 ** (n * np.arange(m)) @ grid), kind="stable")]
    least = int(grid.reshape(-1) @ 3 ** np.arange(m * n, dtype=np.int64))
    assert least <= index and least in candidate_set(m, n)
    space = EnumerationSpace(m, n)
    before, after = space.decode(index), space.decode(least)
    assert after.score_set() == before.score_set()
    assert after.score_sequences() == before.score_sequences()


def test_search_blocks_keep_their_scores_within_the_block(monkeypatch):
    # a search of {0,1,2,3,4,8,9} scores candidates in blocks whose int64
    # scores, m + n per candidate, take at most _BLOCK entries, as do
    # those of a catalog.  Row-built 5x3 stops after the block of its
    # first hit; column-built 3x5 scores every block
    values = (0, 1, 2, 3, 4, 8, 9)
    target = oracle._mask_of(values)
    blocks, candidates = [], oracle._candidates

    def recording(m, n, kept=-1):
        for block in candidates(m, n, kept):
            blocks.append((block[0].size, kept))
            yield block

    monkeypatch.setattr(oracle, "_candidates", recording)
    for (m, n), count, split in (((5, 3), 8192, 2), ((3, 5), 33271, 9)):
        blocks.clear()
        witness = catalog_for_shape(m, n, pairs=False).sets[values]
        assert oracle._first_by_lines(m, n, target) == witness.index
        searched = [size for size, kept in blocks if kept == target]
        assert (sum(searched), len(searched)) == (count, split), (m, n)
        assert max(searched) * (m + n) <= oracle._BLOCK
        assert max(size for size, kept in blocks if kept == -1) == oracle._BLOCK // (m + n)


def test_line_tables_are_cached_and_read_only():
    tables = oracle._shape_lines(3, 4)
    assert all(a is b for a, b in zip(oracle._shape_lines(3, 4), tables))
    for table in (*tables, *oracle._shape_lines(4, 3)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    # catalogs and searches share one table per shape
    oracle._shape_lines.cache_clear()
    values, witness = list(catalog_for_shape(3, 3).sets.items())[-1]
    assert oracle._first_by_lines(3, 3, oracle._mask_of(values)) == witness.index
    assert oracle._shape_lines.cache_info().misses == 1


def test_bounded_search_never_scans(monkeypatch):
    shape_lines, candidates = oracle._shape_lines, oracle._candidates
    generated = []

    def counting(*args):
        for block in candidates(*args):
            generated.append(block[0].size)
            yield block

    def short_lines_only(m, n):
        assert min(m, n) <= 6, (m, n)
        return shape_lines(m, n)

    monkeypatch.setattr(oracle, "_candidates", counting)
    monkeypatch.setattr(oracle, "_shape_lines", short_lines_only)
    # 1x16 and 16x1 are the only shapes admitted; a full scan of either
    # would score 3**16 assignments, doubly sorted ones of single-pair
    # lines at most C(18, 16); {0,1,2,29} keeps all three column states at 1x16
    searches = [((0, 31), 1, 16, None), ((0, 31), 16, 1, None), ((0, 1, 2, 29), 1, 16, 7174454)]
    for values, m_max, n_max, index in searches:
        generated.clear()
        found = bounded_search(ScoreSet(values), m_max, n_max)
        assert sum(generated) <= math.comb(18, 16), (values, m_max, n_max)
        assert (None if found is None else EnumerationSpace(1, 16).encode(found)) == index
    # sets first realized at the bounds
    for values, m, n in [((1, 9), 2, 6), ((1, 4, 6), 3, 4)]:
        found = bounded_search(ScoreSet(values), m, n)
        assert (found.m, found.n) == (m, n)
        assert found.score_set().values == values


def test_line_lanes_are_independent_of_the_block_size(monkeypatch):
    targets = [oracle._mask_of(v) for v in [(1, 2, 3, 4, 5), (0, 2, 3, 4, 6), (2, 3, 4), (1, 5, 6)]]
    shapes = [(3, 3), (2, 4), (4, 2)]
    expected = [oracle._first_by_lines(m, n, target) for m, n in shapes for target in targets]
    assert None in expected
    for block in (1, 5, 27, 100, 1000):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert [oracle._first_by_lines(m, n, t) for m, n in shapes for t in targets] == expected


def test_bounded_search_returns_first_shape_in_order():
    witness = bounded_search(ScoreSet((1, 2)), 2, 2)
    assert witness is not None
    assert (witness.m, witness.n) == (1, 2)  # shape (1, 2) precedes (2, 1)


def test_bounded_search_rescores_its_witness(monkeypatch):
    def empty(self, index):
        return BipartiteOrientedGraph(self.m, self.n)

    monkeypatch.setattr(oracle.EnumerationSpace, "decode", empty)
    with pytest.raises(RuntimeError, match="1x1 witness scores"):
        bounded_search(ScoreSet((0, 2)), 2, 2)


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


def two_loop_equivalence(m, n, passes):
    """Reference lane: a necessity loop over the realized pairs, then a
    sufficiency loop over every candidate pair not realized, each pair
    judged one at a time by ``passes(a, b)``."""
    from itertools import combinations_with_replacement

    realized = set(catalog_for_shape(m, n, sets=False).pairs)
    counterexamples = []
    for a, b in sorted(realized):
        if not passes(a, b):
            counterexamples.append(("necessity", a, b))
    for a in combinations_with_replacement(range(2 * n + 1), m):
        for b in combinations_with_replacement(range(2 * m + 1), n):
            if (a, b) not in realized and passes(a, b):
                counterexamples.append(("sufficiency", a, b))
    return counterexamples


def test_criterion_equivalence_matches_two_loop_reference(monkeypatch):
    from scoresets.criteria import check_bipartite_pair
    from scoresets.graph_core import ScoreSequencePair

    exact = oracle.bipartite_pairs_pass

    # both lanes flip the verdict on a slice of realized and unrealized pairs
    def faulty_batch(a_rows, b_rows):
        flip = (a_rows[:, 0] == 1)[:, None] | (b_rows.sum(axis=1) % 5 == 0)
        return exact(a_rows, b_rows) ^ flip

    def faulty_pair(a, b):
        passes = check_bipartite_pair(ScoreSequencePair(a, b)) is None
        return passes != (a[0] == 1 or sum(b) % 5 == 0)

    monkeypatch.setattr(oracle, "bipartite_pairs_pass", faulty_batch)
    total = 0
    kinds = set()
    for m in range(1, 4):
        for n in range(1, 4):
            report = criterion_equivalence(m, n)
            assert report.counterexamples == two_loop_equivalence(m, n, faulty_pair), (m, n)
            total += len(report.counterexamples)
            kinds.update(kind for kind, _, _ in report.counterexamples)
    assert total > 0
    assert kinds == {"necessity", "sufficiency"}


def test_criterion_equivalence_reports_what_it_checked():
    report = criterion_equivalence(1, 1)
    assert (report.candidates, report.passing) == (9, 3)
    report = criterion_equivalence(3, 4)
    assert (report.candidates, report.passing) == (165 * 210, 1179)


def test_criterion_equivalence_holds_at_4x4_in_blocks(monkeypatch):
    exact = oracle.bipartite_pairs_pass
    blocks = []

    def recording(a_rows, b_rows):
        blocks.append(a_rows.shape[0] * b_rows.shape[0])
        return exact(a_rows, b_rows)

    monkeypatch.setattr(oracle, "bipartite_pairs_pass", recording)
    report = criterion_equivalence(4, 4)
    assert report.counterexamples == []
    assert report.candidates == sum(blocks) == 495 * 495
    assert len(blocks) == 8 and max(blocks) <= oracle._BLOCK


def test_criterion_equivalence_blocks_stay_within_the_block_at_every_shape():
    # one a candidate per block keeps a block within _BLOCK pairs
    for m in range(1, 32):
        for n in range(1, 32):
            if 2 * max(m, n) <= 62 and m * n < 40:
                assert math.comb(2 * m + n, n) <= oracle._BLOCK, (m, n)


def test_criterion_equivalence_is_independent_of_the_block_size(monkeypatch):
    exact = oracle.bipartite_pairs_pass

    def faulty_batch(a_rows, b_rows):
        return exact(a_rows, b_rows) ^ (b_rows.sum(axis=1) % 3 == 0)

    monkeypatch.setattr(oracle, "bipartite_pairs_pass", faulty_batch)
    whole = criterion_equivalence(3, 3)  # one block
    monkeypatch.setattr(oracle, "_BLOCK", 100)  # one a candidate per block
    assert criterion_equivalence(3, 3) == whole
    assert whole.counterexamples


def test_criterion_equivalence_1x1_passing_pairs():
    from itertools import combinations_with_replacement

    from scoresets.criteria import check_bipartite_pair
    from scoresets.graph_core import ScoreSequencePair

    passing = [
        (a, b)
        for a in combinations_with_replacement(range(3), 1)
        for b in combinations_with_replacement(range(3), 1)
        if check_bipartite_pair(ScoreSequencePair(a, b)) is None
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

    for name in ("_doubly_sorted", "_shape_lines"):
        monkeypatch.setattr(oracle, name, no_scan)
    monkeypatch.setattr(oracle.EnumerationSpace, "decode", no_scan)
    budget = 3 ** (m * n)  # the budget admits the shape; the int64 range does not
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
    assert {per_vertex_scores(g)[0][0] for g in every_graph(1, 1)} == {0, 1, 2}


def test_handshake_on_enumerated_graphs():
    for g in every_graph(2, 2):
        u_scores, v_scores = per_vertex_scores(g)
        assert sum(u_scores) + sum(v_scores) == 2 * g.m * g.n


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


def test_catalog_for_shape_without_kinds_scans_nothing(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started")

    for name in ("_doubly_sorted", "_shape_lines"):
        monkeypatch.setattr(oracle, name, no_scan)
    for m, n in [(4, 4), (5, 4)]:  # 5x4 is over the budget: the flags are checked first
        with pytest.raises(ValueError, match="sets=True or pairs=True"):
            catalog_for_shape(m, n, sets=False, pairs=False)


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
        with pytest.raises(ValueError, match="catalog line"):
            RealizabilityCatalog.from_jsonl(text + line + "\n")
    with pytest.raises(ValueError, match="catalog line"):
        RealizabilityCatalog.from_jsonl('{"kind":"set"}\n')
    with pytest.raises(ValueError, match="catalog line"):
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
