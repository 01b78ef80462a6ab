from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, nondecreasing_sequences
from scoresets.criteria import (
    Violation,
    bipartite_pairs_pass,
    check_bipartite_pair,
    check_oriented_scores,
)
from scoresets.graph_core import ScoreSequencePair


def naive_check_oriented(scores):
    """Reference: scan every prefix directly."""
    for k in range(1, len(scores) + 1):
        total = sum(scores[:k])
        if total < k * (k - 1):
            return Violation((k,), total, k * (k - 1))
    total = sum(scores)
    full = len(scores) * (len(scores) - 1)
    if total != full:
        return Violation((len(scores),), total, full, equality=True)
    return None


def naive_check_pair(a, b):
    """Reference: scan every (p, q) in lexicographic order."""
    m, n = len(a), len(b)
    for p in range(1, m + 1):
        for q in range(1, n + 1):
            lhs = sum(a[:p]) + sum(b[:q])
            if lhs < 2 * p * q:
                return Violation((p, q), lhs, 2 * p * q)
    total = sum(a) + sum(b)
    if total != 2 * m * n:
        return Violation((m, n), total, 2 * m * n, equality=True)
    return None


def test_oriented_examples():
    assert check_oriented_scores([1, 1]) is None
    assert check_oriented_scores([0, 0]) == Violation((2,), 0, 2)
    assert check_oriented_scores([2, 2]) == Violation((2,), 4, 2, equality=True)


def test_oriented_rejects_bad_input():
    with pytest.raises(ValueError):
        check_oriented_scores([1, 0])
    with pytest.raises(ValueError):
        check_oriented_scores([-1])


def test_pair_examples():
    assert check_bipartite_pair(ScoreSequencePair((1,), (1,))) is None
    assert check_bipartite_pair(ScoreSequencePair((0,), (0,))) == Violation((1, 1), 0, 2)
    pair = ScoreSequencePair((1, 1, 5), (2, 5, 5, 5))
    assert sum(pair.a) + sum(pair.b) == 24 == 2 * 3 * 4
    assert check_bipartite_pair(pair) is None


def test_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        check_bipartite_pair(ScoreSequencePair((1, 0), (1,)))
    with pytest.raises(ValueError):
        check_bipartite_pair(ScoreSequencePair((0,), (2, -1)))


def test_pair_equality_failure_is_flagged():
    violation = check_bipartite_pair(ScoreSequencePair((2,), (2,)))
    assert violation == Violation((1, 1), 4, 2, equality=True)


def test_pair_exhaustive_against_naive():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for a in combinations_with_replacement(range(0, 2 * n + 2), m):
                for b in combinations_with_replacement(range(0, 2 * m + 2), n):
                    fast = check_bipartite_pair(ScoreSequencePair(a, b))
                    slow = naive_check_pair(a, b)
                    assert fast == slow, (a, b)


@given(nondecreasing_sequences(), nondecreasing_sequences())
def test_pair_matches_naive(a, b):
    fast = check_bipartite_pair(ScoreSequencePair(a, b))
    slow = naive_check_pair(a, b)
    assert fast == slow


def assert_batch_matches_pairs(a_rows, b_rows):
    batch = bipartite_pairs_pass(np.array(a_rows), np.array(b_rows)).tolist()
    single = [[check_bipartite_pair(ScoreSequencePair(a, b)) is None for b in b_rows] for a in a_rows]
    mismatches = [
        (a, b) for a, got, want in zip(a_rows, batch, single) for b, x, y in zip(b_rows, got, want) if x != y
    ]
    assert not mismatches, mismatches[:3]


def test_pairs_pass_exhaustive_against_check_bipartite_pair():
    # every shape with m * n <= 12, entries one above the attainable range
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            a_rows = list(combinations_with_replacement(range(0, 2 * n + 2), m))
            b_rows = list(combinations_with_replacement(range(0, 2 * m + 2), n))
            assert_batch_matches_pairs(a_rows, b_rows)


@st.composite
def row_blocks(draw, max_len=7):
    """A block of nondecreasing a rows of one drawn length m and one of
    b rows of length n, entries up to 2n + 1 and 2m + 1."""
    m, n = draw(st.integers(1, max_len)), draw(st.integers(1, max_len))

    def block(length, top):
        row = st.lists(st.integers(0, top), min_size=length, max_size=length).map(sorted).map(tuple)
        return draw(st.lists(row, min_size=1, max_size=8))

    return block(m, 2 * n + 1), block(n, 2 * m + 1)


@given(row_blocks())
def test_pairs_pass_matches_check_bipartite_pair(blocks):
    assert_batch_matches_pairs(*blocks)


@given(nondecreasing_sequences(max_len=8, max_value=16))
def test_oriented_matches_naive(seq):
    assert check_oriented_scores(seq) == naive_check_oriented(seq)


@given(nondecreasing_sequences(), nondecreasing_sequences())
def test_pair_witness_recomputes(a, b):
    violation = check_bipartite_pair(ScoreSequencePair(a, b))
    if violation is None:
        assert sum(a) + sum(b) == 2 * len(a) * len(b)
    else:
        p, q = violation.indices
        lhs = sum(a[:p]) + sum(b[:q])
        assert lhs == violation.lhs
        assert violation.rhs == 2 * p * q
        if not violation.equality:
            assert lhs < 2 * p * q


@given(graphs())
def test_pair_criterion_necessity_on_random_graphs(g):
    assert check_bipartite_pair(g.score_sequences()) is None


def test_empty_oriented_sequence_is_valid():
    assert check_oriented_scores([]) is None
