from itertools import accumulate, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import graphs, nondecreasing_sequences
from scoresets.criteria import (
    Violation,
    bipartite_pairs_pass,
    check_bipartite_pair,
    check_bipartite_runs,
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


def sweep_check_pair(pair):
    """Reference: the O(m + n) sweep over every p that check_bipartite_pair
    ran before it worked over runs."""
    a, b = pair.a, pair.b
    m, n = len(a), len(b)
    pre_a = list(accumulate(a, initial=0))
    pre_b = list(accumulate(b, initial=0))
    crossed = 0  # entries of b known to be <= 2p; never decreases
    for p in range(1, m + 1):
        while crossed < n and b[crossed] <= 2 * p:
            crossed += 1
        if pre_a[p] + pre_b[crossed or 1] < 2 * p * (crossed or 1):
            # the row's minimum fails, so its first failing q exists
            q = next(q for q in range(1, n + 1) if pre_a[p] + pre_b[q] < 2 * p * q)
            return Violation((p, q), pre_a[p] + pre_b[q], 2 * p * q)
    total = pre_a[m] + pre_b[n]
    if total != 2 * m * n:
        return Violation((m, n), total, 2 * m * n, equality=True)
    return None


def expand(runs):
    return tuple(value for value, count in runs for _ in range(count))


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


@pytest.mark.parametrize(
    "a_runs,b_runs,expected",
    [
        ([(1, 3), (8, 1)], [(3, 4)], "invalid at (p=2, q=3): 11 < 12"),
        ([(300, 500)], [(200, 500)], "invalid at (p=143, q=499): 142700 < 142714"),
        # the same pairs with values spanning consecutive runs
        ([(1, 1), (1, 2), (8, 1)], [(3, 2), (3, 2)], "invalid at (p=2, q=3): 11 < 12"),
        ([(300, 100), (300, 400)], [(200, 499), (200, 1)], "invalid at (p=143, q=499): 142700 < 142714"),
    ],
)
def test_runs_witness_inside_runs(a_runs, b_runs, expected):
    violation = check_bipartite_runs(a_runs, b_runs)
    assert violation.describe(("p", "q")) == expected
    assert violation == sweep_check_pair(ScoreSequencePair(expand(a_runs), expand(b_runs)))
    assert check_bipartite_pair(ScoreSequencePair(expand(a_runs), expand(b_runs))) == violation


def test_runs_reject_bad_input():
    for a_runs in ([], [(1, 0)], [(2, 1), (1, 1)], [(-1, 1)]):
        with pytest.raises(ValueError):
            check_bipartite_runs(a_runs, [(1, 1)])
        with pytest.raises(ValueError):
            check_bipartite_runs([(1, 1)], a_runs)


@st.composite
def run_pairs(draw, max_runs=6, max_count=300):
    """Runs of a and b with counts up to ``max_count``, values up to one
    above the largest attainable score, so that both failures and passes
    are drawn."""

    def runs(top):
        values = draw(st.lists(st.integers(0, top), min_size=1, max_size=max_runs, unique=True))
        return [(v, draw(st.integers(1, max_count))) for v in sorted(values)]

    m_top, n_top = draw(st.integers(1, 2 * max_count)), draw(st.integers(1, 2 * max_count))
    return runs(2 * n_top + 1), runs(2 * m_top + 1)


@given(run_pairs(), st.data())
def test_runs_match_the_sweep(runs, data):
    a_runs, b_runs = runs
    violation = sweep_check_pair(ScoreSequencePair(expand(a_runs), expand(b_runs)))
    assert check_bipartite_runs(a_runs, b_runs) == violation
    # a value may span consecutive runs: split one drawn run in two
    split = [list(a_runs), list(b_runs)]
    part, i = data.draw(st.sampled_from([(k, i) for k in (0, 1) for i in range(len(split[k]))]))
    value, count = split[part][i]
    assume(count > 1)
    first = data.draw(st.integers(1, count - 1))
    split[part][i : i + 1] = [(value, first), (value, count - first)]
    assert check_bipartite_runs(*split) == violation


@st.composite
def block_graph_runs(draw, max_blocks=4, max_size=300):
    """Score runs of a graph of up to ``max_blocks`` blocks a part, sizes
    up to ``max_size``, with one drawn arc state per pair of blocks."""
    u_size = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_blocks))
    v_size = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_blocks))
    net = [[draw(st.sampled_from((-1, 0, 1))) for _ in v_size] for _ in u_size]
    m, n = sum(u_size), sum(v_size)
    u = [n + sum(x * size for x, size in zip(row, v_size)) for row in net]
    v = [m - sum(row[j] * size for row, size in zip(net, u_size)) for j in range(len(v_size))]

    # one run per block, as Realization.verify passes them
    return sorted(zip(u, u_size)), sorted(zip(v, v_size))


@given(block_graph_runs())
def test_runs_of_block_graphs_pass(runs):
    a_runs, b_runs = runs
    assert check_bipartite_runs(a_runs, b_runs) is None
    assert sweep_check_pair(ScoreSequencePair(expand(a_runs), expand(b_runs))) is None


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
