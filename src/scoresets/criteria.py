"""Realizability criteria for score sequences.

Two checks:

* oriented graphs: a nondecreasing sequence of nonnegative integers is a
  score sequence iff every prefix of length k sums to at least k(k-1),
  with equality for the full sequence.

* oriented bipartite graphs: two nondecreasing sequences a (length m) and
  b (length n) are the score sequences of one graph iff
  sum(a[:p]) + sum(b[:q]) >= 2pq for all 1 <= p <= m, 1 <= q <= n, with
  equality at (p, q) = (m, n).

Both return the first failed constraint as a ``Violation``, an immutable
named tuple, or ``None`` when the sequences pass.  ``check_bipartite_runs``
decides the bipartite check over ``(value, count)`` runs with
nondecreasing values, in O(runs); a value may span consecutive runs.
``check_bipartite_pair`` encodes its sequences as runs of equal values
and runs the same sweep.
Write A_p = sum(a[:p]), B_q = sum(b[:q]) and f(p, q) = A_p + B_q - 2pq.
For fixed p, B_q - 2pq falls while the q-th entry of b is at most 2p and
rises after, so its minimum over q >= 1 sits at q* = max(1, #{b <= 2p}),
a count that only grows with p.  Inside a run of a, A_p is linear in p,
so every f(p, q) is linear in p there and g(p) = min_q f(p, q) is
concave on the run, counting the end of the run before it (at p = 0, g
is the least entry of b, which is nonnegative).  Nothing here needs the
runs' values to differ: a run split in two is two runs, g is concave on
each, and the sweep finds the same witness.  A concave function is
smallest at an end of its interval, so checking g at every run end of a,
with one pointer over the runs of b, decides pass or fail.  Only after a
failure is the witness looked for.  In the failing run the failing p
form a suffix, since g is concave there and nonnegative at the run's
start, so the first one is found by bisection.  At that p, f(p, q) does
not increase on [1, q*] and fails at q*, so the first failing q is found
by bisection too.  The witness is therefore the lexicographically first
(p, q), then the equality at (m, n).

``bipartite_pairs_pass`` evaluates the same bipartite statement for
every pair of a block of a rows and a block of b rows at once, without a
witness.  For each b row and each p it takes the minimum over q of
sum(b[:q]) - 2pq once; a pair fails at p iff sum(a[:p]) plus that
minimum is negative.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from .graph_core import ScoreSequencePair, _validate_sequence

if TYPE_CHECKING:
    import numpy as np


class Violation(namedtuple("Violation", "indices lhs rhs equality", defaults=(False,))):
    """First failed constraint: indices, and both sides of the comparison."""

    __slots__ = ()
    indices: tuple[int, ...]
    lhs: int
    rhs: int
    equality: bool

    def describe(self, names: Sequence[str]) -> str:
        """``invalid at (p=1, q=1): 0 < 2``, one name per index."""
        where = ", ".join(f"{name}={i}" for name, i in zip(names, self.indices))
        if self.equality:
            return f"invalid at ({where}): {self.lhs} != {self.rhs} (equality required)"
        return f"invalid at ({where}): {self.lhs} < {self.rhs}"


def check_oriented_scores(scores: Sequence[int]) -> Violation | None:
    """Avery-style prefix check for oriented-graph score sequences."""
    vals = tuple(scores)
    _validate_sequence(vals, "scores")
    total = 0
    for k, x in enumerate(vals, start=1):
        total += x
        if total < k * (k - 1):
            return Violation((k,), total, k * (k - 1))
    full = len(vals) * (len(vals) - 1)
    if total != full:
        return Violation((len(vals),), total, full, equality=True)
    return None


def check_bipartite_pair(pair: ScoreSequencePair) -> Violation | None:
    """Prefix-sum check for oriented-bipartite score sequence pairs."""
    # a ScoreSequencePair is validated, so its runs are too
    return _check_runs(_runs(pair.a), _runs(pair.b))


def _runs(seq: Sequence[int]) -> list[tuple[int, int]]:
    """The ``(value, count)`` runs of a nonempty sequence."""
    runs = []
    last, count = seq[0], 0
    for value in seq:
        if value != last:
            runs.append((last, count))
            last, count = value, 0
        count += 1
    runs.append((last, count))
    return runs


def check_bipartite_runs(
    a_runs: Sequence[tuple[int, int]], b_runs: Sequence[tuple[int, int]]
) -> Violation | None:
    """The bipartite check of the sequences that repeat each ``value``
    ``count`` times, given as ``(value, count)`` runs with nondecreasing
    nonnegative values and positive counts, where a value may span
    consecutive runs; the indices of a ``Violation`` are those of the
    repeated sequences."""
    for name, runs in (("a", a_runs), ("b", b_runs)):
        if not runs or min(count for _, count in runs) < 1:
            raise ValueError(f"runs {name!r} must be nonempty with positive counts: {runs}")
        _validate_sequence([value for value, _ in runs], name)
    return _check_runs(a_runs, b_runs)


def _check_runs(a_runs, b_runs) -> Violation | None:
    """``check_bipartite_runs`` on runs known to be valid."""
    b_values, b_counts = zip(*b_runs)
    ends = [0, *accumulate(b_counts)]  # entries of b's first j runs
    sums = [0, *accumulate(map(operator.mul, b_values, b_counts))]  # and their sum
    p = pre_a = j = 0  # j counts the runs of b whose value is <= 2p
    for value, count in a_runs:
        p += count
        pre_a += value * count
        while j < len(b_values) and b_values[j] <= 2 * p:
            j += 1
        q, low = (ends[j], sums[j]) if j else (1, b_values[0])
        if pre_a + low < 2 * p * q:
            return _first_violation(value, count, p, pre_a, b_values, ends, sums)
    if pre_a + sums[-1] != 2 * p * ends[-1]:
        return Violation((p, ends[-1]), pre_a + sums[-1], 2 * p * ends[-1], equality=True)
    return None


def _first_violation(value, count, end, pre_end, b_values, ends, sums) -> Violation:
    """The first failing (p, q), given that the run of ``count`` values
    ``value`` that ends at p = ``end`` with prefix sum ``pre_end`` is the
    first run of a whose end fails."""

    def f(p: int, q: int) -> int:
        j = bisect_left(ends, q) - 1  # q lies in b's run j
        return pre_end - value * (end - p) + sums[j] + b_values[j] * (q - ends[j]) - 2 * p * q

    def q_star(p: int) -> int:
        return max(1, ends[bisect_right(b_values, 2 * p)])

    def first(lo: int, hi: int, fails) -> int:
        """The least x in [lo, hi] with fails(x), where the failing x are a suffix."""
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fails(mid) else (mid + 1, hi)
        return lo

    p = first(end - count + 1, end, lambda p: f(p, q_star(p)) < 0)
    q = first(1, q_star(p), lambda q: f(p, q) < 0)
    return Violation((p, q), f(p, q) + 2 * p * q, 2 * p * q)


def bipartite_pairs_pass(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Verdict of the bipartite check for every pair of rows at once:
    entry (i, j) is True iff ``(a_rows[i], b_rows[j])`` passes, as
    ``check_bipartite_pair`` returns None for it.  Rows are taken as
    given, one sequence per row, and each temporary holds one entry per
    pair."""
    import numpy as np

    pre_a = np.cumsum(a_rows, axis=1, dtype=np.int64)
    pre_b = np.cumsum(b_rows, axis=1, dtype=np.int64)
    m, n = pre_a.shape[1], pre_b.shape[1]
    twice_q = 2 * np.arange(1, n + 1, dtype=np.int64)
    passes = pre_a[:, -1, None] + pre_b[:, -1] == 2 * m * n
    for p in range(1, m + 1):
        low = (pre_b - p * twice_q).min(axis=1)
        passes &= pre_a[:, p - 1, None] + low >= 0
    return passes
