"""Realizability criteria for score sequences.

Two checks:

* oriented graphs: a nondecreasing sequence of nonnegative integers is a
  score sequence iff every prefix of length k sums to at least k(k-1),
  with equality for the full sequence.

* oriented bipartite graphs: two nondecreasing sequences a (length m) and
  b (length n) are the score sequences of one graph iff
  sum(a[:p]) + sum(b[:q]) >= 2pq for all 1 <= p <= m, 1 <= q <= n, with
  equality at (p, q) = (m, n).

Both return the first failed constraint as a ``Violation``, or ``None``
when the sequences pass.  The bipartite check is one pass in O(m + n):
for fixed p the quantity sum(b[:q]) - 2pq is convex in q because b is
nondecreasing, so its minimum sits where b[q] crosses 2p, and that
crossing point only moves right as p grows.  The first p whose minimum
fails is the first failing row, and its first failing q is found by
scanning that row, so the witness is the lexicographically first (p, q).

``bipartite_pairs_pass`` evaluates the same bipartite statement for
every pair of a block of a rows and a block of b rows at once, without a
witness.  For each b row and each p it takes the minimum over q of
sum(b[:q]) - 2pq once; a pair fails at p iff sum(a[:p]) plus that
minimum is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .graph_core import ScoreSequencePair, _validate_sequence


@dataclass(frozen=True)
class Violation:
    """First failed constraint: indices, and both sides of the comparison."""

    indices: tuple[int, ...]
    lhs: int
    rhs: int
    equality: bool = False

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


def bipartite_pairs_pass(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Verdict of the bipartite check for every pair of rows at once:
    entry (i, j) is True iff ``(a_rows[i], b_rows[j])`` passes, as
    ``check_bipartite_pair`` returns None for it.  Rows are taken as
    given, one sequence per row, and each temporary holds one entry per
    pair."""
    pre_a = np.cumsum(a_rows, axis=1, dtype=np.int64)
    pre_b = np.cumsum(b_rows, axis=1, dtype=np.int64)
    m, n = pre_a.shape[1], pre_b.shape[1]
    twice_q = 2 * np.arange(1, n + 1, dtype=np.int64)
    passes = pre_a[:, -1, None] + pre_b[:, -1] == 2 * m * n
    for p in range(1, m + 1):
        low = (pre_b - p * twice_q).min(axis=1)
        passes &= pre_a[:, p - 1, None] + low >= 0
    return passes
