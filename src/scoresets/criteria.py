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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

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
