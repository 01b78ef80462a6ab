"""Realizability criteria for score sequences.

Two checks:

* oriented graphs: a nondecreasing sequence of nonnegative integers is a
  score sequence iff every prefix of length k sums to at least k(k-1),
  with equality for the full sequence.

* oriented bipartite graphs: two nondecreasing sequences a (length m) and
  b (length n) are the score sequences of one graph iff
  sum(a[:p]) + sum(b[:q]) >= 2pq for all 1 <= p <= m, 1 <= q <= n, with
  equality at (p, q) = (m, n).

The bipartite check runs in O(m + n): for fixed p the quantity
sum(b[:q]) - 2pq is convex in q because b is nondecreasing, so its
minimum sits where b[q] crosses 2p, and that crossing point only moves
right as p grows.  Witness extraction for failures stays exact: the
reported violation is the lexicographically first (p, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph_core import ScoreSequencePair, _validate_sequence


@dataclass(frozen=True)
class Violation:
    """First failed constraint: indices, and both sides of the comparison."""

    indices: tuple[int, ...]
    lhs: int
    rhs: int
    equality: bool = False

    def __str__(self) -> str:
        where = ", ".join(str(i) for i in self.indices)
        op = "!=" if self.equality else "<"
        return f"({where}): {self.lhs} {op} {self.rhs}"


@dataclass(frozen=True)
class CriterionVerdict:
    valid: bool
    witness: Violation | None = None


def check_oriented_scores(scores: Sequence[int]) -> CriterionVerdict:
    """Avery-style prefix check for oriented-graph score sequences."""
    vals = tuple(scores)
    _validate_sequence(vals, "scores")
    total = 0
    for k, x in enumerate(vals, start=1):
        total += x
        bound = k * (k - 1)
        if total < bound:
            return CriterionVerdict(False, Violation((k,), total, bound))
    full = len(vals) * (len(vals) - 1)
    if total != full:
        return CriterionVerdict(False, Violation((len(vals),), total, full, equality=True))
    return CriterionVerdict(True)


def check_bipartite_pair(pair: ScoreSequencePair) -> CriterionVerdict:
    """Prefix-sum check for oriented-bipartite score sequence pairs."""
    a, b = pair.a, pair.b
    m, n = len(a), len(b)
    pre_a = _prefix(a)
    pre_b = _prefix(b)

    crossed = 0  # entries of b known to be <= 2p; never decreases
    bad_p = 0
    for p in range(1, m + 1):
        limit = 2 * p
        while crossed < n and b[crossed] <= limit:
            crossed += 1
        q = crossed or 1
        if pre_a[p] + pre_b[q] < 2 * p * q:
            bad_p = p
            break

    if bad_p:
        p = bad_p
        for q in range(1, n + 1):
            lhs = pre_a[p] + pre_b[q]
            rhs = 2 * p * q
            if lhs < rhs:
                return CriterionVerdict(False, Violation((p, q), lhs, rhs))
        raise AssertionError("violation detected but no witness found")

    total = pre_a[m] + pre_b[n]
    if total != 2 * m * n:
        return CriterionVerdict(False, Violation((m, n), total, 2 * m * n, equality=True))
    return CriterionVerdict(True)


def _prefix(seq: Sequence[int]) -> list[int]:
    out = [0]
    for x in seq:
        out.append(out[-1] + x)
    return out
