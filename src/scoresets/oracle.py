"""Exhaustive ground truth over small oriented bipartite graphs.

Arc assignments of shape (m, n) are numbered 0 .. 3**(m*n) - 1.  The
state of pair (u, v) is the base-3 digit at position u * n + v, with
pair (0, 0) least significant; digit values follow ArcState (0 absent,
1 u->v, 2 v->u).  The numbering is part of the catalog file contract,
so witnesses stay portable.  ``_POWERS`` and ``_digits`` alone implement
it; the oracle's range keeps m * n <= 39, so every index is below
3**39 < 2**63 and fits an int64.

The scores of every graph of shape (m, n) sum to 2mn: each U vertex
starts at n, each V vertex at m, and every arc adds 1 to its tail and
takes 1 from its head.  So a shape can realize a score set S only if
(with spare = m + n - |S|, the vertices beyond one per value)

    spare >= 0,  max S <= 2 * max(m, n),  and
    sum(S) + spare * min(S) <= 2mn <= sum(S) + spare * max(S):

each value of S is some vertex's score, the spare vertices score
between min S and max S, and no score exceeds 2n in U or 2m in V.
``bounded_search`` skips every other shape without scanning it.

A graph with score set S has every U score and every V score in S.
The score of U vertex u depends on row u alone (the digits u * n ..
u * n + n - 1), that of V vertex v on column v alone; call a line kept
if its own score is in S.  The states of the lines of the shorter side,
k pairs each, come from one table of 3**k entries per shape, built once
per process.

Catalogs score only doubly sorted assignments.  Permuting the rows of
a graph permutes its U scores and leaves its V scores as they are, so
its score set and its sorted score pair stay; so does permuting its
columns.  Row u in state r adds r * 3**(n*u) to the index, and column v
with code c adds c * 3**v.  By the rearrangement inequality, sorting
the rows of an assignment, or its columns, into nonincreasing codes
gives an index of the same orbit that is no larger.  So the least index
of an orbit under row and column permutations has both its row codes
and its column codes nonincreasing (the doubly lexical form of Lubiw,
SIAM J. Comput. 16, 1987), and the first witness of every key is among
those assignments.  There are 1,169 at 3x3, 10,020 at 3x4 and 250,841
at 4x4, against 3**16 = 43,046,721 assignments and 1,929,501 row
multisets there.  They are built along the lines of the shorter side,
of at most 6 pairs in the oracle's range, from the most significant
line down: each line's code is at least the one before it, and inside
each run of cross lines still tied its digits do not rise.  Catalogs
and searches alike work on blocks of at most ``_BLOCK // (m + n)``
candidates.  A catalog keeps its keys in ascending order and merges
each block into them, keeping the least index of every key, so the
outcome is independent of the block size.  Every entry point enforces a
budget cap on 3**(m*n) before touching a shape.

``bounded_search`` never scans a shape.  Each admitted shape runs the
catalogs' generator with only kept lines on the shorter side, which
m * n < 40 keeps at 6 pairs or fewer.  That is exact: permuting rows or
columns keeps every line's score, so an orbit made of kept lines stays
made of them, and its least index is doubly sorted.  A row-built shape
(n <= m) stops at its first hit: its most significant row is built
first, and row state r adds r * 3**(n*u) with r < 3**n, so the
lexicographic order of its row states is the index order.  The digits
of columns interleave in the index, so a column-built shape (n > m)
takes the least hit of all its blocks.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

import numpy as np

from .criteria import bipartite_pairs_pass
from .graph_core import _NET, BipartiteOrientedGraph, ScoreSet

DEFAULT_BUDGET = 3**16
# int64 scores per block of candidates (m + n per candidate), in catalogs
# and searches alike, and pairs per block of criterion_equivalence; at
# 256 KiB whatever the shape, no block is large enough to raise glibc's
# malloc thresholds for the rest of the process
_BLOCK = 1 << 15


class BudgetExceededError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


# _BIT[s] is the set-mask bit of score s
_BIT = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))
# _POWERS[k] is the weight of base-3 digit k of an assignment index
_POWERS = 3 ** np.arange(39, dtype=np.int64)


def _digits(index, count: int) -> np.ndarray:
    """Base-3 digits 0 .. count - 1 of each index, on a new last axis."""
    return np.asarray(index, dtype=np.int64)[..., None] // _POWERS[:count] % 3


def _require_range(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"shape ({m}, {n}) has an empty part; both parts need a vertex")
    # every score indexes _BIT, and every digit of an index _POWERS
    if 2 * max(m, n) >= _BIT.size or m * n > _POWERS.size:
        raise ValueError(
            f"shape ({m}, {n}) is out of the oracle's range: scores above 62 "
            "overflow its int64 set masks and m*n >= 40 its int64 indices"
        )


def _require_budget(m: int, n: int, budget: int) -> None:
    total = EnumerationSpace(m, n).total  # the space checks the oracle's range first
    if total > budget:
        raise BudgetExceededError(
            f"shape ({m}, {n}) has {total} assignments, budget allows {budget}; "
            "raise the budget to proceed"
        )


@dataclass(frozen=True)
class EnumerationSpace:
    """Index space of all arc assignments for fixed part sizes."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _require_range(self.m, self.n)

    @property
    def total(self) -> int:
        return 3 ** (self.m * self.n)

    def decode(self, index: int) -> BipartiteOrientedGraph:
        index = operator.index(index)
        if not 0 <= index < self.total:
            raise ValueError(f"index {index} outside [0, {self.total})")
        states = _digits(index, self.m * self.n).reshape(self.m, self.n)
        return BipartiteOrientedGraph.from_states(states)

    def encode(self, graph: BipartiteOrientedGraph) -> int:
        if (graph.m, graph.n) != (self.m, self.n):
            raise ValueError("graph shape does not match this space")
        # the row-major states are the base-3 digits, least significant first
        return int(graph.states.ravel() @ _POWERS[: self.m * self.n])


def _set_masks(u_scores: np.ndarray, v_scores: np.ndarray) -> np.ndarray:
    """Set mask of each candidate, from its U scores and V scores."""
    return np.bitwise_or.reduce(_BIT[np.concatenate([u_scores, v_scores], axis=1)], axis=1)


def _first_by_lines(m: int, n: int, target: int) -> int | None:
    """Least index of shape (m, n) whose set mask is ``target``, or None:
    the least hit among ``_candidates`` with kept lines.  Blocks of a
    row-built shape (n <= m) ascend in index, so its first hit is the
    answer; those of a column-built shape do not, so all its blocks are
    searched (see the module docstring)."""
    hits = (index[_set_masks(u, v) == target] for index, u, v in _candidates(m, n, target))
    if n <= m:
        return next((int(block[0]) for block in hits if block.size), None)
    return min((int(block.min()) for block in hits if block.size), default=None)


def _mask_of(values: Iterable[int]) -> int:
    return sum(1 << v for v in values)


def _values_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Witness:
    """Shape plus assignment index pinning one realizing graph."""

    m: int
    n: int
    index: int

    def graph(self) -> BipartiteOrientedGraph:
        return EnumerationSpace(self.m, self.n).decode(self.index)


PairKey = tuple[tuple[int, ...], tuple[int, ...]]


def _record_line(kind: str, key, witness: Witness) -> str:
    """One catalog record as compact JSON; the index is a string."""
    sides = [key] if kind == "set" else key
    key_doc = ",".join(f"[{','.join(map(str, side))}]" for side in sides)
    if kind != "set":
        key_doc = f"[{key_doc}]"
    return (
        f'{{"kind":"{kind}","key":{key_doc},"m":{witness.m},"n":{witness.n},'
        f'"index":"{witness.index}"}}'
    )


@dataclass
class RealizabilityCatalog:
    """Every realizable score set / sequence pair within shape bounds,
    each mapped to its first witness in (m, n, index) order."""

    sets: dict[tuple[int, ...], Witness] = field(default_factory=dict)
    pairs: dict[PairKey, Witness] = field(default_factory=dict)

    def to_jsonl(self) -> str:
        """Set records, then pair records, keys sorted lexicographically."""
        return "".join(
            _record_line(kind, key, table[key]) + "\n"
            for kind, table in (("set", self.sets), ("pair", self.pairs))
            for key in sorted(table)
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "RealizabilityCatalog":
        """Parse catalog records.  Every witness is decoded and must
        reproduce its record exactly; raises ValueError on any defect."""
        catalog = cls()
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                kind, m, n, index = rec["kind"], rec["m"], rec["n"], int(rec["index"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"catalog line {number} is malformed: {exc}") from None
            if kind not in ("set", "pair"):
                raise ValueError(f"catalog line {number}: unknown record kind: {kind!r}")
            if type(m) is not int or type(n) is not int:
                raise ValueError(f"catalog line {number}: 'm' and 'n' must be integers")
            witness = Witness(m, n, index)
            try:
                graph = witness.graph()  # checks the shape and the index range
            except ValueError as exc:
                raise ValueError(f"catalog line {number}: {exc}") from None
            if kind == "set":
                key, table = graph.score_set().values, catalog.sets
            else:
                pair = graph.score_sequences()
                key, table = (pair.a, pair.b), catalog.pairs
            # compared as JSON so that true/1 and 1.0/1 do not pass for each other
            expected = json.loads(_record_line(kind, key, witness))
            if json.dumps(rec, sort_keys=True) != json.dumps(expected, sort_keys=True):
                raise ValueError(f"catalog line {number}: the witness does not reproduce {line}")
            if key in table:
                raise ValueError(f"catalog line {number}: {kind} key {rec['key']} is listed twice")
            table[key] = witness
        return catalog


def _least_per_key(
    keys: np.ndarray, index: np.ndarray, merged: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key once with its least index, keys ascending, over
    one block and the ``merged`` keys and indices of the blocks before it,
    themselves ascending: a stable sort finds them as one sorted run."""
    if merged is not None:
        keys, index = np.concatenate([merged[0], keys]), np.concatenate([merged[1], index])
    order = np.argsort(keys, kind="stable")
    keys, index = keys[order], index[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], np.minimum.reduceat(index, starts)


def _steps(allowed: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, ...]:
    """The steps of ``_doubly_sorted``.  A built line is known by its
    key t * 3**length + c: its state c and the tie pattern t after it.
    Returns the allowed states of every pattern, ascending and pattern
    after pattern, with the key each leaves; and by key, the position
    of the first allowed state >= c under t and the number of them."""
    through = allowed.cumsum().reshape(allowed.shape)
    start = through - allowed
    states = np.nonzero(allowed)[1]
    keys = after[allowed] * allowed.shape[1] + states
    return states, keys, start.ravel(), (through[:, -1:] - start).ravel()


def _doubly_sorted(
    count: int, steps: tuple[np.ndarray, ...], limit: int, lines: np.ndarray, keys: np.ndarray
) -> Iterator[np.ndarray]:
    """Extend each row of ``lines`` (line states, least significant
    first), whose least line left the key ``keys``, by less significant
    lines, each no less than the one before it, up to ``count`` lines;
    in blocks of at most ``limit`` rows."""
    states, after, start, size = steps
    # take, not fancy indexing: faster on small arrays, and it copies
    # whole rows at once
    sizes = size.take(keys)
    ends = sizes.cumsum()
    shift = start.take(keys) - ends + sizes
    total = int(ends[-1])
    for lo in range(0, total, limit):
        pos = np.arange(lo, min(lo + limit, total))
        parent = ends.searchsorted(pos, side="right")
        pos += shift.take(parent)
        grown = np.concatenate([states.take(pos)[:, None], lines.take(parent, axis=0)], axis=1)
        if grown.shape[1] == count:
            del parent, pos  # not held while the caller scores the block
            yield grown
        else:
            yield from _doubly_sorted(count, steps, limit, grown, after.take(pos))


@functools.cache
def _shape_lines(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The lines of the shorter side of shape (m, n), all read-only:
    each state's own score and weights, then ``allowed``, ``after`` and
    their ``_steps``.  Digit k of state s is the state of its pair with
    cross line k.  weights[k, s] is what line k in state s adds: its
    share of the index, then its share of each cross line's score (the
    score of a cross line is the count of lines minus their nets, the
    count added by line 0).  Tie pattern t (``length - 1`` bits) has bit
    k set once cross lines k and k + 1 are strictly ordered by the lines
    built so far; state s is allowed[t, s] if its digits do not rise
    inside a run of tied cross lines, and it leaves the pattern
    after[t, s]."""
    count, length = max(m, n), min(m, n)
    digits = _digits(np.arange(3**length), length)
    # a row's net with each pair: +1 (u->v), -1 (v->u) or 0 (absent)
    nets = _NET[digits]
    scores = length + nets.sum(axis=1, dtype=np.int64)
    # row u weighs 3**(n*u) in the index, column v 3**v
    row_powers = _POWERS[: n * m : n]
    if n <= m:
        codes, scale = np.arange(scores.size), row_powers
    else:
        # a column's nets are a row's negated, and its score 2 * length less
        codes, scale = digits @ row_powers, _POWERS[:n]
        scores, nets = 2 * length - scores, -nets
    weights = np.empty((count, scores.size, length + 1), dtype=np.int64)
    weights[..., 0] = scale[:, None] * codes
    weights[..., 1:] = -nets
    weights[0, :, 1:] += count
    bits = 1 << np.arange(length - 1)
    rises = (digits[:, :-1] < digits[:, 1:]) @ bits
    falls = (digits[:, :-1] > digits[:, 1:]) @ bits
    ties = np.arange(1 << (length - 1))[:, None]
    allowed, after = (rises & ~ties) == 0, ties | falls
    tables = (scores, weights, allowed, after, *_steps(allowed, after))
    for table in tables:
        table.setflags(write=False)
    return tables


def _candidates(m: int, n: int, target: int = -1) -> Iterator[tuple[np.ndarray, ...]]:
    """Index, U scores and V scores of every doubly sorted assignment
    of shape (m, n), rows and columns nonincreasing, whose lines of the
    shorter side are kept (own score in ``target``; -1 keeps all), in
    blocks whose int64 scores take at most ``_BLOCK`` entries.  Lines
    are built from the most significant down, each no less than the one
    before it, with the tie patterns of ``_shape_lines``: one table per
    shape, built once per process."""
    count = max(m, n)
    scores, weights, allowed, after, *steps = _shape_lines(m, n)
    if target != -1:
        steps = _steps(allowed & (target >> scores & 1).astype(bool), after)
    # before the first line every cross line is tied and any state is >= 0
    root = np.zeros((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for lines in _doubly_sorted(count, steps, max(1, _BLOCK // (m + n)), *root):
        sums = weights[0].take(lines[:, 0], axis=0)
        for k in range(1, count):
            sums += weights[k].take(lines[:, k], axis=0)
        own = scores.take(lines)
        yield (sums[:, 0], own, sums[:, 1:]) if n <= m else (sums[:, 0], sums[:, 1:], own)


def catalog_for_shape(
    m: int,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    sets: bool = True,
    pairs: bool = True,
) -> RealizabilityCatalog:
    """Catalog of the score sets and/or sequence pairs attained at one
    shape, each with the least index that attains it, keys in ascending
    order of that index.

    Only doubly sorted assignments, whose rows and columns are both
    nonincreasing, are scored: by the rearrangement inequality they hold
    the least index of every key (see the module docstring).  They are
    scored in the blocks of ``_candidates``, each merged into the keys so
    far in key order; one sort by least index gives the output order.
    """
    if not (sets or pairs):
        raise ValueError("a catalog needs sets=True or pairs=True")
    _require_budget(m, n, budget)
    # pair keys: sorted U scores in [0, 2n], then sorted V scores in [0, 2m]
    radices = [2 * n + 1] * m + [2 * m + 1] * n
    set_keys = pair_keys = None
    for index, u_scores, v_scores in _candidates(m, n):
        if sets:
            set_keys = _least_per_key(_set_masks(u_scores, v_scores), index, set_keys)
        if pairs:
            rows = np.concatenate([np.sort(u_scores, axis=1), np.sort(v_scores, axis=1)], axis=1)
            codes = np.ravel_multi_index(rows.T, radices)
            pair_keys = _least_per_key(codes, index, pair_keys)
    catalog = RealizabilityCatalog()
    if sets:
        masks, first = set_keys
        order = np.argsort(first)
        for mask_val, least in zip(masks[order].tolist(), first[order].tolist()):
            catalog.sets[_values_of(mask_val)] = Witness(m, n, least)
    if pairs:
        codes, first = pair_keys
        order = np.argsort(first)
        rows = np.stack(np.unravel_index(codes[order], radices), axis=1)
        for row, least in zip(rows.tolist(), first[order].tolist()):
            catalog.pairs[(tuple(row[:m]), tuple(row[m:]))] = Witness(m, n, least)
    return catalog


def _shapes(m_max: int, n_max: int, budget: int) -> list[tuple[int, int]]:
    """Every shape within the bounds, m outer, each checked against the
    oracle's range and the budget before any scan starts."""
    if m_max < 1 or n_max < 1:
        raise ValueError("bounds must be at least 1")
    shapes = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            _require_budget(m, n, budget)
            shapes.append((m, n))
    return shapes


def realizable_sets_up_to(
    m_max: int,
    n_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> RealizabilityCatalog:
    """Merge per-shape catalogs over all shapes within the bounds."""
    catalog = RealizabilityCatalog()
    for m, n in _shapes(m_max, n_max, budget):
        shape_catalog = catalog_for_shape(m, n, budget=budget)
        for key, witness in shape_catalog.sets.items():
            catalog.sets.setdefault(key, witness)
        for pair_key, witness in shape_catalog.pairs.items():
            catalog.pairs.setdefault(pair_key, witness)
    return catalog


def _shape_admits(values: tuple[int, ...], m: int, n: int) -> bool:
    """The module's necessary condition for shape (m, n) to realize the
    sorted values."""
    spare = m + n - len(values)
    total = sum(values)
    return (
        spare >= 0
        and values[-1] <= 2 * max(m, n)
        and total + spare * values[0] <= 2 * m * n <= total + spare * values[-1]
    )


def bounded_search(
    score_set: ScoreSet,
    m_max: int,
    n_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> BipartiteOrientedGraph | None:
    """First graph within the shape bounds whose score set equals the
    target, or None after exhausting every shape.

    The witness is scored again before it is returned.  A None answer
    certifies non-existence only within the bounds.
    Shapes that provably cannot work are skipped without a scan: those
    with fewer vertices than the target has values, those where the
    target's maximum exceeds every attainable score, and those whose
    score total 2mn no graph with the target's values can reach (the
    bound in the module docstring).  The others are searched without a
    scan, over the doubly sorted assignments made of kept lines.
    """
    values = tuple(score_set)
    for m, n in _shapes(m_max, n_max, budget):
        if not _shape_admits(values, m, n):
            continue
        # an admitted shape bounds every value by 2 * max(m, n) <= 62
        index = _first_by_lines(m, n, _mask_of(values))
        if index is not None:
            witness = EnumerationSpace(m, n).decode(index)
            if witness.score_set() != score_set:
                raise RuntimeError(
                    f"the {m}x{n} witness scores {witness.score_set()}, not {score_set}"
                )
            return witness
    return None


@dataclass
class EquivalenceReport:
    """Outcome of testing the sequence-pair criterion at one shape: the
    counterexamples, the candidate pairs checked and how many passed."""

    m: int
    n: int
    counterexamples: list[tuple[str, tuple[int, ...], tuple[int, ...]]]
    candidates: int = 0
    passing: int = 0

    @property
    def necessity_ok(self) -> bool:
        return all(kind != "necessity" for kind, _, _ in self.counterexamples)

    @property
    def sufficiency_ok(self) -> bool:
        return all(kind != "sufficiency" for kind, _, _ in self.counterexamples)


def criterion_equivalence(
    m: int,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> EquivalenceReport:
    """Test both directions of the sequence-pair criterion at one shape.

    Necessity: every enumerated graph's sequence pair passes the check.
    Sufficiency: every nondecreasing candidate pair with entries in
    [0, 2n] x [0, 2m] that passes the check is attained by some graph.

    The check is batched: ``bipartite_pairs_pass`` decides blocks of a
    candidates against every b candidate, each block at most ``_BLOCK``
    pairs (no shape in the oracle's range has more b candidates than
    that), so no temporary grows with the budget.
    """
    realized = set(catalog_for_shape(m, n, budget=budget, sets=False).pairs)
    a_keys = list(combinations_with_replacement(range(2 * n + 1), m))
    b_keys = list(combinations_with_replacement(range(2 * m + 1), n))
    a_rows, b_rows = np.array(a_keys, dtype=np.int64), np.array(b_keys, dtype=np.int64)
    step = _BLOCK // len(b_keys)
    passing = set()
    for lo in range(0, len(a_keys), step):
        rows, cols = np.nonzero(bipartite_pairs_pass(a_rows[lo : lo + step], b_rows))
        passing.update((a_keys[lo + i], b_keys[j]) for i, j in zip(rows.tolist(), cols.tolist()))
    return EquivalenceReport(
        m,
        n,
        [("necessity", a, b) for a, b in sorted(realized - passing)]
        + [("sufficiency", a, b) for a, b in sorted(passing - realized)],
        candidates=len(a_keys) * len(b_keys),
        passing=len(passing),
    )
