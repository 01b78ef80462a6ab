"""Exhaustive ground truth over small oriented bipartite graphs.

Arc assignments of shape (m, n) are numbered 0 .. 3**(m*n) - 1.  The
state of pair (u, v) is the base-3 digit at position u * n + v, with
pair (0, 0) least significant; digit values follow ArcState (0 absent,
1 u->v, 2 v->u).  The numbering is part of the catalog file contract,
so witnesses stay portable.

Bulk scans work on contiguous index chunks with vectorized scoring;
per-chunk results merge associatively, so the outcome is independent of
the chunk size.  Every entry point enforces a budget cap on 3**(m*n)
before touching a shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

import numpy as np

from .criteria import check_bipartite_pair
from .graph_core import _NET, BipartiteOrientedGraph, ScoreSequencePair, ScoreSet

DEFAULT_BUDGET = 3**16
_CHUNK = 1 << 18


class BudgetExceededError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


def _require_range(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"shape ({m}, {n}) has an empty part; both parts need a vertex")
    # scores index bits of int64 set masks, and assignment indices are int64
    if 2 * max(m, n) > 62 or m * n >= 40:
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
        if not 0 <= index < self.total:
            raise ValueError(f"index {index} outside [0, {self.total})")
        graph = BipartiteOrientedGraph(self.m, self.n)
        buf, rem = graph._arcs, index
        for pos in range(len(buf)):
            rem, buf[pos] = divmod(rem, 3)
        return graph

    def encode(self, graph: BipartiteOrientedGraph) -> int:
        if (graph.m, graph.n) != (self.m, self.n):
            raise ValueError("graph shape does not match this space")
        # the row-major arc buffer holds the base-3 digits, least significant first
        index = 0
        for state in reversed(graph._arcs):
            index = index * 3 + state
        return index


def _chunk_scores(m: int, n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized scores for assignment indices [lo, hi).

    Returns (u_scores, v_scores) of shapes (hi-lo, m) and (hi-lo, n).
    """
    count = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    u_scores = np.full((count, m), n, dtype=np.int16)
    v_scores = np.full((count, n), m, dtype=np.int16)
    for pos in range(m * n):
        digit = (rem % 3).astype(np.intp)
        rem //= 3
        net = _NET[digit]
        u, v = divmod(pos, n)
        u_scores[:, u] += net
        v_scores[:, v] -= net
    return u_scores, v_scores


def _scan(m: int, n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Scores of every assignment of shape (m, n) in ascending index
    order, one chunk of ``_CHUNK`` indices at a time: yields the chunk's
    first index with its U- and V-scores."""
    total = EnumerationSpace(m, n).total
    for lo in range(0, total, _CHUNK):
        yield (lo, *_chunk_scores(m, n, lo, min(lo + _CHUNK, total)))


def _set_masks(u_scores: np.ndarray, v_scores: np.ndarray) -> np.ndarray:
    """Bitmask per assignment: bit s set iff some vertex scores s."""
    mask = np.zeros(u_scores.shape[0], dtype=np.int64)
    one = np.int64(1)
    for scores in (u_scores, v_scores):
        for col in range(scores.shape[1]):
            mask |= one << scores[:, col].astype(np.int64)
    return mask


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


def _record(kind: str, key, witness: Witness) -> dict:
    key_doc = list(key) if kind == "set" else [list(key[0]), list(key[1])]
    return {"kind": kind, "key": key_doc, "m": witness.m, "n": witness.n, "index": str(witness.index)}


@dataclass
class RealizabilityCatalog:
    """Every realizable score set / sequence pair within shape bounds,
    each mapped to its first witness in (m, n, index) order."""

    sets: dict[tuple[int, ...], Witness] = field(default_factory=dict)
    pairs: dict[PairKey, Witness] = field(default_factory=dict)

    def to_jsonl(self) -> str:
        """Set records, then pair records, keys sorted lexicographically."""
        return "".join(
            json.dumps(_record(kind, key, table[key]), separators=(",", ":")) + "\n"
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
            expected = _record(kind, key, witness)
            if json.dumps(rec, sort_keys=True) != json.dumps(expected, sort_keys=True):
                raise ValueError(f"catalog line {number}: the witness does not reproduce {line}")
            if key in table:
                raise ValueError(f"catalog line {number}: {kind} key {rec['key']} is listed twice")
            table[key] = witness
        return catalog


def catalog_for_shape(
    m: int,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    sets: bool = True,
    pairs: bool = True,
) -> RealizabilityCatalog:
    """Catalog of the score sets and/or sequence pairs attained at one shape."""
    if not (sets or pairs):
        raise ValueError("a catalog needs sets=True or pairs=True")
    _require_budget(m, n, budget)
    catalog = RealizabilityCatalog()
    for lo, u_scores, v_scores in _scan(m, n):
        if sets:
            masks = _set_masks(u_scores, v_scores)
            uniq, first = np.unique(masks, return_index=True)
            for mask_val, first_idx in zip(uniq.tolist(), first.tolist()):
                catalog.sets.setdefault(_values_of(mask_val), Witness(m, n, lo + first_idx))
        if pairs:
            rows = np.concatenate([np.sort(u_scores, axis=1), np.sort(v_scores, axis=1)], axis=1)
            uniq_rows, first = np.unique(rows, axis=0, return_index=True)
            for row, first_idx in zip(uniq_rows.tolist(), first.tolist()):
                key = (tuple(row[:m]), tuple(row[m:]))
                catalog.pairs.setdefault(key, Witness(m, n, lo + first_idx))
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
    Shapes that provably cannot work are skipped: a shape is hopeless
    when the target has more values than vertices or its maximum
    exceeds every attainable score.
    """
    values = tuple(score_set)
    target = _mask_of(values)
    for m, n in _shapes(m_max, n_max, budget):
        if len(values) > m + n or values[-1] > max(2 * m, 2 * n):
            continue
        for lo, u_scores, v_scores in _scan(m, n):
            masks = _set_masks(u_scores, v_scores)
            hits = np.nonzero(masks == target)[0]
            if hits.size:
                witness = EnumerationSpace(m, n).decode(lo + int(hits[0]))
                if witness.score_set() != score_set:
                    raise RuntimeError(
                        f"the {m}x{n} witness scores {witness.score_set()}, not {score_set}"
                    )
                return witness
    return None


@dataclass
class EquivalenceReport:
    """Outcome of testing the sequence-pair criterion at one shape."""

    m: int
    n: int
    counterexamples: list[tuple[str, tuple[int, ...], tuple[int, ...]]]

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
    """
    realized = set(catalog_for_shape(m, n, budget=budget, sets=False).pairs)
    passing = {
        (a, b)
        for a in combinations_with_replacement(range(2 * n + 1), m)
        for b in combinations_with_replacement(range(2 * m + 1), n)
        if check_bipartite_pair(ScoreSequencePair(a, b)) is None
    }
    return EquivalenceReport(
        m,
        n,
        [("necessity", a, b) for a, b in sorted(realized - passing)]
        + [("sufficiency", a, b) for a, b in sorted(passing - realized)],
    )
