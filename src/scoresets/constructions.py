"""Builders that realize prescribed score sets.

Every construction is a block layout, and a Realization is that layout.
``build(Family(name, params))`` is the one way to get one, and it
records the family.  ``Block``, ``Family`` and ``Realization`` are
immutable named tuples; ``_replace`` makes a changed copy.  A builder
lists each part as a sequence of ``Block(label, size, score, rank)``,
the one block type from builder to export.  A block stores no
position: a part's blocks lie in order from vertex 0, and ``spans``
derives each one's ``(label, start, stop)``.  Of two ranked blocks,
every vertex of the higher-ranked one has an arc to every vertex of the
other; equal ranks, and blocks of rank ``None``, meet no arc.  Only the
singleton's cycle X1 > Y1 > X2 > Y2 > X1, which the doubleton reuses,
has no rank order; its arcs are ``cells``:
``{(u_block, v_block): state}`` by block index, each replacing the rank
state of its block pair.  Partial dominations are separate blocks
(``X1_dominated`` / ``X1_rest``, ``Y0_dominated`` / ``Y0_rest``) placed
first in their part, so only the lowest-indexed slice is dominated.
``build`` verifies every layout before returning it, at any size.
``_block_scores`` is the one layout scorer: a block's score is its
opposite part's size plus the vertices of lower-ranked opposing blocks
minus those of higher-ranked ones (one sorted sweep per part), corrected
for each cell.  ``verify`` runs the sequence criterion
(``check_bipartite_runs``) over one (score, size) run per nonempty
block, sorted but not merged: blocks of one score become consecutive
runs of one value.  The audit costs O(blocks log blocks).
``Realization.graph`` is the one place that expands a layout: it
refuses layouts of more than ``2**28`` pairs (the dense limit) first,
then builds a new graph on every access and checks its scores against
the block scores; no graph changes after it is built.  ``texts`` builds
that graph before it hands out the first piece of an export.

Covered families: singletons {a}, doubletons {a1, a2}, triples
{a1, a2, a3}, geometric progressions {a * d**i} with integer ratio
d >= 2, and arithmetic progressions {a + i * d}.  Whether every other
finite set of positive integers is realizable is open; ``classify``
raises UnsupportedScoreSetError for such inputs instead of guessing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate
from typing import Iterator, Sequence

from .criteria import check_bipartite_runs
from .graph_core import _NET, ArcState, BipartiteOrientedGraph, ScoreSet
from .graph_core import _require_dense

U_TO_V, V_TO_U = ArcState.U_TO_V, ArcState.V_TO_U


class Block(namedtuple("Block", "label size score rank")):
    """``size`` vertices of one part, each expected to score ``score``.
    Every vertex of a block beats every vertex of each opposing block of
    lower ``rank``; ``None`` ranks below and above nothing.  A negative
    size is refused, but not by ``_replace``, which skips ``__new__``:
    it is used only to change a score."""

    __slots__ = ()
    label: str
    size: int
    score: int
    rank: int | None

    def __new__(cls, label: str, size: int, score: int, rank: int | None = None) -> "Block":
        if size < 0:
            raise ValueError(f"block {label} has negative size {size}")
        return super().__new__(cls, label, size, score, rank)


# requested values, U blocks, V blocks, cells outside the rank rule
Layout = tuple[tuple[int, ...], list[Block], list[Block], dict[tuple[int, int], ArcState]]


class UnsupportedScoreSetError(ValueError):
    """No known construction covers the requested score set."""


class RealizationError(RuntimeError):
    """A constructed graph failed its self-audit; indicates a builder bug."""


class Family(namedtuple("Family", "name params")):
    """A construction family name and the arguments of its builder."""

    __slots__ = ()
    name: str
    params: tuple[int, ...]


class Realization(namedtuple("Realization", "u_blocks v_blocks cells requested family")):
    """A block layout, the requested score set, and the family ``build``
    dispatched on.  The blocks carry their ranks; ``cells`` pairs a
    (U block, V block) index pair with the ArcState that replaces its
    rank state, as a tuple, which unlike a dict keeps the value hashable."""

    __slots__ = ()
    u_blocks: tuple[Block, ...]
    v_blocks: tuple[Block, ...]
    cells: tuple[tuple[tuple[int, int], ArcState], ...]
    requested: ScoreSet
    family: Family

    @property
    def m(self) -> int:
        return sum(b.size for b in self.u_blocks)

    @property
    def n(self) -> int:
        return sum(b.size for b in self.v_blocks)

    def _block_scores(self) -> tuple[list[int], list[int]]:
        """The score of each U block and each V block, which ``verify`` and
        ``graph`` both check: from the ranks, then corrected for each cell
        by its net arc less the rank's."""
        u = _rank_scores(self.u_blocks, self.v_blocks)
        v = _rank_scores(self.v_blocks, self.u_blocks)
        for (i, j), state in self.cells:
            x, y = self.u_blocks[i], self.v_blocks[j]
            by_rank = 0 if None in (x.rank, y.rank) else (x.rank > y.rank) - (x.rank < y.rank)
            net = _NET[state] - by_rank
            u[i] += net * y.size
            v[j] -= net * x.size
        return u, v

    def verify(self) -> None:
        """Recompute every promise from the block scores; raise
        RealizationError on mismatch.  No per-vertex score is expanded."""
        runs = []  # per part: one (score, size) run per nonempty block
        for part, blocks, got in zip("UV", (self.u_blocks, self.v_blocks), self._block_scores()):
            for blk, score in zip(blocks, got):
                if blk.size and score != blk.score:
                    raise RealizationError(
                        f"{part} block {blk.label} scores {score}, expected {blk.score}"
                    )
            runs.append(sorted((score, blk.size) for blk, score in zip(blocks, got) if blk.size))
        got_set = ScoreSet.from_values(score for part in runs for score, _ in part)
        if got_set != self.requested:
            raise RealizationError(f"score set is {got_set}, requested {self.requested}")
        violation = check_bipartite_runs(*runs)
        if violation is not None:
            raise RealizationError(
                f"constructed graph fails the sequence criterion: {violation.describe(('p', 'q'))}"
            )

    @property
    def graph(self) -> BipartiteOrientedGraph:
        """A new dense graph, built on each access and re-scored against the
        layout; raises ValueError before allocating past the dense limit."""
        import numpy as np

        _require_dense(self.m, self.n)
        # a rank of None becomes NaN, which compares neither above nor below
        u_rank = np.array([b.rank for b in self.u_blocks], dtype=float)[:, None]
        v_rank = np.array([b.rank for b in self.v_blocks], dtype=float)
        grid = np.zeros((len(self.u_blocks), len(self.v_blocks)), dtype=np.uint8)
        grid[u_rank > v_rank] = U_TO_V
        grid[u_rank < v_rank] = V_TO_U
        for cell, state in self.cells:
            grid[cell] = state
        u_size = [b.size for b in self.u_blocks]
        v_size = [b.size for b in self.v_blocks]
        rows = np.repeat(grid, u_size, axis=0)  # one per U vertex
        g = BipartiteOrientedGraph.from_states(np.repeat(rows, v_size, axis=1))
        u, v = self._block_scores()
        if g.scores() != (np.repeat(u, u_size).tolist(), np.repeat(v, v_size).tolist()):
            raise RealizationError("the dense graph does not score as its layout")
        return g

    def texts(self, fmt: str) -> Iterator[str]:
        """The ``"json"`` or ``"dot"`` document of ``graph`` in pieces, with
        the block spans; the graph is built and re-scored before this returns."""
        graph = self.graph
        export = graph.json_texts if fmt == "json" else graph.dot_texts
        return export(blocks=(spans(self.u_blocks), spans(self.v_blocks)))

    def to_json(self) -> str:
        return "".join(self.texts("json"))

    def to_dot(self) -> str:
        return "".join(self.texts("dot"))


def spans(blocks: Sequence[Block]) -> list[tuple[str, int, int]]:
    """The ``(label, start, stop)`` of each block of a part, its vertex
    range ``[start, stop)``: the blocks lie in order from vertex 0."""
    stops = accumulate(b.size for b in blocks)
    return [(b.label, stop - b.size, stop) for b, stop in zip(blocks, stops)]


def _rank_scores(blocks: tuple[Block, ...], opposing: tuple[Block, ...]) -> list[int]:
    """Each block's score from the ranks alone: the opposing part's size,
    plus the vertices of lower-ranked opposing blocks, minus those of
    higher-ranked ones."""
    ranked = sorted((b.rank, b.size) for b in opposing if b.rank is not None)
    ranks = [rank for rank, _ in ranked]
    below = list(accumulate((size for _, size in ranked), initial=0))  # of the k lowest
    part, top = sum(b.size for b in opposing), below[-1]
    return [
        part
        if b.rank is None
        else part + below[bisect_left(ranks, b.rank)] - top + below[bisect_right(ranks, b.rank)]
        for b in blocks
    ]


def _singleton(a: int) -> Layout:
    """{a} on parts of size a each.

    Both parts split into two blocks of size floor(a/2); each X block
    beats its matching Y block and loses to the other one, so every
    score is a.  That cycle has no rank order, so it is given as cells.
    Odd a adds one isolated vertex per part.
    """
    if a < 1:
        raise ValueError("singleton score must be positive; {0} is not realizable")
    half, odd = divmod(a, 2)
    u = [Block("X1", half, a), Block("X2", half, a)] + [Block("x", 1, a)] * odd
    v = [Block("Y1", half, a), Block("Y2", half, a)] + [Block("y", 1, a)] * odd
    cells = {(0, 0): U_TO_V, (1, 1): U_TO_V, (1, 0): V_TO_U, (0, 1): V_TO_U}
    return (a,), u, v, cells


def _doubleton(a1: int, a2: int) -> Layout:
    """{a1, a2}: the {a1} layout plus a2 - a1 isolated U-vertices.

    The extra vertices leave U-scores at a1 and lift every V-score to a2.
    """
    if a1 < 1:
        raise ValueError("doubleton values must be positive")
    if a2 <= a1:
        raise ValueError(f"need a1 < a2, got {a1} >= {a2}")
    _, u, v, cells = _singleton(a1)
    u.append(Block("X", a2 - a1, a1))
    return (a1, a2), u, [b._replace(score=a2) for b in v], cells


def _triple(a1: int, a2: int, a3: int) -> Layout:
    """{a1, a2, a3} with a1 < a2 < a3, branching on a3 > 2*a2.

    Wide spread (a3 > 2*a2): blocks X1, X2 / Y1, Y2 of sizes a2,
    a3 - 2*a2, a1, a3 - 2*a1; X2 beats Y1 and Y2 beats X1.  Narrow
    spread: a single U block of size a2 whose lowest a3 - a2 vertices
    are beaten by every vertex of Y2.
    """
    if a1 < 1:
        raise ValueError("triple values must be positive")
    if not a1 < a2 < a3:
        raise ValueError(f"need a1 < a2 < a3, got {(a1, a2, a3)}")
    if a3 > 2 * a2:
        u = [Block("X1", a2, a1, 1), Block("X2", a3 - 2 * a2, a3, 2)]
        v = [Block("Y1", a1, a2, 1), Block("Y2", a3 - 2 * a1, a3, 2)]
    else:
        beaten = a3 - a2  # >= 1 and <= a2 because a2 < a3 <= 2*a2
        u = [Block("X1_dominated", beaten, a1, 1), Block("X1_rest", a2 - beaten, a2)]
        v = [Block("Y1", a1, a2), Block("Y2", a2 - a1, a3, 2)]
    return (a1, a2, a3), u, v, {}


def _geometric(a: int, d: int, n: int) -> Layout:
    """{a, a*d, ..., a*d**n} for integer ratio d >= 2.  n <= 1 needs no
    arc: one block a part, a x a for {a} and a*d x a for {a, a*d}."""
    if a < 1:
        raise ValueError("leading value must be positive")
    if d < 2:
        raise ValueError("ratio must be at least 2")
    if n < 0:
        raise ValueError("term count must be nonnegative")
    if n <= 1:
        return (a, a * d)[: n + 1], [Block("X0", a * d**n, a)], [Block("Y0", a, a * d**n)], {}
    if d == 2:
        return _geometric_ratio2(a, n)
    return _geometric_layered(a, d, n)


def _geometric_layered(a: int, d: int, n: int) -> Layout:
    """Ratio d >= 3: a two-block base realizing {a, a*d}, then one new
    dominating layer per extra term.

    Layer e has rank e, so it beats everything older on the opposite
    side: old scores are unchanged (the layer adds equally to the other
    part's size and to indegrees) and the layer itself scores a * d**e.
    """
    u = [Block("X1", a, a, 0), Block("X2", a * d - 2 * a, a * d, 1)]
    v = [Block("Y1", a, a, 0), Block("Y2", a * d - 2 * a, a * d, 1)]
    part = a * d - a  # current size of each part
    for e in range(2, n + 1):
        target = a * d**e
        size = target - 2 * part
        u.append(Block(f"X_layer{e}", size, target, e))
        v.append(Block(f"Y_layer{e}", size, target, e))
        part = target - part
    return tuple(a * d**i for i in range(n + 1)), u, v, {}


def _geometric_ratio2(a: int, n: int) -> Layout:
    """Ratio 2, n >= 2: blocks indexed 0..n with index 2 absent from U
    and index 1 absent from V; a block's rank is its index.

    Block sizes: indices 0, 1, 2 have size a; for i >= 3 the size is
    2**i * a minus twice the total size of the lower U-side blocks.
    Every vertex of block i scores 2**i * a.
    """
    size = {0: a, 1: a, 2: a}
    acc = size[0] + size[1]  # lower U-side sizes (index 2 excluded)
    for i in range(3, n + 1):
        size[i] = 2**i * a - 2 * acc
        acc += size[i]
    u = [Block(f"X{i}", size[i], 2**i * a, i) for i in (0, 1, *range(3, n + 1))]
    v = [Block(f"Y{j}", size[j], 2**j * a, j) for j in (0, 2, *range(3, n + 1))]
    return tuple(a * 2**i for i in range(n + 1)), u, v, {}


def _arithmetic(a: int, d: int, n: int) -> Layout:
    """{a, a+d, ..., a+n*d} for positive difference d."""
    if a < 1:
        raise ValueError("leading value must be positive")
    if d < 1:
        raise ValueError("difference must be positive")
    if n < 0:
        raise ValueError("term count must be nonnegative")
    if d > a or n == 0:
        return _arithmetic_wide(a, d, n)
    if d == a:
        return _arithmetic_equal(a, n)
    return _arithmetic_narrow(a, d, n)


def _arithmetic_wide(a: int, d: int, n: int) -> Layout:
    """d > a, or n == 0 for any d (no arc): blocks 0..n on both parts,
    sizes alternating a and d - a; a block's rank is its index.  Block i
    scores a + i*d."""
    width = [a if i % 2 == 0 else d - a for i in range(n + 1)]
    u = [Block(f"X{i}", width[i], a + i * d, i) for i in range(n + 1)]
    v = [Block(f"Y{i}", width[i], a + i * d, i) for i in range(n + 1)]
    return tuple(a + i * d for i in range(n + 1)), u, v, {}


def _arithmetic_equal(a: int, n: int) -> Layout:
    """d == a, n >= 1, so the target is {a, 2a, ..., (n+1)a}.

    U holds block 0 plus the odd-indexed blocks up to 2k-1, V holds the
    even-indexed blocks (up to 2k-2 for odd n, 2k for even n), all of
    size a.  A block's rank is its index, except that block X0 is
    unranked and meets no arc; X0 scores k*a for odd n and (k+1)*a for
    even n, every other block with index i scores (i+1)*a.
    """
    k = (n + 1) // 2
    x0_score = k * a if n % 2 else (k + 1) * a
    odd, even = range(1, 2 * k, 2), range(0, n + 1, 2)
    u = [Block("X0", a, x0_score)] + [Block(f"X{i}", a, (i + 1) * a, i) for i in odd]
    v = [Block(f"Y{j}", a, (j + 1) * a, j) for j in even]
    return tuple(a * (i + 1) for i in range(n + 1)), u, v, {}


def _arithmetic_narrow(a: int, d: int, n: int) -> Layout:
    """d < a, n >= 1.  U holds block 0 (size a) plus odd-indexed blocks
    of size d; V holds block 0 (size a) plus even-indexed blocks of
    size d up to 2k where k = n // 2.

    Ranks: X_i and Y_j rank by index, the lowest d vertices of Y0 rank
    1, and X0 and the rest of Y0 are unranked.  So X_i beats Y_j for
    i > j > 1, every X_i with odd i >= 3 beats that slice of Y0, and
    Y_j beats X_i for j > i > 0.  That leaves X0 untouched at
    score a + k*d, X1 at a, X_i at a + i*d, the beaten slice of Y0 at
    a + d, the rest of Y0 at a + k*d (even n) or a + (k+1)*d (odd n),
    and Y_j at a + j*d.  For n == 1, X1 ties Y0_dominated: no arc.
    """
    k = n // 2
    odd, even = range(1, n + 1, 2), range(2, n + 1, 2)
    u = [Block("X0", a, a + k * d)]
    u += [Block(f"X{i}", d, a if i == 1 else a + i * d, i) for i in odd]
    y0_rest_score = a + k * d if n % 2 == 0 else a + (k + 1) * d
    v = [Block("Y0_dominated", d, a + d, 1), Block("Y0_rest", a - d, y0_rest_score)]
    v += [Block(f"Y{j}", d, a + j * d, j) for j in even]
    return tuple(a + i * d for i in range(n + 1)), u, v, {}


_BUILDERS = {
    "Singleton": _singleton,
    "Doubleton": _doubleton,
    "Triple": _triple,
    "Geometric": _geometric,
    "Arithmetic": _arithmetic,
}


def classify(score_set: ScoreSet) -> Family:
    """Route a score set to its construction family.

    Small sets win over progression readings: sizes 1..3 classify as
    Singleton / Doubleton / Triple regardless of any progression
    structure.  Larger sets classify as Arithmetic (constant difference)
    before Geometric (constant exact integer ratio).  Any other set,
    and every set containing 0, raises UnsupportedScoreSetError: no
    builder covers it, although some, such as {0, 2}, have small
    witnesses that ``bounded_search`` finds.
    """
    vals = score_set.values
    if vals[0] > 0:
        if len(vals) <= 3:
            return Family(("Singleton", "Doubleton", "Triple")[len(vals) - 1], vals)
        diffs = {vals[i + 1] - vals[i] for i in range(len(vals) - 1)}
        if len(diffs) == 1:
            return Family("Arithmetic", (vals[0], diffs.pop(), len(vals) - 1))
        if all(vals[i + 1] % vals[i] == 0 for i in range(len(vals) - 1)):
            ratios = {vals[i + 1] // vals[i] for i in range(len(vals) - 1)}
            if len(ratios) == 1:
                return Family("Geometric", (vals[0], ratios.pop(), len(vals) - 1))
    raise UnsupportedScoreSetError(
        f"no construction covers {score_set}: "
        "supported are sets of positive integers of size 1-3, arithmetic "
        "progressions and geometric progressions with an integer ratio; "
        "'scoresets search' looks for a witness within given part sizes"
    )


def build(family: Family) -> Realization:
    """Dispatch a classified family to its builder and verify the layout."""
    values, u, v, cells = _BUILDERS[family.name](*family.params)
    result = Realization(tuple(u), tuple(v), tuple(cells.items()), ScoreSet(values), family)
    result.verify()
    return result


def realize(score_set: ScoreSet) -> Realization:
    """Classify and build a realization of ``score_set``; ``build`` verifies it."""
    result = build(classify(score_set))
    if result.requested != score_set:
        raise RealizationError(
            f"builder realized {result.requested}, caller asked for {score_set}"
        )
    return result
