"""Builders that realize prescribed score sets.

Every construction is a block layout, and a Realization is that layout.
``build(Family(name, params))`` is the one way to get one, and it
records the family.  A builder lists each part as a sequence of
``(label, size, score)`` blocks and names the dominated rectangles:
``{(u_label, v_label): state}`` means every vertex of the U block and
every vertex of the V block are joined by an arc in that direction.
Partial dominations are separate blocks (``X1_dominated`` / ``X1_rest``,
``Y0_dominated`` / ``Y0_rest``) placed first in their part, so only the
lowest-indexed slice is dominated.  ``_assemble`` tiles the blocks and
refuses layouts of more than ``2**28`` pairs, the dense limit, whatever
the output will be.  ``realize`` verifies the layout itself: a block's
score is its part offset plus the size-weighted sum of its rectangles,
so the audit costs O(m + n + rectangles).  ``Realization.graph`` builds
the dense graph on first use and scores it again against the layout.

Covered families: singletons {a}, doubletons {a1, a2}, triples
{a1, a2, a3}, geometric progressions {a * d**i} with integer ratio
d >= 2, and arithmetic progressions {a + i * d}.  Whether every other
finite set of positive integers is realizable is open; ``realize``
refuses such inputs instead of guessing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .criteria import check_bipartite_pair
from .graph_core import ArcState, BipartiteOrientedGraph, Block, ScoreSequencePair, ScoreSet
from .graph_core import _require_dense

U_TO_V, V_TO_U = ArcState.U_TO_V, ArcState.V_TO_U
_NET = (0, 1, -1)  # score change of the U end of a pair, by ArcState

# requested values, U blocks, V blocks, dominated rectangles
Layout = tuple[
    tuple[int, ...],
    list[tuple[str, int, int]],
    list[tuple[str, int, int]],
    dict[tuple[str, str], ArcState],
]


class UnsupportedScoreSetError(ValueError):
    """No known construction covers the requested score set."""


class RealizationError(RuntimeError):
    """A constructed graph failed its self-audit; indicates a builder bug."""


@dataclass(frozen=True)
class Family:
    """A construction family name and the arguments of its builder."""

    name: str
    params: tuple[int, ...]


@dataclass(frozen=True)
class Realization:
    """A block layout (pairs in no listed rectangle have no arc), the requested
    score set, and the family ``build`` dispatched on."""

    u_blocks: tuple[Block, ...]
    v_blocks: tuple[Block, ...]
    rects: dict[tuple[str, str], ArcState]
    requested: ScoreSet
    family: Family

    @property
    def m(self) -> int:
        return self.u_blocks[-1].stop

    @property
    def n(self) -> int:
        return self.v_blocks[-1].stop

    def scores(self) -> tuple[list[int], list[int]]:
        """U- and V-scores in vertex order, from the layout: a block scores
        its part offset plus the size-weighted sum of its rectangles."""
        u_size = {b.label: b.size for b in self.u_blocks}
        v_size = {b.label: b.size for b in self.v_blocks}
        u, v = dict.fromkeys(u_size, self.n), dict.fromkeys(v_size, self.m)
        for (x, y), state in self.rects.items():
            u[x] += _NET[state] * v_size[y]
            v[y] -= _NET[state] * u_size[x]
        return (
            [u[b.label] for b in self.u_blocks for _ in b.indices()],
            [v[b.label] for b in self.v_blocks for _ in b.indices()],
        )

    def verify(self) -> None:
        """Recompute every promise from the layout; raise RealizationError on mismatch."""
        u_scores, v_scores = self.scores()
        for part, blocks, got in (("U", self.u_blocks, u_scores), ("V", self.v_blocks, v_scores)):
            pos = 0
            for blk in blocks:
                if blk.start != pos:
                    raise RealizationError(
                        f"{part} blocks do not tile the part: {blk.label} starts "
                        f"at {blk.start}, expected {pos}"
                    )
                pos = blk.stop
                if blk.size and got[blk.start] != blk.score:
                    raise RealizationError(
                        f"{part} block {blk.label} scores {got[blk.start]}, "
                        f"expected {blk.score}"
                    )
        got_set = ScoreSet.from_values(u_scores + v_scores)
        if got_set != self.requested:
            raise RealizationError(f"score set is {got_set}, requested {self.requested}")
        verdict = check_bipartite_pair(ScoreSequencePair(sorted(u_scores), sorted(v_scores)))
        if not verdict.valid:
            raise RealizationError(
                f"constructed graph fails the sequence criterion at {verdict.witness}"
            )

    @cached_property
    def graph(self) -> BipartiteOrientedGraph:
        """The dense graph, built on first use and re-scored against the layout."""
        n = self.n
        g = BipartiteOrientedGraph(self.m, n)
        rows = {b.label: bytearray(n) for b in self.u_blocks}
        v_at = {b.label: b for b in self.v_blocks}
        for (x, y), state in self.rects.items():
            rows[x][v_at[y].start : v_at[y].stop] = bytes([state]) * v_at[y].size
        for blk in self.u_blocks:  # every vertex of a U block has the same row
            for u in blk.indices():
                g._arcs[u * n : (u + 1) * n] = rows[blk.label]
        if g.scores() != self.scores():
            raise RealizationError("the dense graph does not score as its layout")
        return g

    def to_json(self) -> str:
        return self.graph.to_json(u_blocks=self.u_blocks, v_blocks=self.v_blocks)

    def to_dot(self) -> str:
        return self.graph.to_dot(u_blocks=self.u_blocks, v_blocks=self.v_blocks)


def _tile(part: list[tuple[str, int, int]]) -> tuple[Block, ...]:
    blocks = []
    pos = 0
    for label, size, score in part:
        if size < 0:
            raise AssertionError(f"block {label} would have negative size {size}")
        blocks.append(Block(label, pos, pos + size, score))
        pos += size
    return tuple(blocks)


def _assemble(layout: Layout, family: Family) -> Realization:
    """Tile both parts and wrap the layout, refusing it past the dense limit."""
    values, u, v, rects = layout
    result = Realization(_tile(u), _tile(v), rects, ScoreSet(values), family)
    _require_dense(result.m, result.n)
    return result


def _ladder(u_indices: Sequence[int], v_indices: Sequence[int]) -> dict[tuple[str, str], ArcState]:
    """Rectangles X<i> against Y<j> for i != j: the higher index wins."""
    return {
        (f"X{i}", f"Y{j}"): U_TO_V if i > j else V_TO_U
        for i in u_indices
        for j in v_indices
        if i != j
    }


def _singleton(a: int) -> Layout:
    """{a} on parts of size a each.

    Both parts split into two blocks of size floor(a/2); each X block
    beats its matching Y block and loses to the other one, so every
    score is a.  Odd a adds one isolated vertex per part.
    """
    if a < 1:
        raise ValueError("singleton score must be positive; {0} is not realizable")
    half, odd = divmod(a, 2)
    u = [("X1", half, a), ("X2", half, a)] + [("x", 1, a)] * odd
    v = [("Y1", half, a), ("Y2", half, a)] + [("y", 1, a)] * odd
    rects = {("X1", "Y1"): U_TO_V, ("X2", "Y2"): U_TO_V, ("X2", "Y1"): V_TO_U, ("X1", "Y2"): V_TO_U}
    return (a,), u, v, rects


def _doubleton(a1: int, a2: int) -> Layout:
    """{a1, a2}: the {a1} layout plus a2 - a1 isolated U-vertices.

    The extra vertices leave U-scores at a1 and lift every V-score to a2.
    """
    if a1 < 1:
        raise ValueError("doubleton values must be positive")
    if a2 <= a1:
        raise ValueError(f"need a1 < a2, got {a1} >= {a2}")
    _, u, v, rects = _singleton(a1)
    u.append(("X", a2 - a1, a1))
    return (a1, a2), u, [(label, size, a2) for label, size, _ in v], rects


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
        u = [("X1", a2, a1), ("X2", a3 - 2 * a2, a3)]
        v = [("Y1", a1, a2), ("Y2", a3 - 2 * a1, a3)]
        rects = {("X2", "Y1"): U_TO_V, ("X1", "Y2"): V_TO_U}
    else:
        beaten = a3 - a2  # >= 1 and <= a2 because a2 < a3 <= 2*a2
        u = [("X1_dominated", beaten, a1), ("X1_rest", a2 - beaten, a2)]
        v = [("Y1", a1, a2), ("Y2", a2 - a1, a3)]
        rects = {("X1_dominated", "Y2"): V_TO_U}
    return (a1, a2, a3), u, v, rects


def _geometric(a: int, d: int, n: int) -> Layout:
    """{a, a*d, ..., a*d**n} for integer ratio d >= 2."""
    if a < 1:
        raise ValueError("leading value must be positive")
    if d < 2:
        raise ValueError("ratio must be at least 2")
    if n < 0:
        raise ValueError("term count must be nonnegative")
    if n == 0:
        return _singleton(a)
    if n == 1:
        return _doubleton(a, a * d)
    if d == 2:
        return _geometric_ratio2(a, n)
    return _geometric_layered(a, d, n)


def _geometric_layered(a: int, d: int, n: int) -> Layout:
    """Ratio d >= 3: a two-block base realizing {a, a*d}, then one new
    dominating layer per extra term.

    Each layer beats everything older on the opposite side: old scores
    are unchanged (the layer adds equally to the other part's size and
    to indegrees) and the layer itself scores a * d**e.
    """
    u = [("X1", a, a), ("X2", a * d - 2 * a, a * d)]
    v = [("Y1", a, a), ("Y2", a * d - 2 * a, a * d)]
    rects = {("X2", "Y1"): U_TO_V, ("X1", "Y2"): V_TO_U}
    part = a * d - a  # current size of each part
    for e in range(2, n + 1):
        target = a * d**e
        size = target - 2 * part
        if size <= 0:
            raise AssertionError(f"layer {e} size {size} must be positive for d >= 3")
        x, y = f"X_layer{e}", f"Y_layer{e}"
        rects.update({(x, older): U_TO_V for older, _, _ in v})
        rects.update({(older, y): V_TO_U for older, _, _ in u})
        u.append((x, size, target))
        v.append((y, size, target))
        part = target - part
    return tuple(a * d**i for i in range(n + 1)), u, v, rects


def _geometric_ratio2(a: int, n: int) -> Layout:
    """Ratio 2, n >= 2: blocks indexed 0..n with index 2 absent from U
    and index 1 absent from V; higher block index beats lower.

    Block sizes: indices 0, 1, 2 have size a; for i >= 3 the size is
    2**i * a minus twice the total size of the lower U-side blocks.
    Every vertex of block i scores 2**i * a.
    """
    size = {0: a, 1: a, 2: a}
    acc = size[0] + size[1]  # lower U-side sizes (index 2 excluded)
    for i in range(3, n + 1):
        size[i] = 2**i * a - 2 * acc
        if size[i] <= 0:
            raise AssertionError(f"block {i} size {size[i]} must be positive")
        acc += size[i]
    u_indices = [0, 1, *range(3, n + 1)]
    v_indices = [0, 2, *range(3, n + 1)]
    u = [(f"X{i}", size[i], 2**i * a) for i in u_indices]
    v = [(f"Y{j}", size[j], 2**j * a) for j in v_indices]
    return tuple(a * 2**i for i in range(n + 1)), u, v, _ladder(u_indices, v_indices)


def _arithmetic(a: int, d: int, n: int) -> Layout:
    """{a, a+d, ..., a+n*d} for positive difference d."""
    if a < 1:
        raise ValueError("leading value must be positive")
    if d < 1:
        raise ValueError("difference must be positive")
    if n < 0:
        raise ValueError("term count must be nonnegative")
    if d > a:
        return _arithmetic_wide(a, d, n)
    if d == a:
        return _arithmetic_equal(a, n)
    return _arithmetic_narrow(a, d, n)


def _arithmetic_wide(a: int, d: int, n: int) -> Layout:
    """d > a: blocks 0..n on both parts, sizes alternating a and d - a;
    higher block index beats lower.  Block i scores a + i*d."""
    width = [a if i % 2 == 0 else d - a for i in range(n + 1)]
    u = [(f"X{i}", width[i], a + i * d) for i in range(n + 1)]
    v = [(f"Y{i}", width[i], a + i * d) for i in range(n + 1)]
    return tuple(a + i * d for i in range(n + 1)), u, v, _ladder(range(n + 1), range(n + 1))


def _arithmetic_equal(a: int, n: int) -> Layout:
    """d == a, so the target is {a, 2a, ..., (n+1)a}.

    U holds block 0 plus the odd-indexed blocks up to 2k-1, V holds the
    even-indexed blocks (up to 2k-2 for odd n, 2k for even n), all of
    size a.  Higher index beats lower, except that block X0 is in no
    rectangle; X0 scores k*a for odd n and (k+1)*a for even n, every
    other block with index i scores (i+1)*a.
    """
    if n == 0:
        return _singleton(a)
    k = (n + 1) // 2
    x0_score = k * a if n % 2 else (k + 1) * a
    odd, even = range(1, 2 * k, 2), range(0, n + 1, 2)
    u = [("X0", a, x0_score)] + [(f"X{i}", a, (i + 1) * a) for i in odd]
    v = [(f"Y{j}", a, (j + 1) * a) for j in even]
    return tuple(a * (i + 1) for i in range(n + 1)), u, v, _ladder(odd, even)


def _arithmetic_narrow(a: int, d: int, n: int) -> Layout:
    """d < a, n >= 2.  U holds block 0 (size a) plus odd-indexed blocks
    of size d; V holds block 0 (size a) plus even-indexed blocks of
    size d up to 2k where k = n // 2.

    Dominations: X_i beats Y_j for i > j > 1; every vertex of every
    X_i with odd i >= 3 beats the same lowest-indexed d vertices of
    Y0; Y_j beats X_i for j > i > 0.  That leaves X0 untouched at
    score a + k*d, X1 at a, X_i at a + i*d, the beaten slice of Y0 at
    a + d, the rest of Y0 at a + k*d (even n) or a + (k+1)*d (odd n),
    and Y_j at a + j*d.
    """
    if n == 0:
        return _singleton(a)
    if n == 1:
        return _doubleton(a, a + d)
    k = n // 2
    odd, even = range(1, n + 1, 2), range(2, n + 1, 2)
    u = [("X0", a, a + k * d)] + [(f"X{i}", d, a if i == 1 else a + i * d) for i in odd]
    y0_rest_score = a + k * d if n % 2 == 0 else a + (k + 1) * d
    v = [("Y0_dominated", d, a + d), ("Y0_rest", a - d, y0_rest_score)]
    v += [(f"Y{j}", d, a + j * d) for j in even]
    rects = _ladder(odd, even)
    rects.update({(f"X{i}", "Y0_dominated"): U_TO_V for i in odd if i >= 3})
    return tuple(a + i * d for i in range(n + 1)), u, v, rects


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
    before Geometric (constant exact integer ratio).  Sets containing 0
    are Unsupported: no builder covers them, although some, such as
    {0, 2}, have small witnesses that ``bounded_search`` finds.
    """
    vals = score_set.values
    if not vals:
        raise ValueError("score set is empty")
    if vals[0] == 0:
        return Family("Unsupported", vals)
    if len(vals) <= 3:
        return Family(("Singleton", "Doubleton", "Triple")[len(vals) - 1], vals)
    diffs = {vals[i + 1] - vals[i] for i in range(len(vals) - 1)}
    if len(diffs) == 1:
        return Family("Arithmetic", (vals[0], diffs.pop(), len(vals) - 1))
    if all(vals[i + 1] % vals[i] == 0 for i in range(len(vals) - 1)):
        ratios = {vals[i + 1] // vals[i] for i in range(len(vals) - 1)}
        if len(ratios) == 1:
            return Family("Geometric", (vals[0], ratios.pop(), len(vals) - 1))
    return Family("Unsupported", vals)


def build(family: Family) -> Realization:
    """Dispatch a classified family to its builder."""
    builder = _BUILDERS.get(family.name)
    if builder is None:
        raise UnsupportedScoreSetError(
            f"no construction covers {{{','.join(map(str, family.params))}}}: "
            "supported are sets of positive integers of size 1-3 and geometric "
            "or arithmetic progressions; 'scoresets search' looks for a witness "
            "within given part sizes"
        )
    return _assemble(builder(*family.params), family)


def realize(score_set: ScoreSet) -> Realization:
    """Classify, build, and self-verify a realization of ``score_set``."""
    result = build(classify(score_set))
    result.verify()
    if result.requested != score_set:
        raise RealizationError(
            f"builder realized {result.requested}, caller asked for {score_set}"
        )
    return result
