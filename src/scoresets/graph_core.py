"""Oriented bipartite graphs and their vertex scores.

A graph has parts U (m vertices) and V (n vertices).  Every (u, v) pair
carries exactly one of three states: an arc u->v, an arc v->u, or no arc,
so symmetric arc pairs and loops cannot occur.  The score of u in U is
n + outdegree - indegree; the score of v in V is m + outdegree - indegree.
U-scores lie in [0, 2n] and V-scores in [0, 2m].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Sequence


class ArcState(IntEnum):
    """State of a single (u, v) pair.  Values double as base-3 digits."""

    ABSENT = 0
    U_TO_V = 1
    V_TO_U = 2


@dataclass(frozen=True)
class Block:
    """Contiguous vertex index range [start, stop) within one part.

    ``score`` is the score every vertex of the range is expected to
    attain, or None for annotation-only blocks.
    """

    label: str
    start: int
    stop: int
    score: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"bad block range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def indices(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class ScoreSequencePair:
    """Nondecreasing score sequences of the two parts."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        for name, seq in (("a", self.a), ("b", self.b)):
            if not seq:
                raise ValueError(f"sequence {name!r} must not be empty")
            _validate_sequence(seq, name)


def _validate_sequence(seq: Sequence[int], name: str) -> None:
    if any(x < 0 for x in seq):
        raise ValueError(f"sequence {name!r} has a negative entry: {seq}")
    if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError(f"sequence {name!r} is not nondecreasing: {seq}")


@dataclass(frozen=True)
class ScoreSet:
    """Strictly increasing tuple of distinct nonnegative integers."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if any(x < 0 for x in self.values):
            raise ValueError(f"score set has a negative entry: {self.values}")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError(f"score set values must be strictly increasing: {self.values}")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "ScoreSet":
        """Sort and deduplicate arbitrary values into a score set."""
        return cls(tuple(sorted(set(values))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: object) -> bool:
        return value in self.values

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.values) + "}"


_REVERSE_TABLE = bytes.maketrans(b"\x01\x02", b"\x02\x01")
# one byte per pair: the largest arc buffer a graph may allocate is 256 MiB
_MAX_PAIRS = 2**28


class BipartiteOrientedGraph:
    """Arc-state matrix over parts U (size m) and V (size n).

    States are stored row-major: pair (u, v) lives at offset u * n + v.
    Builders mutate a graph they own via set_arc / set_arcs; every read
    operation treats the value as immutable.
    """

    __slots__ = ("m", "n", "_arcs")

    def __init__(self, m: int, n: int) -> None:
        if m < 1 or n < 1:
            raise ValueError(f"both parts must be nonempty, got m={m}, n={n}")
        if m * n > _MAX_PAIRS:
            raise ValueError(
                f"graph of {m}x{n} has {m * n} pairs, above the dense limit of 2**28"
            )
        self.m = m
        self.n = n
        self._arcs = bytearray(m * n)

    @classmethod
    def _from_raw(cls, m: int, n: int, arcs: bytes | bytearray) -> "BipartiteOrientedGraph":
        g = cls(m, n)
        if len(arcs) != m * n:
            raise ValueError("raw arc buffer has the wrong length")
        g._arcs[:] = arcs
        return g

    def _check_u(self, u: int) -> None:
        if not 0 <= u < self.m:
            raise IndexError(f"u index {u} out of range [0, {self.m})")

    def _check_v(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"v index {v} out of range [0, {self.n})")

    def arc(self, u: int, v: int) -> ArcState:
        self._check_u(u)
        self._check_v(v)
        return ArcState(self._arcs[u * self.n + v])

    def set_arc(self, u: int, v: int, state: ArcState) -> None:
        """Assign the (u, v) pair, overwriting any previous state."""
        self._check_u(u)
        self._check_v(v)
        self._arcs[u * self.n + v] = int(state)

    def set_arcs(self, us: range, vs: range, state: ArcState) -> None:
        """Assign every pair in us x vs.  Both ranges must have step 1."""
        if us.step != 1 or vs.step != 1:
            raise ValueError("set_arcs requires step-1 ranges")
        if len(us) == 0 or len(vs) == 0:
            return
        self._check_u(us[0])
        self._check_u(us[-1])
        self._check_v(vs[0])
        self._check_v(vs[-1])
        fill = bytes([int(state)]) * len(vs)
        n = self.n
        for u in us:
            base = u * n
            self._arcs[base + vs.start : base + vs.stop] = fill

    def reverse(self) -> "BipartiteOrientedGraph":
        """New graph with every arc flipped."""
        return BipartiteOrientedGraph._from_raw(
            self.m, self.n, bytes(self._arcs).translate(_REVERSE_TABLE)
        )

    def score_u(self, u: int) -> int:
        self._check_u(u)
        row = self._arcs[u * self.n : (u + 1) * self.n]
        return self.n + row.count(1) - row.count(2)

    def score_v(self, v: int) -> int:
        self._check_v(v)
        col = self._arcs[v :: self.n]
        return self.m + col.count(2) - col.count(1)

    def scores(self) -> tuple[list[int], list[int]]:
        """U-scores and V-scores, each in vertex order."""
        m, n, arcs = self.m, self.n, self._arcs
        rows = (arcs[u * n : (u + 1) * n] for u in range(m))
        cols = (arcs[v::n] for v in range(n))
        return (
            [n + row.count(1) - row.count(2) for row in rows],
            [m + col.count(2) - col.count(1) for col in cols],
        )

    def score_sequences(self) -> ScoreSequencePair:
        u_scores, v_scores = self.scores()
        return ScoreSequencePair(sorted(u_scores), sorted(v_scores))

    def score_set(self) -> ScoreSet:
        u_scores, v_scores = self.scores()
        return ScoreSet.from_values(u_scores + v_scores)

    def arcs(self) -> Iterator[tuple[int, int, ArcState]]:
        """Non-absent pairs in row-major (u, v) order."""
        n = self.n
        for pos, state in enumerate(self._arcs):
            if state:
                yield pos // n, pos % n, ArcState(state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteOrientedGraph):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self._arcs == other._arcs

    __hash__ = None  # type: ignore[assignment]  # mutable value

    def __repr__(self) -> str:
        present = sum(1 for s in self._arcs if s)
        return f"BipartiteOrientedGraph(m={self.m}, n={self.n}, arcs={present})"

    def to_json(
        self,
        *,
        u_blocks: Sequence[Block] | None = None,
        v_blocks: Sequence[Block] | None = None,
    ) -> str:
        """Serialize to the canonical JSON document (absent pairs omitted)."""
        arcs = [
            {"u": u, "v": v, "dir": "uv" if s is ArcState.U_TO_V else "vu"}
            for u, v, s in self.arcs()
        ]
        doc: dict = {"m": self.m, "n": self.n, "arcs": arcs}
        if u_blocks is not None or v_blocks is not None:
            doc["blocks"] = {
                "U": [_block_doc(b) for b in (u_blocks or ())],
                "V": [_block_doc(b) for b in (v_blocks or ())],
            }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "BipartiteOrientedGraph":
        """Parse a graph JSON document.  Raises ValueError on any defect."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("graph document must be a JSON object")
        m = doc.get("m")
        n = doc.get("n")
        if not _is_int(m) or not _is_int(n):
            raise ValueError("fields 'm' and 'n' must be integers")
        g = cls(m, n)
        entries = doc.get("arcs")
        if not isinstance(entries, list):
            raise ValueError("field 'arcs' must be a list")
        seen: set[tuple[int, int]] = set()
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"arc entry must be an object: {entry!r}")
            u, v, direction = entry.get("u"), entry.get("v"), entry.get("dir")
            if not _is_int(u) or not _is_int(v):
                raise ValueError(f"arc indices must be integers: {entry!r}")
            if not (0 <= u < m and 0 <= v < n):
                raise ValueError(f"arc indices out of range: {entry!r}")
            if (u, v) in seen:
                raise ValueError(f"pair ({u}, {v}) listed more than once")
            seen.add((u, v))
            if direction == "uv":
                g.set_arc(u, v, ArcState.U_TO_V)
            elif direction == "vu":
                g.set_arc(u, v, ArcState.V_TO_U)
            else:
                raise ValueError(f"arc dir must be 'uv' or 'vu': {entry!r}")
        return g

    def to_dot(
        self,
        *,
        u_blocks: Sequence[Block] | None = None,
        v_blocks: Sequence[Block] | None = None,
    ) -> str:
        """Graphviz rendering with clusters for the two parts."""
        u_label = _label_lookup(u_blocks)
        v_label = _label_lookup(v_blocks)
        lines = ["digraph {"]
        lines.append("  subgraph cluster_U {")
        lines.append('    label="U";')
        for u in range(self.m):
            lines.append(_node_line("u", u, u_label.get(u)))
        lines.append("  }")
        lines.append("  subgraph cluster_V {")
        lines.append('    label="V";')
        for v in range(self.n):
            lines.append(_node_line("v", v, v_label.get(v)))
        lines.append("  }")
        for u, v, s in self.arcs():
            if s is ArcState.U_TO_V:
                lines.append(f"  u{u} -> v{v};")
            else:
                lines.append(f"  v{v} -> u{u};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _block_doc(block: Block) -> dict:
    return {"label": block.label, "from": block.start, "to": block.stop}


def _label_lookup(blocks: Sequence[Block] | None) -> dict[int, str]:
    table: dict[int, str] = {}
    for block in blocks or ():
        for i in block.indices():
            table[i] = block.label
    return table


def _node_line(prefix: str, index: int, label: str | None) -> str:
    name = f"{prefix}{index}"
    if label is None:
        return f"    {name};"
    return f'    {name} [label="{name}\\n{label}"];'
