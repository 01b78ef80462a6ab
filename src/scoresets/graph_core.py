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

import numpy as np


class ArcState(IntEnum):
    """State of a single (u, v) pair.  Values double as base-3 digits."""

    ABSENT = 0
    U_TO_V = 1
    V_TO_U = 2


@dataclass(frozen=True)
class Block:
    """Contiguous vertex index range [start, stop) within one part whose
    every vertex is expected to score ``score``."""

    label: str
    start: int
    stop: int
    score: int

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


# indexed by ArcState: the pair's net share of its U-vertex's score
_NET = np.array([0, 1, -1], dtype=np.int8)
_DIRS = (None, "uv", "vu")
_DIR_STATES = {"uv": 1, "vu": 2}
# one byte per pair: the largest arc buffer a graph may allocate is 256 MiB
_MAX_PAIRS = 2**28


def _require_dense(m: int, n: int) -> None:
    if m * n > _MAX_PAIRS:
        raise ValueError(f"graph of {m}x{n} has {m * n} pairs, above the dense limit of 2**28")


class BipartiteOrientedGraph:
    """Arc-state matrix over parts U (size m) and V (size n).

    States are stored row-major: pair (u, v) lives at offset u * n + v.
    Writers mutate a graph they own via set_arc (or, within the package,
    the buffer); every read operation treats the value as immutable.
    """

    __slots__ = ("m", "n", "_arcs")

    def __init__(self, m: int, n: int) -> None:
        if m < 1 or n < 1:
            raise ValueError(f"both parts must be nonempty, got m={m}, n={n}")
        _require_dense(m, n)
        self.m = m
        self.n = n
        self._arcs = bytearray(m * n)

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
        m, n = self.m, self.n
        net = _NET[np.frombuffer(self._arcs, dtype=np.uint8).reshape(m, n)]
        return (
            (n + net.sum(axis=1, dtype=np.int64)).tolist(),
            (m - net.sum(axis=0, dtype=np.int64)).tolist(),
        )

    def score_sequences(self) -> ScoreSequencePair:
        u_scores, v_scores = self.scores()
        return ScoreSequencePair(sorted(u_scores), sorted(v_scores))

    def score_set(self) -> ScoreSet:
        u_scores, v_scores = self.scores()
        return ScoreSet.from_values(u_scores + v_scores)

    def _present(self) -> tuple[list[int], list[int], list[int]]:
        """u, v and state lists of the non-absent pairs, row-major."""
        buf = np.frombuffer(self._arcs, dtype=np.uint8)
        pos = np.flatnonzero(buf)
        u, v = np.divmod(pos, self.n)
        return u.tolist(), v.tolist(), buf[pos].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteOrientedGraph):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self._arcs == other._arcs

    __hash__ = None  # type: ignore[assignment]  # mutable value

    def __repr__(self) -> str:
        present = len(self._arcs) - self._arcs.count(0)
        return f"BipartiteOrientedGraph(m={self.m}, n={self.n}, arcs={present})"

    def to_json(
        self,
        *,
        u_blocks: Sequence[Block] | None = None,
        v_blocks: Sequence[Block] | None = None,
    ) -> str:
        """Serialize to the canonical JSON document (absent pairs omitted)."""
        arcs = ",".join(
            [f'{{"u":{u},"v":{v},"dir":"{_DIRS[s]}"}}' for u, v, s in zip(*self._present())]
        )
        text = f'{{"m":{self.m},"n":{self.n},"arcs":[{arcs}]'
        if u_blocks is not None or v_blocks is not None:
            blocks = {
                "U": [_block_doc(b) for b in (u_blocks or ())],
                "V": [_block_doc(b) for b in (v_blocks or ())],
            }
            text += ',"blocks":' + json.dumps(blocks, separators=(",", ":"))
        return text + "}"

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
        if type(m) is not int or type(n) is not int:
            raise ValueError("fields 'm' and 'n' must be integers")
        g = cls(m, n)
        entries = doc.get("arcs")
        if not isinstance(entries, list):
            raise ValueError("field 'arcs' must be a list")
        buf = g._arcs  # a nonzero byte marks a pair already listed
        for entry in entries:
            if type(entry) is not dict:
                raise ValueError(f"arc entry must be an object: {entry!r}")
            u, v, direction = entry.get("u"), entry.get("v"), entry.get("dir")
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"arc indices must be integers: {entry!r}")
            if not (0 <= u < m and 0 <= v < n):
                raise ValueError(f"arc indices out of range: {entry!r}")
            pos = u * n + v
            if buf[pos]:
                raise ValueError(f"pair ({u}, {v}) listed more than once")
            # a list or object "dir" is unhashable
            state = _DIR_STATES.get(direction) if type(direction) is str else None
            if state is None:
                raise ValueError(f"arc dir must be 'uv' or 'vu': {entry!r}")
            buf[pos] = state
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
        lines.extend(
            f"  u{u} -> v{v};" if s == 1 else f"  v{v} -> u{u};"
            for u, v, s in zip(*self._present())
        )
        lines.append("}")
        return "\n".join(lines) + "\n"


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
