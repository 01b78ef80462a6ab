"""Oriented bipartite graphs and their vertex scores.

A graph has parts U (m vertices) and V (n vertices).  Every (u, v) pair
carries exactly one of three states: an arc u->v, an arc v->u, or no arc,
so symmetric arc pairs and loops cannot occur.  The score of u in U is
n + outdegree - indegree; the score of v in V is m + outdegree - indegree.
U-scores lie in [0, 2n] and V-scores in [0, 2m].

``to_json`` and ``to_dot`` format each distinct row of arc states once per
call, as a template with NUL for the row index, and fill it in for every
row with those states (block-built graphs have few); none outlives the call.
Given ``blocks``, both annotate labeled vertex ranges: ``(label, start,
stop)`` triples per part, which is all of a block the exports print.

``from_json`` reads a document in exactly ``to_json``'s layout (JSON
whitespace around it allowed) in bands of about 128 KiB of text, as numpy
byte arrays, with no object per arc.  Any other valid document, such as a
pretty-printed one or one with its keys reordered, is still accepted: it
goes through ``json.loads``, which also words every error.
"""

from __future__ import annotations

import json
import operator
import re
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
    if seq and min(seq) < 0:
        raise ValueError(f"sequence {name!r} has a negative entry: {seq}")
    if not all(map(operator.le, seq, seq[1:])):
        raise ValueError(f"sequence {name!r} is not nondecreasing: {seq}")


@dataclass(frozen=True)
class ScoreSet:
    """Strictly increasing tuple of distinct nonnegative integers."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("score set is empty")
        _validate_sequence(self.values, "values")
        if len(set(self.values)) < len(self.values):
            raise ValueError(f"score set has a repeated value: {self.values}")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "ScoreSet":
        """Sort and deduplicate arbitrary values into a score set."""
        return cls(tuple(sorted(set(values))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.values) + "}"


# the labeled vertex ranges [start, stop) of each part, which the exports print
Spans = tuple[Sequence[tuple[str, int, int]], Sequence[tuple[str, int, int]]]
# indexed by ArcState: the pair's net share of its U-vertex's score
_NET = np.array([0, 1, -1], dtype=np.int8)
_DIR_STATES = {"uv": 1, "vu": 2}
# indexed by ArcState: an arc's JSON and DOT text from its v index, NUL for u
_JSON_ARCS = (None, '{"u":\0,"v":%d,"dir":"uv"}', '{"u":\0,"v":%d,"dir":"vu"}')
_DOT_ARCS = (None, "  u\0 -> v%d;", "  v%d -> u\0;")
# one byte per pair: the largest arc buffer a graph may allocate is 256 MiB
_MAX_PAIRS = 2**28

# from_json's array lane: to_json's header, the text after its arcs' "]"
# when blocks follow, and one arc without its indices (direction at _DIR)
_JSON_HEAD = re.compile(r'[ \t\n\r]*\{"m":(0|[1-9][0-9]{0,17}),"n":(0|[1-9][0-9]{0,17}),"arcs":\[')
_BLOCKS_KEY = '],"blocks":'
_ARC = b'{"u":,"v":,"dir":"uv"},'
_DIR = 18
_DIGITS = b"0123456789"
_ZERO, _COLON, _COMMA, _U = b"0:,u"
# digits of an index that fit int64; characters of text read per band
_MAX_DIGITS = 18
_BAND = 1 << 17


def _require_dense(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"both parts must be nonempty, got m={m}, n={n}")
    if m * n > _MAX_PAIRS:
        raise ValueError(f"graph of {m}x{n} has {m * n} pairs, above the dense limit of 2**28")


class BipartiteOrientedGraph:
    """Arc-state matrix over parts U (size m) and V (size n), a value.

    ``from_states`` copies an (m, n) ArcState matrix in, ``states`` reads
    it out, and ``BipartiteOrientedGraph(m, n)`` has no arcs.  The states
    sit row-major in immutable bytes: no graph changes after it is built.
    """

    __slots__ = ("m", "n", "_arcs")

    def __init__(self, m: int, n: int) -> None:
        _require_dense(m, n)
        self.m = m
        self.n = n
        self._arcs = bytes(m * n)

    @classmethod
    def from_states(cls, states: np.ndarray) -> "BipartiteOrientedGraph":
        """The graph whose pair (u, v) is in state ``states[u, v]``, from an
        (m, n) integer array; raises ValueError, before copying anything,
        on any other shape or type, a value outside 0..2, an empty part or
        more pairs than the dense limit."""
        states = np.asarray(states)
        if states.ndim != 2 or states.dtype.kind not in "iu":
            raise ValueError(f"states need a 2-D integer array, got {states.ndim}-D {states.dtype}")
        m, n = states.shape
        _require_dense(m, n)
        if states.dtype.kind == "i":  # read as unsigned, a negative value is huge
            states = states.view(states.dtype.str.replace("i", "u"))
        if states.max() > 2:  # one pass over the values
            raise ValueError("states must be ArcState values 0, 1 or 2")
        graph = cls.__new__(cls)
        graph.m, graph.n, graph._arcs = m, n, states.astype(np.uint8, copy=False).tobytes()
        return graph

    @property
    def states(self) -> np.ndarray:
        """The (m, n) uint8 ArcState matrix, a read-only view."""
        return np.frombuffer(self._arcs, dtype=np.uint8).reshape(self.m, self.n)

    def arc(self, u: int, v: int) -> ArcState:
        # the one per-pair read, kept for perfbench/tracer.py's _assignment_index
        if not (0 <= u < self.m and 0 <= v < self.n):
            raise IndexError(f"pair ({u}, {v}) out of range for a {self.m}x{self.n} graph")
        return ArcState(self._arcs[u * self.n + v])

    def scores(self) -> tuple[list[int], list[int]]:
        """U-scores and V-scores, each in vertex order."""
        m, n = self.m, self.n
        net = _NET[self.states]
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

    def _arc_rows(self, formats: tuple, sep: str) -> list[str]:
        """The ``sep``-joined arc texts of each row that has arcs: each distinct
        row is formatted once per call from ``formats``, then its u filled in."""
        n, data = self.n, self._arcs
        templates: dict[bytes, str] = {}
        texts = []
        for u in range(self.m):
            row = data[u * n : (u + 1) * n]
            template = templates.get(row)
            if template is None:
                template = templates[row] = sep.join([formats[s] % v for v, s in enumerate(row) if s])
            if template:
                texts.append(template.replace("\0", str(u)))
        return texts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteOrientedGraph):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self._arcs == other._arcs

    def __repr__(self) -> str:
        present = len(self._arcs) - self._arcs.count(0)
        return f"BipartiteOrientedGraph(m={self.m}, n={self.n}, arcs={present})"

    def to_json(self, *, blocks: Spans | None = None) -> str:
        """Serialize to the canonical JSON document (absent pairs omitted),
        with the U and V block lists when ``blocks`` gives each part's
        ``(label, start, stop)`` triples."""
        tail = "]}"
        if blocks is not None:
            doc = {
                part: [{"label": label, "from": start, "to": stop} for label, start, stop in ranges]
                for part, ranges in zip("UV", blocks)
            }
            tail = '],"blocks":' + json.dumps(doc, separators=(",", ":")) + "}"
        arcs = ",".join(self._arc_rows(_JSON_ARCS, ","))  # row texts freed before the join
        return "".join([f'{{"m":{self.m},"n":{self.n},"arcs":[', arcs, tail])

    @classmethod
    def from_json(cls, text: str) -> "BipartiteOrientedGraph":
        """Parse a graph JSON document.  Raises ValueError on any defect.

        A document in exactly ``to_json``'s layout is read in bands by
        ``_from_bands``; every other text goes to ``_from_doc``, which is
        also the only source of error messages."""
        graph = cls._from_bands(text)
        return cls._from_doc(text) if graph is None else graph

    @classmethod
    def _from_bands(cls, text: str) -> "BipartiteOrientedGraph | None":
        """The graph of ``text`` if it is in exactly ``to_json``'s layout
        (surrounding JSON whitespace allowed) and ``_from_doc`` would accept
        it, else None.  Never raises, and allocates the graph only after
        every band has been read."""
        head = _JSON_HEAD.match(text) if isinstance(text, str) else None
        if head is None:
            return None
        m, n = int(head[1]), int(head[2])
        if m < 1 or n < 1 or m * n > _MAX_PAIRS:
            return None
        start = head.end()
        close = text.find("]", start)  # the arcs' text has no "]"
        if close < 0 or not _is_json_tail(text[close:].rstrip(" \t\n\r")):
            return None
        bands = []
        while start < close:
            if close - start > _BAND:
                # a band ends after the "}," of an arc, the next starts at its "{"
                cut = text.rfind("},{", start, start + _BAND)
                if cut < 0:
                    return None
                band, start = text[start : cut + 2], cut + 2
            else:
                band, start = text[start:close] + ",", close
            arcs = _read_arc_band(band, m, n)
            if arcs is None:
                return None
            bands.append(arcs)
        cells = np.zeros(m * n, dtype=np.uint8)
        for pos, states in bands:
            cells[pos] = states
        # a pair listed twice leaves fewer set cells than arcs
        if np.count_nonzero(cells) != sum(pos.size for pos, _ in bands):
            return None
        return cls.from_states(cells.reshape(m, n))

    @classmethod
    def _from_doc(cls, text: str) -> "BipartiteOrientedGraph":
        """Parse any graph JSON document with ``json.loads``, one dict per arc."""
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
        _require_dense(m, n)
        entries = doc.get("arcs")
        if not isinstance(entries, list):
            raise ValueError("field 'arcs' must be a list")
        buf = bytearray(m * n)  # a nonzero byte marks a pair already listed
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
        return cls.from_states(np.frombuffer(buf, dtype=np.uint8).reshape(m, n))

    def to_dot(self, *, blocks: Spans | None = None) -> str:
        """Graphviz rendering with clusters for the two parts; the nodes of
        each ``(label, start, stop)`` triple of ``blocks`` carry its label."""
        lines = ["digraph {"]
        for part, size, part_blocks in zip("UV", (self.m, self.n), blocks or ((), ())):
            label = {i: name for name, start, stop in part_blocks for i in range(start, stop)}
            lines += [f"  subgraph cluster_{part} {{", f'    label="{part}";']
            lines += [_node_line(part.lower(), i, label.get(i)) for i in range(size)]
            lines.append("  }")
        lines += self._arc_rows(_DOT_ARCS, "\n")
        lines += ["}", ""]
        return "\n".join(lines)


def _is_json_tail(tail: str) -> bool:
    """Whether ``tail`` closes ``to_json``'s arcs list and document: ``]}``,
    or ``],"blocks":`` and one JSON value, then ``}``."""
    if tail == "]}":
        return True
    if not (tail.startswith(_BLOCKS_KEY) and tail.endswith("}")):
        return False
    try:
        json.loads(tail[len(_BLOCKS_KEY) : -1])
    except (ValueError, RecursionError):
        return False
    return True


def _read_arc_band(band: str, m: int, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Pair offsets (u * n + v) and states of ``band``, whole arcs of
    ``to_json``'s layout each followed by a comma; None unless every arc is
    in that layout with in-range indices."""
    if not band.isascii():
        return None
    data = band.encode("ascii")
    skeleton = data.translate(None, _DIGITS)
    arcs = len(skeleton) // len(_ARC)
    # '"uv"' occurs in the arc skeleton only as its direction, so this
    # holds just where every arc is the skeleton with "uv" or "vu"
    if skeleton.replace(b'"vu"', b'"uv"') != _ARC * arcs:
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    digit = text - _ZERO < 10  # bytes below "0" wrap around
    # the skeleton's only ":" then "," gaps are the u and v slots, and a gap
    # holds at most one digit run, so two runs per arc fill every slot once
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    if edges.size != 4 * arcs:
        return None
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    leading_zero = (text[starts] == _ZERO) & (lengths > 1)
    misplaced = (text[starts - 1] != _COLON) | (text[ends] != _COMMA)
    if (misplaced | leading_zero | (lengths > _MAX_DIGITS)).any():
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(lengths.max())):
        live = np.flatnonzero(lengths > k)
        values[live] = values[live] * 10 + (text[starts[live] + k] - _ZERO)
    u, v = values[0::2], values[1::2]
    if ((u >= m) | (v >= n)).any():
        return None
    states = np.frombuffer(skeleton, dtype=np.uint8)[_DIR :: len(_ARC)] - (_U - 1)
    return (u * n + v).astype(np.int32), states


def _node_line(prefix: str, index: int, label: str | None) -> str:
    name = f"{prefix}{index}"
    if label is None:
        return f"    {name};"
    return f'    {name} [label="{name}\\n{label}"];'
