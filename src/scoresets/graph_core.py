"""Oriented bipartite graphs and their vertex scores.

A graph has parts U (m vertices) and V (n vertices).  Every (u, v) pair
carries exactly one of three states: an arc u->v, an arc v->u, or no arc,
so symmetric arc pairs and loops cannot occur.  The score of u in U is
n + outdegree - indegree; the score of v in V is m + outdegree - indegree.
U-scores lie in [0, 2n] and V-scores in [0, 2m].  ``ScoreSequencePair``
and ``ScoreSet`` are immutable named tuples that validate on construction.

``json_texts`` and ``dot_texts`` yield the export documents in pieces: a
head, the arcs of one row at a time, then a tail, so a writer holds one
row's text, never the document; ``to_json`` and ``to_dot`` join them.  A
row is formatted as a template with NUL for its index and kept until a
row with other states comes, so the equal consecutive rows of a
block-built graph are formatted once.  Given ``blocks``, both annotate
labeled vertex ranges: ``(label, start, stop)`` triples per part, which
is all of a block the exports print.

``from_json`` reads a document in exactly ``to_json``'s layout (JSON
whitespace around it allowed) with no object per arc.  A row equal to the
row before it, but for its index, is matched with one string comparison
against a template of that row and copies its states; the other rows are
parsed as numpy byte arrays, in bands of at most 128 KiB of text.  Any
other valid document, such as a pretty-printed one or one with its keys
reordered, is still accepted: it goes through ``json.loads``, which also
words every error.

numpy is imported by the methods that build or read an array, not by
the module: importing it, or the constructions and criteria built on
it, loads no numpy.
"""

from __future__ import annotations

import json
import operator
import re
from collections import namedtuple
from enum import IntEnum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


class ArcState(IntEnum):
    """State of a single (u, v) pair.  Values double as base-3 digits."""

    ABSENT = 0
    U_TO_V = 1
    V_TO_U = 2


class ScoreSequencePair(namedtuple("ScoreSequencePair", "a b")):
    """Nondecreasing score sequences of the two parts."""

    __slots__ = ()
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __new__(cls, a: Iterable[int], b: Iterable[int]) -> "ScoreSequencePair":
        self = super().__new__(cls, tuple(a), tuple(b))
        for name, seq in (("a", self.a), ("b", self.b)):
            if not seq:
                raise ValueError(f"sequence {name!r} must not be empty")
            _validate_sequence(seq, name)
        return self


def _validate_sequence(seq: Sequence[int], name: str) -> None:
    if seq and min(seq) < 0:
        raise ValueError(f"sequence {name!r} has a negative entry: {seq}")
    if not all(map(operator.le, seq, seq[1:])):
        raise ValueError(f"sequence {name!r} is not nondecreasing: {seq}")


class ScoreSet(namedtuple("ScoreSet", "values")):
    """Strictly increasing tuple of distinct nonnegative integers.  ``in``,
    ``len``, ``iter`` and ``str`` read the values, not the one field, so
    ``_replace`` and ``_asdict``, which iterate the record, do not apply."""

    __slots__ = ()
    values: tuple[int, ...]

    def __new__(cls, values: Iterable[int]) -> "ScoreSet":
        self = super().__new__(cls, tuple(values))
        if not self.values:
            raise ValueError("score set is empty")
        _validate_sequence(self.values, "values")
        if len(set(self.values)) < len(self.values):
            raise ValueError(f"score set has a repeated value: {self.values}")
        return self

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "ScoreSet":
        """Sort and deduplicate arbitrary values into a score set."""
        return cls(tuple(sorted(set(values))))

    def __getnewargs__(self) -> tuple[tuple[int, ...]]:  # for copy and pickle
        return (self.values,)

    def __contains__(self, value: object) -> bool:
        return value in self.values

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.values) + "}"


# the labeled vertex ranges [start, stop) of each part, which the exports print
Spans = tuple[Sequence[tuple[str, int, int]], Sequence[tuple[str, int, int]]]
# indexed by ArcState: the pair's net share of its U-vertex's score, read by
# the layout scorer in constructions and the oracle's line tables; scores()
# computes the same values by arithmetic on the state matrix
_NET = (0, 1, -1)
_DIR_STATES = {"uv": 1, "vu": 2}
# indexed by ArcState: an arc's JSON and DOT text from its v index, NUL for
# u, each after its separator (the document's first JSON arc drops its comma)
_JSON_ARCS = (None, ',{"u":\0,"v":%d,"dir":"uv"}', ',{"u":\0,"v":%d,"dir":"vu"}')
_DOT_ARCS = (None, "\n  u\0 -> v%d;", "\n  v%d -> u\0;")
# one byte per pair: the largest arc buffer a graph may allocate is 256 MiB
_MAX_PAIRS = 2**28
# the oracle's default budget in arc assignments; it and BudgetExceededError
# live here so that the CLI has them without importing the oracle
DEFAULT_BUDGET = 3**16

# from_json's array lane: to_json's header, the text after its arcs' "]"
# when blocks follow, and one arc without its indices (direction at _DIR)
_JSON_HEAD = re.compile(r'[ \t\n\r]*\{"m":(0|[1-9][0-9]{0,17}),"n":(0|[1-9][0-9]{0,17}),"arcs":\[')
_BLOCKS_KEY = '],"blocks":'
_ARC = b'{"u":,"v":,"dir":"uv"},'
_DIR = 18
_DIGITS = b"0123456789"
_ZERO, _COLON, _COMMA, _U = b"0:,u"
# digits of an index that fit int64; characters of text read per band at
# most; and the span within which the first row must end to be read alone,
# about as much text as one band call costs in overhead
_MAX_DIGITS = 18
_BAND = 1 << 17
_FIRST_WINDOW = 1 << 14
# what every arc starts with, before its row index
_KEY = '{"u":'


class BudgetExceededError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


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
        import numpy as np

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
        import numpy as np

        return np.frombuffer(self._arcs, dtype=np.uint8).reshape(self.m, self.n)

    def arc(self, u: int, v: int) -> ArcState:
        # the one per-pair read, kept for perfbench/tracer.py's _assignment_index
        if not (0 <= u < self.m and 0 <= v < self.n):
            raise IndexError(f"pair ({u}, {v}) out of range for a {self.m}x{self.n} graph")
        return ArcState(self._arcs[u * self.n + v])

    def scores(self) -> tuple[list[int], list[int]]:
        """U-scores and V-scores, each in vertex order."""
        import numpy as np

        m, n, states = self.m, self.n, self.states
        # _NET by arithmetic in one uint8 temporary: s - 3 * (s >> 1) is 0, 1
        # and 255, which int8 reads as -1; the dense limit keeps every part at
        # or below 2**28 vertices, so int32 sums and scores cannot overflow
        net = states >> 1
        net *= 3
        np.subtract(states, net, out=net)
        net = net.view(np.int8)
        return (
            (n + net.sum(axis=1, dtype=np.int32)).tolist(),
            (m - net.sum(axis=0, dtype=np.int32)).tolist(),
        )

    def score_sequences(self) -> ScoreSequencePair:
        u_scores, v_scores = self.scores()
        return ScoreSequencePair(sorted(u_scores), sorted(v_scores))

    def score_set(self) -> ScoreSet:
        u_scores, v_scores = self.scores()
        return ScoreSet.from_values(u_scores + v_scores)

    def _arc_rows(self, formats: tuple) -> Iterator[str]:
        """The arc texts of each row that has arcs, in row order, from
        ``formats``: only the last row's template is kept, split on its NUL."""
        n, data = self.n, self._arcs
        last = parts = None
        for u in range(self.m):
            row = data[u * n : (u + 1) * n]
            if row != last:
                last = row
                parts = "".join([formats[s] % v for v, s in enumerate(row) if s]).split("\0")
            if len(parts) > 1:  # the row has an arc
                yield str(u).join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteOrientedGraph):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self._arcs == other._arcs

    def __repr__(self) -> str:
        present = len(self._arcs) - self._arcs.count(0)
        return f"BipartiteOrientedGraph(m={self.m}, n={self.n}, arcs={present})"

    def json_texts(self, *, blocks: Spans | None = None) -> Iterator[str]:
        """The canonical JSON document (absent pairs omitted) in pieces, with
        the U and V block lists when ``blocks`` gives each part's ``(label,
        start, stop)`` triples."""
        rows = self._arc_rows(_JSON_ARCS)
        yield f'{{"m":{self.m},"n":{self.n},"arcs":[' + next(rows, ",")[1:]
        yield from rows
        if blocks is None:
            yield "]}"
        else:
            doc = {
                part: [{"label": label, "from": start, "to": stop} for label, start, stop in ranges]
                for part, ranges in zip("UV", blocks)
            }
            yield _BLOCKS_KEY + json.dumps(doc, separators=(",", ":")) + "}"

    def to_json(self, *, blocks: Spans | None = None) -> str:
        """``json_texts`` as one string."""
        return "".join(self.json_texts(blocks=blocks))

    @classmethod
    def from_json(cls, text: str) -> "BipartiteOrientedGraph":
        """Parse a graph JSON document.  Raises ValueError on any defect.

        A document in exactly ``to_json``'s layout is read in bands by
        ``_from_bands``; every other text goes to ``_from_doc``, which is
        also the only source of error messages."""
        return cls._from_bands(text) or cls._from_doc(text)

    @classmethod
    def _from_bands(cls, text: str) -> "BipartiteOrientedGraph | None":
        """The graph of ``text`` if it is in exactly ``to_json``'s layout
        (surrounding JSON whitespace allowed) and ``_from_doc`` would accept
        it, else None.  Never raises, and allocates the graph only after
        every band has been read.

        Block-built graphs repeat rows, so each row is first compared as
        text with a template: the last whole row read, split on its
        ``{"u":U,`` key.  A row that equals the template joined with its
        own key copies the template's states, with no numpy call.  Other
        rows go to ``_read_arc_band`` in bands of at most ``_BAND``
        characters.  A band ends after its last whole row, which becomes
        the template, when that row equals the row before it or when the
        band may start a block of equal rows: it follows copies, or it is
        the first row alone of a document longer than a band, read so
        because the row after it is equal.  Once copies cover more text
        than the band before them and ``_FIRST_WINDOW``, the next band
        holds at most twice the template's length: rows that all differ
        are read in whole bands, and each new block of equal rows costs
        the band reader about two rows."""
        import numpy as np

        head = _JSON_HEAD.match(text) if isinstance(text, str) else None
        if head is None:
            return None
        m, n = int(head[1]), int(head[2])
        if m < 1 or n < 1 or m * n > _MAX_PAIRS:
            return None
        pos = head.end()
        close = text.find("]", pos)  # the arcs' text has no "]"
        if close < 0 or not _is_json_tail(text[close:].rstrip(" \t\n\r")):
            return None
        bands = []  # (pair offsets, states) of the arcs read by _read_arc_band
        templates = []  # (columns, states, indices of the rows that copy it)
        prev = -1  # the index of the last row read
        parts = None  # the template's text split on its key, if pos starts a row
        copied = 0  # characters of the rows copied since the last band
        read = window = _BAND  # the last band's length or more, the next band's at most
        # whether a block of equal rows may start at pos: after copies, or at
        # the first row of a document longer than a band if the row after it
        # starts within _FIRST_WINDOW and is equal
        block = False
        u = _row_at(text, pos, -1, m) if close - pos > _BAND else -1
        after = text.find(f",{_KEY}{u + 1},", pos, pos + _FIRST_WINDOW) if u >= 0 else -1
        if after > 0:  # the first row, with the second row's key
            second = f"{_KEY}{u + 1},".join(text[pos:after].split(f"{_KEY}{u},"))
            if text.startswith(second, after + 1):
                window, block = after + 2 - pos, True
        while pos < close:
            if parts is not None:
                u = _row_at(text, pos, prev, m)
                if u >= 0:
                    key = f"{_KEY}{u},"
                    row = key.join(parts)
                    end = pos + len(row)
                    # the row ends where the template does: at "]" or before an arc of another row
                    if text.startswith(row, pos) and (
                        end == close or text.startswith(",{", end) and not text.startswith(key, end + 1)
                    ):
                        templates[-1][2].append(u)
                        pos, prev, copied, block = min(end + 1, close), u, copied + len(row) + 1, True
                        if copied >= read:  # blocks are long: read a new one's first row alone
                            window = 2 * len(row)
                        continue
            if close - pos <= window:
                band, cut = text[pos:close] + ",", close
            else:
                # a band ends after the "}," of an arc, the next starts at its "{"
                cut = text.rfind("},{", pos, pos + window) + 2
                if cut < 2:
                    if window >= _BAND:
                        return None
                    window = min(2 * window, _BAND)
                    continue
                band = text[pos:cut]
            arcs = _read_arc_band(band, m, n)
            if arcs is None:
                return None
            rows, offsets, states, at = arcs
            prev, parts, copied = int(rows[-1]), None, 0
            read, window = max(len(band), _FIRST_WINDOW), _BAND
            if cut < close:
                # the band's last two whole rows are arcs [a0, a1) and [a1, b1);
                # a0 == a1 if it has one, and a1 == b1 if it has none
                bounds = [0, 0, 0, *(np.flatnonzero(rows[1:] != rows[:-1])[-3:] + 1).tolist()]
                if not text.startswith(f"{_KEY}{prev},", cut):  # the band ends a row
                    bounds.append(rows.size)
                a0, a1, b1 = bounds[-3:]
                u0, u1 = int(rows[a0]), int(rows[a1])
                repeated = (
                    a0 < a1
                    and b1 - a1 == a1 - a0
                    and states[a1:b1].tobytes() == states[a0:a1].tobytes()
                    and (offsets[a0:a1] + (u1 - u0) * n).tobytes() == offsets[a1:b1].tobytes()
                )
                # a band that may start a block keeps its last whole row as the
                # template even when no row before it is equal
                if a1 < b1 and (repeated or block):
                    if b1 < rows.size:
                        cut = pos + int(at[b1]) - len(_KEY)
                    row = text[pos + int(at[a1]) - len(_KEY) : cut - 1]
                    parts = row.split(f"{_KEY}{u1},")
                    offsets, states, prev = offsets[:b1], states[:b1], u1
                    templates.append((offsets[a1:] - u1 * n, states[a1:], []))
            bands.append((offsets, states))
            pos, block = cut, False
            # drop the views into this band's work arrays before the next band
            # allocates its own, so that the allocator can reuse their memory
            del arcs, rows, at
        cells = np.zeros(m * n, dtype=np.uint8)
        for offsets, states in bands:
            cells[offsets] = states
        listed = sum(offsets.size for offsets, _ in bands)
        grid = cells.reshape(m, n)
        for columns, states, rows in templates:
            if rows:
                row = np.zeros(n, dtype=np.uint8)
                row[columns] = states
                grid[rows] = row
                listed += len(rows) * columns.size
        # a pair listed twice, even in a row read as the template's copy,
        # leaves fewer set cells than arcs
        if np.count_nonzero(cells) != listed:
            return None
        return cls.from_states(grid)

    @classmethod
    def _from_doc(cls, text: str) -> "BipartiteOrientedGraph":
        """Parse any graph JSON document with ``json.loads``, one dict per arc."""
        import numpy as np

        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep to parse is bad input
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

    def dot_texts(self, *, blocks: Spans | None = None) -> Iterator[str]:
        """Graphviz rendering in pieces, with clusters for the two parts; the
        nodes of each ``(label, start, stop)`` triple of ``blocks`` carry its
        label."""
        lines = ["digraph {"]
        for part, size, part_blocks in zip("UV", (self.m, self.n), blocks or ((), ())):
            label = {i: name for name, start, stop in part_blocks for i in range(start, stop)}
            lines += [f"  subgraph cluster_{part} {{", f'    label="{part}";']
            lines += [_node_line(part.lower(), i, label.get(i)) for i in range(size)]
            lines.append("  }")
        yield "\n".join(lines)
        yield from self._arc_rows(_DOT_ARCS)
        yield "\n}\n"

    def to_dot(self, *, blocks: Spans | None = None) -> str:
        """``dot_texts`` as one string."""
        return "".join(self.dot_texts(blocks=blocks))


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


def _row_at(text: str, pos: int, prev: int, m: int) -> int:
    """The index U of the arc at ``pos`` if its text starts ``{"u":U,``
    with U in canonical decimal, above ``prev`` and below ``m``; else -1."""
    if text.startswith(f"{_KEY}{prev + 1},", pos):  # the common case: the next row
        return prev + 1 if prev + 1 < m else -1
    start = pos + len(_KEY)
    comma = text.find(",", start, start + _MAX_DIGITS + 1)
    token = text[start:comma]
    if comma < 0 or not (token.isascii() and token.isdigit()) or token != str(int(token)):
        return -1
    return int(token) if prev < int(token) < m else -1


def _read_arc_band(band: str, m: int, n: int) -> tuple[np.ndarray, ...] | None:
    """Row indices u, pair offsets u * n + v, states and the positions of
    the u digits of the arcs of ``band``, whole arcs of ``to_json``'s
    layout each followed by a comma; None unless every arc is in that
    layout with in-range indices."""
    import numpy as np

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
    return u, (u * n + v).astype(np.int32), states, starts[0::2]


def _node_line(prefix: str, index: int, label: str | None) -> str:
    name = f"{prefix}{index}"
    if label is None:
        return f"    {name};"
    return f'    {name} [label="{name}\\n{label}"];'
