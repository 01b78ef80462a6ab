"""Inputs and answer checks of the scoresets benchmark workloads.

The seed of a run draws one list of operations.  Lists of one workload
have the same composition by cost class; the seed picks the inputs inside
each class and their order.  The runner makes a fixed number of passes
over the list: ``--seconds`` over the workload's ``PASS_SECONDS``, the
time one pass took on the seed commit.

Answers are checked against ``data/expected.json``, recorded once from the
seed commit by ``record.py``: sha256 digests of the machine formats
(realize json/dot, enumerate jsonl, catalog merges) and the first witness
index of every score set at every shape the search workload can reach.
Graphs are scored again here, by code that does not come from scoresets.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "data" / "expected.json"

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# Search bounds of the search workload, and (max value, max m, max n) of
# its conjecture-scan passes.  Every shape they reach is in the answer table.
SEARCH_BOUNDS = ((3, 4), (4, 3), (2, 6))
SCAN_PASSES = ((4, 2, 2), (5, 2, 3), (5, 3, 3), (6, 2, 3))
# The oracle scans assignments in chunks of this many; used only to sort
# search targets into cost classes.
SCAN_CHUNK = 1 << 18
CHEAP_SCAN = 3**9

# Shapes of the catalog workload: every shape up to 3x4 and 4x3.
CATALOG_SHAPES = tuple(
    (m, n) for m in range(1, 5) for n in range(1, 5) if m * n <= 12 and (m, n) != (4, 4)
)
# Shapes of at most 3^9 assignments, enumerated as pairs too.
SMALL_SHAPES = tuple((m, n) for m, n in CATALOG_SHAPES if m * n <= 9)
# Merges and tests skip the five shapes of at most three pairs: they take
# well under a millisecond, and their count would move p90 out of the
# cluster that holds it (see catalog_list).
UPTO_BOUNDS = tuple((m, n) for m, n in SMALL_SHAPES if m * n >= 4) + ((2, 5), (5, 2))
EQUIVALENCE_SHAPES = UPTO_BOUNDS + ((3, 4),)


@dataclass
class Outcome:
    """What one operation returned: CLI exit code and stdout, or a value."""

    rc: int | None
    out: str = ""
    value: object = None
    error: str = ""


@dataclass
class Op:
    """One operation: CLI arguments, or an oracle function name and args."""

    name: str
    check: Callable[[Outcome], str]
    argv: list[str] | None = None
    call: tuple[str, tuple] | None = None
    stdin: Callable[[], str] | None = None


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fmt_set(values) -> str:
    return "{" + ",".join(map(str, values)) + "}"


# ---------------------------------------------------------------- scoring

_SHAPE = re.compile(r'"m":(\d+),"n":(\d+)')
_ARC = re.compile(r'\{"u":(\d+),"v":(\d+),"dir":"(uv|vu)"\}')


def parse_graph(text: str) -> tuple[int, int, bytearray] | None:
    """Shape and pair states (0 none, 1 u->v, 2 v->u) of the first graph
    in a JSON text, or None if the arcs are out of range or repeated."""
    shape = _SHAPE.search(text)
    if shape is None:
        return None
    m, n = int(shape[1]), int(shape[2])
    states = bytearray(m * n)
    for arc in _ARC.finditer(text):
        u, v = int(arc[1]), int(arc[2])
        if u >= m or v >= n or states[u * n + v]:
            return None
        states[u * n + v] = 1 if arc[3] == "uv" else 2
    return m, n, states


def score_states(m: int, n: int, states: bytearray) -> tuple[list[int], list[int]]:
    """Sorted U- and V-score sequences: own score plus wins minus losses."""
    a = sorted(n + row.count(1) - row.count(2) for row in (states[u * n : (u + 1) * n] for u in range(m)))
    b = sorted(m + col.count(2) - col.count(1) for col in (states[v::n] for v in range(n)))
    return a, b


def states_of_index(m: int, n: int, index: int) -> bytearray:
    """Pair states of assignment ``index``: base-3 digit u*n+v is pair (u, v)."""
    states = bytearray(m * n)
    for pos in range(m * n):
        index, states[pos] = divmod(index, 3)
    return states


def set_mask(values) -> int:
    return sum(1 << v for v in values)


def values_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# ---------------------------------------------------------------- construct

def _check_summary(entry: dict) -> Callable[[Outcome], str]:
    values = entry["set"]

    def check(res: Outcome) -> str:
        if res.rc != 0:
            return REFUSED
        lines = res.out.splitlines()
        if f"score set {fmt_set(values)}" not in lines:
            return WRONG
        if f"m = {entry['m']}, n = {entry['n']}" not in lines:
            return WRONG
        scores: set[int] = set()
        for prefix, size in (("U blocks: ", entry["m"]), ("V blocks: ", entry["n"])):
            row = next((line for line in lines if line.startswith(prefix)), None)
            if row is None:
                return WRONG
            pos = 0
            for _, start, stop, score in re.findall(r"(\S+)\[(\d+):(\d+)\)=(\d+)", row):
                if int(start) != pos:
                    return WRONG
                pos = int(stop)
                scores.add(int(score))
            if pos != size:
                return WRONG
        return OK if sorted(scores) == values else WRONG

    return check


def _check_digest(expected: str) -> Callable[[Outcome], str]:
    def check(res: Outcome) -> str:
        if res.rc != 0:
            return REFUSED
        return OK if digest(res.out) == expected else WRONG

    return check


def _graph_scores_match(text: str, values, shape=None) -> tuple[list, list] | None:
    """Score sequences of a graph JSON text if its score set is ``values``."""
    parsed = parse_graph(text)
    if parsed is None:
        return None
    m, n, states = parsed
    if shape is not None and (m, n) != shape:
        return None
    a, b = score_states(m, n, states)
    return (a, b) if sorted(set(a) | set(b)) == list(values) else None


def _check_realize_json(entry: dict, piped: dict) -> Callable[[Outcome], str]:
    def check(res: Outcome) -> str:
        piped.clear()
        if res.rc != 0:
            return REFUSED
        piped["json"] = res.out
        if digest(res.out) != entry["json"]:
            return WRONG
        scores = _graph_scores_match(res.out, entry["set"], (entry["m"], entry["n"]))
        if scores is None:
            return WRONG
        piped["scores"] = scores
        return OK

    return check


def _check_score(entry: dict, piped: dict) -> Callable[[Outcome], str]:
    def check(res: Outcome) -> str:
        if res.rc != 0:
            return REFUSED
        if "scores" not in piped:
            return WRONG
        a, b = piped["scores"]
        lines = res.out.splitlines()
        want = [
            f"a = [{','.join(map(str, a))}]",
            f"b = [{','.join(map(str, b))}]",
            f"score set {fmt_set(entry['set'])}",
        ]
        return OK if all(line in lines for line in want) else WRONG

    return check


def _check_zero_set(values) -> Callable[[Outcome], str]:
    """A 0-containing set with a small witness: a valid graph or 'unsupported'."""

    def check(res: Outcome) -> str:
        if res.rc == 2:
            return OK
        if res.rc != 0:
            return REFUSED
        return OK if _graph_scores_match(res.out, values) is not None else WRONG

    return check


def construct_ops(entry: dict) -> list[Op]:
    """realize --format summary; for exportable sets also dot and json,
    with the json piped into score --graph -."""
    text = ",".join(map(str, entry["set"]))
    if entry["stratum"] == "zero":
        return [
            Op("realize-json", _check_zero_set(entry["set"]),
               ["realize", "--set", text, "--format", "json"])
        ]
    ops = [
        Op("realize-summary", _check_summary(entry),
           ["realize", "--set", text, "--format", "summary"])
    ]
    if "json" in entry:
        piped: dict = {}
        ops += [
            Op("realize-dot", _check_digest(entry["dot"]),
               ["realize", "--set", text, "--format", "dot"]),
            Op("realize-json", _check_realize_json(entry, piped),
               ["realize", "--set", text, "--format", "json"]),
            Op("score", _check_score(entry, piped), ["score", "--graph", "-"],
               stdin=lambda: piped.get("json", "")),
        ]
    return ops


# Sets per list.  Export and large sets: this many of every builder
# branch; the others are drawn from the whole class.  Sorted by cost, the
# operations are summaries of small and export sets (29), large-set
# summaries (45, holding p50), export ops (27, holding p90) and the giant
# set's summary.
PER_BRANCH = {"export": 1, "large": 5}
DRAWN = {"giant": 1, "zero": 1, "small": 5}


def construct_list(seed: int, expected: dict) -> list[Op]:
    rng = random.Random(seed)
    pool: dict[tuple[str, str], list[dict]] = {}
    for entry in expected["construct"]:
        pool.setdefault((entry["stratum"], entry["branch"]), []).append(entry)
    drawn = {s: [e for e in expected["construct"] if e["stratum"] == s] for s in DRAWN}
    branches = sorted({b for s, b in pool if s == "large"})
    entries = [e for s, count in DRAWN.items() for e in rng.sample(drawn[s], count)]
    for stratum, count in PER_BRANCH.items():
        for branch in branches:
            entries += rng.choices(pool[(stratum, branch)], k=count)
    rng.shuffle(entries)
    return [op for entry in entries for op in construct_ops(entry)]


# ---------------------------------------------------------------- search

def shapes_within(m_max: int, n_max: int) -> list[tuple[int, int]]:
    """Shapes in the order bounded_search documents: m outer, n inner."""
    return [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]


def hopeless(values, m: int, n: int) -> bool:
    """No graph of shape (m, n) can have score set ``values``: too many
    values for the vertices, or a value above every attainable score."""
    return len(values) > m + n or max(values) > 2 * max(m, n)


class AnswerTable:
    """First witness index of every score set at every recorded shape."""

    def __init__(self, expected: dict) -> None:
        self.first: dict[tuple[int, int], dict[int, int]] = {}
        for shape, rows in expected["search"].items():
            m, n = map(int, shape.split("x"))
            self.first[(m, n)] = {mask: index for mask, index in rows}

    def answer(self, values, m_max: int, n_max: int) -> tuple[tuple[int, int, int] | None, int]:
        """Exhaustive-order witness (m, n, index) or None, and the
        assignments a chunked exhaustive scan examines to reach it."""
        mask = set_mask(values)
        scanned = 0
        for m, n in shapes_within(m_max, n_max):
            if hopeless(values, m, n):
                continue
            index = self.first[(m, n)].get(mask)
            if index is not None:
                return (m, n, index), scanned + min(3 ** (m * n), (index // SCAN_CHUNK + 1) * SCAN_CHUNK)
            scanned += 3 ** (m * n)
        return None, scanned

    def realizable(self, values, m_max: int, n_max: int) -> bool:
        return self.answer(values, m_max, n_max)[0] is not None


def _check_search(table: AnswerTable, values, m_max: int, n_max: int) -> Callable[[Outcome], str]:
    def check(res: Outcome) -> str:
        if res.rc != 0:
            return REFUSED
        try:
            doc = json.loads(res.out)
        except json.JSONDecodeError:
            return WRONG
        if not doc.get("realizable"):
            return OK if doc == {"realizable": False} and not table.realizable(values, m_max, n_max) else WRONG
        parsed = parse_graph(res.out)
        if parsed is None:
            return WRONG
        m, n, states = parsed
        if m > m_max or n > n_max or states != states_of_index(m, n, int(doc["index"])):
            return WRONG
        a, b = score_states(m, n, states)
        return OK if sorted(set(a) | set(b)) == list(values) else WRONG

    return check


_SCAN_LINE = re.compile(r"\{([\d,]+)\}: (constructed|oracle-witnessed|unknown within bounds)(?: \(m=(\d+), n=(\d+)\))?$")


def _check_scan(table: AnswerTable, top: int, m_max: int, n_max: int) -> Callable[[Outcome], str]:
    subsets = {c for size in range(1, top + 1) for c in combinations(range(1, top + 1), size)}

    def check(res: Outcome) -> str:
        if res.rc != 0:
            return REFUSED
        lines = res.out.splitlines()
        if not lines:
            return WRONG
        seen = set()
        tally = {"constructed": 0, "oracle-witnessed": 0, "unknown within bounds": 0}
        for line in lines[:-1]:
            match = _SCAN_LINE.match(line)
            if match is None:
                return WRONG
            values = tuple(map(int, match[1].split(",")))
            status = match[2]
            realizable = table.realizable(values, m_max, n_max)
            if status == "unknown within bounds" and realizable:
                return WRONG
            if status == "oracle-witnessed" and (
                not realizable or int(match[3]) > m_max or int(match[4]) > n_max
            ):
                return WRONG
            seen.add(values)
            tally[status] += 1
        total = (
            f"total: {tally['constructed']} constructed, {tally['oracle-witnessed']} "
            f"oracle-witnessed, {tally['unknown within bounds']} unknown within bounds"
        )
        return OK if seen == subsets and len(lines) == len(subsets) + 1 and lines[-1] == total else WRONG

    return check


# Searches per list by cost class, plus conjecture-scan passes.  The
# refuted share of direct searches is (pruned + full) / 99 = 31/99; the
# scans add the refutations of the unsupported sets they search.  Sorted
# by cost: early witnesses, pruned refutations and scans (81, holding
# p50), late witnesses (5), full refutations (22, holding p90).
SEARCH_LIST = {"early": 63, "pruned": 9, "late": 5, "full": 22, "scan": 9}


def search_classes(table: AnswerTable) -> dict[str, list[tuple[tuple[int, ...], int, int]]]:
    """Every (target, m_max, n_max) with target a subset of {0..9}, by
    cost class: witnessed or refuted, after a cheap or a long scan."""
    classes: dict[str, list] = {"early": [], "late": [], "pruned": [], "full": []}
    for mask in range(1, 1 << 10):
        values = values_of(mask)
        for m_max, n_max in SEARCH_BOUNDS:
            witness, scanned = table.answer(values, m_max, n_max)
            cheap = scanned <= CHEAP_SCAN
            if witness is not None:
                name = "early" if cheap else "late"
            else:
                name = "pruned" if cheap else "full"
            classes[name].append((values, m_max, n_max))
    return classes


def search_op(table: AnswerTable, values, m_max: int, n_max: int) -> Op:
    argv = ["search", "--set", ",".join(map(str, values)),
            "--max-m", str(m_max), "--max-n", str(n_max), "--format", "json"]
    return Op("search", _check_search(table, values, m_max, n_max), argv)


def scan_op(table: AnswerTable, top: int, m_max: int, n_max: int) -> Op:
    argv = ["conjecture-scan", "--max-value", str(top), "--max-m", str(m_max), "--max-n", str(n_max)]
    return Op("conjecture-scan", _check_scan(table, top, m_max, n_max), argv)


def search_list(seed: int, expected: dict) -> list[Op]:
    rng = random.Random(seed)
    table = AnswerTable(expected)
    classes = search_classes(table)
    ops = []
    for name, count in SEARCH_LIST.items():
        if name == "scan":
            ops += [scan_op(table, *rng.choice(SCAN_PASSES)) for _ in range(count)]
        else:
            ops += [search_op(table, *target) for target in rng.sample(classes[name], count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- catalog

def _check_catalog_digest(expected: str) -> Callable[[Outcome], str]:
    def check(res: Outcome) -> str:
        if res.value is None:
            return REFUSED
        return OK if digest(res.value.to_jsonl()) == expected else WRONG

    return check


def _check_equivalence(m: int, n: int) -> Callable[[Outcome], str]:
    def check(res: Outcome) -> str:
        report = res.value
        if report is None:
            return REFUSED
        sound = report.necessity_ok and report.sufficiency_ok and not report.counterexamples
        return OK if sound and (report.m, report.n) == (m, n) else WRONG

    return check


def catalog_list(seed: int, expected: dict) -> list[Op]:
    """50 distinct operations, each once, in an order drawn by the seed:
    ``enumerate --emit sets`` at every shape, ``--emit pairs`` at every
    small shape and at 3x4 or 4x3 (by the seed), ``realizable_sets_up_to``
    at every small bound of at least four pairs, 2x5 and 5x2, and
    ``criterion_equivalence`` at the same shapes and 3x4.  Sorted by cost:
    CLI calls, merges and tests of 1 to 6 ms (31, holding p50), scans and
    tests of 12 to 65 ms (10), the test at 3x3 and the sets at 3x4 and 4x3
    (3, 130 to 190 ms), the merges at 2x5 and 5x2 (2, about 230 ms, holding
    p90 between them: the operations above their middle are a tenth of the
    list), the tests at 2x5 and 5x2 (2, about 300 ms) and the two full
    scans (about 2.2 s each)."""
    rng = random.Random(seed)
    digests = expected["catalog"]
    ops = [_enumerate_op(digests, m, n, "sets") for m, n in CATALOG_SHAPES]
    ops += [_enumerate_op(digests, m, n, "pairs") for m, n in SMALL_SHAPES]
    ops.append(_enumerate_op(digests, *rng.choice(((3, 4), (4, 3))), "pairs"))
    ops += [Op("realizable_sets_up_to", _check_catalog_digest(digests["upto"][f"{m}x{n}"]),
               call=("realizable_sets_up_to", (m, n))) for m, n in UPTO_BOUNDS]
    ops += [_equivalence_op(m, n) for m, n in EQUIVALENCE_SHAPES]
    rng.shuffle(ops)
    return ops


def _enumerate_op(digests: dict, m: int, n: int, emit: str) -> Op:
    argv = ["enumerate", "--m", str(m), "--n", str(n), "--emit", emit]
    return Op(f"enumerate-{emit}", _check_digest(digests["enumerate"][f"{m}x{n}/{emit}"]), argv)


def _equivalence_op(m: int, n: int) -> Op:
    return Op("criterion_equivalence", _check_equivalence(m, n), call=("criterion_equivalence", (m, n)))


WORKLOADS = {
    "construct": construct_list,
    "search": search_list,
    "catalog": catalog_list,
}

# Seconds one pass over a list took on the seed commit (2-core virtual
# machine) at the nominal host speed of hostspeed.py, reference kernels
# and set-up probe included.  A run makes --seconds / PASS_SECONDS passes,
# at least two, whatever the speed of the code under test, so that two
# commits are measured on the same number of samples.
PASS_SECONDS = {"construct": 6.2, "search": 3.3, "catalog": 6.2}
