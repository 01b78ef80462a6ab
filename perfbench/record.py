#!/usr/bin/env python3
"""Record the answer table the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/data/expected.json``: the construct pool (score sets by
builder branch and size class, with part sizes and sha256 digests of
``realize --format json`` and ``--format dot``), the first witness index
of every score set at every shape the search workload reaches, and the
digests of every catalog workload output.  Every recorded graph and
witness is scored again by the benchmark's own scorer before it is kept.
Run it only on a commit whose outputs are known good; the table pins them.
"""

from __future__ import annotations

import json
import math
import random
import sys

import workloads
from run import call_cli, import_program
from workloads import EXPECTED, digest, parse_graph, score_states, set_mask, states_of_index

# Size classes by pairs m*n, or by arcs for export sets, whose dot, json
# and score costs follow the arcs.  "small" and "export" sets also run
# dot, json and score; "large" and "giant" sets only the summary.
STRATA = {
    "small": ("pairs", 400, 10_000),
    "export": ("arcs", 46_000, 54_000),
    "large": ("pairs", 1_960_000, 2_040_000),
}
PER_BRANCH = 6
GIANT = (1, 3, 9, 27, 81, 243, 729, 2187, 6561)  # geometric(1, 3, 8): 4921 x 4921
FAMILY = {
    "singleton": "Singleton", "doubleton": "Doubleton", "triple-wide": "Triple",
    "triple-narrow": "Triple", "arith-wide": "Arithmetic", "arith-equal": "Arithmetic",
    "arith-narrow": "Arithmetic", "geo-ratio2": "Geometric", "geo-layered": "Geometric",
}


def _ratio2_part(a: int, n: int) -> int:
    sizes = [a, a]
    for i in range(3, n + 1):
        sizes.append(2**i * a - 2 * sum(sizes))
    return sum(sizes)


def _layered_part(a: int, d: int, n: int) -> int:
    part = a * d - a
    for e in range(2, n + 1):
        part = a * d**e - part
    return part


def candidate(branch: str, s: int, rng: random.Random):
    """A score set of ``branch`` whose parts should be near s x s, with
    the part sizes the builder's docstring predicts, or None.  Values
    keep fixed proportions to s, so sets of one branch and size class
    have about the same number of arcs."""
    if branch == "singleton":
        return (s,), s, s
    if branch == "doubleton":
        a1, a2 = round(0.8 * s), round(s / 0.8)
        return (a1, a2), a2, a1
    if branch == "triple-wide":
        a1, a2 = round(0.1 * s), round(0.3 * s)
        a3 = round((a1 + a2) / 2 + math.sqrt(((a2 - a1) / 2) ** 2 + s * s))
        return ((a1, a2, a3), a3 - a2, a3 - a1) if 1 <= a1 < a2 and a3 > 2 * a2 else None
    if branch == "triple-narrow":
        return (round(0.4 * s), s, round(1.6 * s)), s, s
    if branch == "arith-wide":  # four steps: blocks of widths a, d-a, a, d-a, a
        a = max(1, round(0.1 * s))
        d = a + round((s - 3 * a) / 2)
        return tuple(a + i * d for i in range(5)), 3 * a + 2 * (d - a), 3 * a + 2 * (d - a)
    if branch == "arith-equal":
        a = round(s / 3)
        return tuple(a * (i + 1) for i in range(5)), 3 * a, 3 * a
    if branch == "arith-narrow":
        d = max(1, round(0.3 * s))
        a = s - 2 * d
        return tuple(a + i * d for i in range(5)), a + 2 * d, a + 2 * d
    if branch == "geo-ratio2":
        n = rng.randint(3, 9)
        a = max(1, round(s / _ratio2_part(1, n)) + rng.randint(-1, 1))
        part = _ratio2_part(a, n)
        return tuple(a * 2**i for i in range(n + 1)), part, part
    if branch == "geo-layered":
        d, n = rng.randint(3, 7), rng.randint(3, 6)
        a = max(1, round(s / _layered_part(1, d, n)) + rng.randint(-1, 1))
        part = _layered_part(a, d, n)
        return tuple(a * d**i for i in range(n + 1)), part, part
    raise ValueError(branch)


def realize_entry(cli, values, branch: str, stratum: str) -> dict:
    text = ",".join(map(str, values))
    summary, _ = call_cli(cli, ["realize", "--set", text, "--format", "summary"])
    lines = summary.out.splitlines()
    assert summary.rc == 0 and f"family {FAMILY[branch]}" in lines, (values, summary)
    m, n = (int(part.split("=")[1]) for part in lines[2].split(","))
    entry = {"set": list(values), "branch": branch, "stratum": stratum, "m": m, "n": n}
    if stratum in ("small", "export"):
        js, _ = call_cli(cli, ["realize", "--set", text, "--format", "json"])
        dot, _ = call_cli(cli, ["realize", "--set", text, "--format", "dot"])
        parsed = parse_graph(js.out)
        assert parsed is not None and parsed[:2] == (m, n), values
        a, b = score_states(*parsed)
        assert sorted(set(a) | set(b)) == list(values), values
        entry["json"], entry["dot"] = digest(js.out), digest(dot.out)
        entry["arcs"] = m * n - parsed[2].count(0)
    return entry


def record_construct(cli) -> list[dict]:
    rng = random.Random(0)
    pool = []
    for stratum, (measure, lo, hi) in STRATA.items():
        for branch in FAMILY:
            density = 1.0
            if measure == "arcs":
                sample = realize_entry(cli, candidate(branch, 300, rng)[0], branch, "small")
                density = sample["arcs"] / (sample["m"] * sample["n"])
            found: dict[tuple, tuple] = {}
            for _ in range(20000):
                if len(found) == PER_BRANCH:
                    break
                s = round(math.sqrt(rng.uniform(lo, hi) / density))
                got = candidate(branch, s, rng)
                if got is not None and lo <= got[1] * got[2] * density <= hi:
                    found.setdefault(got[0], got)
            for values in sorted(found):
                entry = realize_entry(cli, values, branch, stratum)
                size = entry["m"] * entry["n"] if measure == "pairs" else entry["arcs"]
                if lo <= size <= hi:
                    pool.append(entry)
                else:
                    print(f"dropped {branch} {values}: {entry['m']}x{entry['n']}", file=sys.stderr)
            print(f"{stratum} {branch}: {len(found)} sets", file=sys.stderr)
    pool.append(realize_entry(cli, GIANT, "geo-layered", "giant"))
    return pool


def record_search(oracle) -> dict[str, list[list[int]]]:
    shapes = sorted({s for bound in workloads.SEARCH_BOUNDS for s in workloads.shapes_within(*bound)}
                    | {s for _, m, n in workloads.SCAN_PASSES for s in workloads.shapes_within(m, n)})
    table = {}
    for m, n in shapes:
        catalog = oracle.catalog_for_shape(m, n, sets=True, pairs=False)
        rows = []
        for key, witness in sorted(catalog.sets.items()):
            a, b = score_states(m, n, states_of_index(m, n, witness.index))
            assert sorted(set(a) | set(b)) == list(key), (m, n, key)
            rows.append([set_mask(key), witness.index])
        table[f"{m}x{n}"] = rows
    return table


def zero_sets(table: dict) -> list[dict]:
    """0-containing score sets witnessed by a graph with parts up to 2x2."""
    masks = {mask for shape in ("1x1", "1x2", "2x1", "2x2") for mask, _ in table[shape]}
    return [
        {"set": list(workloads.values_of(mask)), "branch": "zero", "stratum": "zero"}
        for mask in sorted(masks) if mask & 1
    ]


def record_catalog(cli, oracle) -> dict:
    enumerate_digests = {}
    for m, n in workloads.CATALOG_SHAPES:
        for emit in ("sets", "pairs"):
            res, _ = call_cli(cli, ["enumerate", "--m", str(m), "--n", str(n), "--emit", emit])
            assert res.rc == 0, (m, n, emit)
            enumerate_digests[f"{m}x{n}/{emit}"] = digest(res.out)
    upto = {f"{m}x{n}": digest(oracle.realizable_sets_up_to(m, n).to_jsonl())
            for m, n in workloads.UPTO_BOUNDS}
    return {"enumerate": enumerate_digests, "upto": upto}


def main() -> int:
    cli, oracle = import_program()
    search = record_search(oracle)
    expected = {
        "construct": record_construct(cli) + zero_sets(search),
        "search": search,
        "catalog": record_catalog(cli, oracle),
    }
    EXPECTED.parent.mkdir(exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
