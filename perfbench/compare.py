#!/usr/bin/env python3
"""Compare a parent and a change with the benchmark's own rule.

    python3 perfbench/compare.py pairs --parent DIR --change DIR --out DIR
    python3 perfbench/compare.py judge PARENT.jsonl CHANGE.jsonl

``pairs`` runs ``perfbench/run.py`` in two checkouts on every workload of
BENCHMARK.json, one run at a time, for seeds 1 to 10, alternating which
side runs first, and appends one JSON line per run to ``parent.jsonl`` and
``change.jsonl`` in ``--out``.

``judge`` reads two such files and prints one row per workload and
end-to-end metric, pairing runs by seed; it gives no verdict on a workload
with fewer than 10 paired seeds.  The change gains when it wins at
least 9 of 10 pairs (ties count for neither side) and the medians differ
by more than the parent's interquartile range.  It regresses when its
median is worse than the parent's by more than the metric's bound from
BENCHMARK.json.  Where either side's spread (interquartile range over
median) exceeds the bound, the row is "unresolved", unless every run of
the change beats every run of the parent.  A last row per workload
compares the failure shares; a gain does not count if the change fails
more often than the parent.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # seeds 1..PAIRS, one parent and one change run each


def load(path: str) -> dict[str, dict[int, dict]]:
    """Results by workload and seed."""
    runs: dict[str, dict[int, dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, str]:
    lower = metric["better"] == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    losses = sum(beats(p, c) for p, c in zip(parent, change))
    mp, iqr_p = spread(parent)
    mc, iqr_c = spread(change)
    worse = (mc - mp) / mp if lower else (mp - mc) / mp
    tally = f"{wins}W/{losses}L of {len(parent)}"
    if beats(mc, mp) and wins >= 0.9 * len(parent) and abs(mc - mp) > iqr_p:
        return "gain", tally
    if max(iqr_p / mp, iqr_c / mc) > metric["bound"]:
        every = all(beats(c, p) for c in change for p in parent)
        return ("better in every run" if every else "unresolved"), tally
    if worse > metric["bound"]:
        return "regression", tally
    return "no regression", tally


def judge(parent_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<10} {'metric':<12} {'parent median [q1,q3]':<30} "
          f"{'change median [q1,q3]':<30} {'pairs':<12} verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if len(seeds) < PAIRS:
            print(f"{workload:<10} too few pairs: {len(seeds)} paired seeds, {PAIRS} needed")
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        gained = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            result, tally = verdict(metric, p_vals, c_vals)
            if result == "gain":
                gained.append(name)
            print(f"{workload:<10} {name:<12} {_quartiles(p_vals):<30} {_quartiles(c_vals):<30} "
                  f"{tally:<12} {result}")
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        note = "change fails more often; its gains do not count" if c_fail > p_fail and gained else (
            "change fails more often" if c_fail > p_fail else "not more failures")
        wrong = [side for side, runs in (("parent", p_runs), ("change", c_runs))
                 if not all(r["correct"] for r in runs)]
        if wrong:
            note += "; wrong answers on " + " and ".join(wrong)
        print(f"{workload:<10} {'failed':<12} {p_fail:<30.6f} {c_fail:<30.6f} {'':<12} {note}")
    return 0


def _quartiles(values: list[float]) -> str:
    median, _ = spread(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.5g} [{q1:.5g},{q3:.5g}]"


def run_one(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pairs(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for i in range(PAIRS):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_one(sides[side], workload, seed, spec["run_seconds"])
                rec = {"workload": workload, "seed": seed, "first": order[0], "result": result}
                with open(out / f"{side}.jsonl", "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(rec) + "\n")
                print(f"{workload} seed {seed} {side}: {result['metrics']}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run alternating pairs of parent and change")
    p.add_argument("--parent", required=True, metavar="DIR")
    p.add_argument("--change", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p = sub.add_parser("judge", help="apply the comparison rule to two result files")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "judge":
        return judge(args.parent, args.change)
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
