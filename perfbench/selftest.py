#!/usr/bin/env python3
"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Quick mode: every workload keeps only the first operations of its list.
For each workload, an untraced and a traced run must print every metric
BENCHMARK.json names, with its unit, and end with the result line (keys
correct, attempted, failed, metrics); in a run whose answers are
corrupted (one CLI output and one library result per pass), every
corrupted answer must count as a wrong, failed operation; and the traced
runs must leave every name in the package's modules and classes as they
found it.  Exits 0 when every check holds.
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
QUICK = 14  # operations kept from each list


def quick(make):
    return lambda seed, expected: make(seed, expected)[:QUICK]


class CorruptingRunner(run.Runner):
    """In each pass, changes the first digit of the first CLI answer with a
    digit, and drops one entry from, or adds a counterexample to, the first
    library result, as a wrong answer from the program would.  Records the
    verdict every corrupted answer got."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.verdicts: dict[str, list[str]] = {"cli": [], "library": []}
        self.pending = None

    def run_pass(self) -> None:
        self.done: set[str] = set()
        super().run_pass()

    def execute(self, op):
        outcome, elapsed = super().execute(op)
        if op.argv is not None and "cli" not in self.done:
            digit = next((i for i, ch in enumerate(outcome.out) if ch.isdigit()), None)
            if digit is not None:
                flipped = str((int(outcome.out[digit]) + 1) % 10)
                outcome.out = outcome.out[:digit] + flipped + outcome.out[digit + 1:]
                self.pending = "cli"
        elif op.call is not None and "library" not in self.done and outcome.value is not None:
            value = outcome.value
            if hasattr(value, "sets") and value.sets:
                del value.sets[next(iter(value.sets))]
            else:
                value.counterexamples.append(("sufficiency", (), ()))
            self.pending = "library"
        return outcome, elapsed

    def judge(self, op, outcome) -> str:
        verdict = super().judge(op, outcome)
        if self.pending is not None:
            self.verdicts[self.pending].append(verdict)
            self.done.add(self.pending)
            self.pending = None
        return verdict


def check_printed(name: str, trace: int, spec: dict) -> list[str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    if code != 0 or not lines:
        return [f"{name} trace={trace}: exit {code}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{name} trace={trace}: correct={result['correct']} attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(wanted):
        problems.append(f"{name} trace={trace}: metrics {sorted(set(result['metrics']) ^ set(wanted))}")
    for metric, unit in wanted.items():
        got = result["metrics"].get(metric, {})
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} trace={trace}: {metric} = {got}")
        if not any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{name} trace={trace}: no printed line for {metric} in {unit}")
    return problems


def check_corruption(name: str) -> list[str]:
    args = run.parse_args(["--workload", name, "--seed", "1", "--seconds", "0"])
    _, runner, _ = run.run_workload(args, runner_class=CorruptingRunner)
    kinds = ("cli", "library") if any(op.call for op in runner.ops) else ("cli",)
    problems = []
    for kind in kinds:
        got = runner.verdicts[kind]
        if len(got) != runner.passes or any(v != workloads.WRONG for v in got):
            problems.append(f"{name}: corrupted {kind} answers judged {got} over {runner.passes} passes")
    if runner.wrong < sum(map(len, runner.verdicts.values())) or runner.failed < runner.wrong:
        problems.append(f"{name}: {runner.wrong} wrong, {runner.failed} failed")
    return problems


def namespaces() -> dict[tuple[str, str], object]:
    """Every attribute of the package's modules and of their classes."""
    modules = [sys.modules[m] for m in tracer.MODULES]
    classes = {value for module in modules for value in vars(module).values() if isinstance(value, type)}
    return {(f"{owner.__module__ if isinstance(owner, type) else ''}.{owner.__name__}", attr): value
            for owner in modules + sorted(classes, key=str) for attr, value in vars(owner).items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name, make in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = quick(make)
    run.import_program()
    before = namespaces()
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_printed(name, trace, spec)
        problems += check_corruption(name)
    after = namespaces()
    problems += [f"{owner}.{attr} not restored after tracing" for (owner, attr), value in before.items()
                 if after.get((owner, attr)) is not value]
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
