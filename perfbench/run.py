#!/usr/bin/env python3
"""Run one scoresets benchmark workload, check every answer, print metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A single client sends each operation through ``scoresets.cli.main`` in
this process, with stdout and stdin redirected, or calls an oracle
function directly, and sends the next one only when it has returned
(closed loop).  The seed draws one list of operations; the client makes
a fixed number of passes over it, sized so that a pass of the seed commit
times the passes is about ``--seconds``, and checks every answer.  The
number of passes does not depend on the speed of the code under test.

Every correctly answered operation of every pass is one latency sample,
the first (cold) pass included.  Times are scaled to a nominal host
speed (``hostspeed.py``): a reference kernel runs right before every
operation and around every set-up probe, and a time is multiplied by the
nominal kernel time over the median kernel time around it.  The unscaled
figures are printed in the ``context`` line under ``raw``.

All passes run in one process, so an operation repeated in a later pass
may find state that an earlier call left behind (a memo, a warm
allocator), which a fresh CLI process would not have.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced passes alternate with passes under timing wrappers, so that both
meet the same host load; the per-layer metrics of the traced passes (per
pass) are printed, and the tracing overhead as traced over untraced
operations per second.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import workloads
from workloads import OK, WRONG, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_FIRST = 4  # set-up probes before the first pass; one more after each pass
SETUP_PROBE = "import scoresets.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def import_program():
    """Import scoresets from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import scoresets.cli
    import scoresets.oracle

    if Path(scoresets.__file__).resolve().parent != SRC / "scoresets":
        raise ImportError(f"scoresets imported from {scoresets.__file__}, not {SRC}")
    return scoresets.cli, scoresets.oracle


def call_cli(cli, argv: list[str], stdin: str = "") -> tuple[Outcome, float]:
    """Run ``cli.main(argv)`` with redirected streams; (outcome, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return Outcome(rc, out.getvalue(), error=err.getvalue()), elapsed


def call_library(oracle, name: str, args: tuple) -> tuple[Outcome, float]:
    start = time.perf_counter()
    try:
        value = getattr(oracle, name)(*args)
        error = ""
    except Exception:  # a crash is a failed operation, not the end of the run
        value, error = None, traceback.format_exc()
    return Outcome(None, value=value, error=error), time.perf_counter() - start


class Runner:
    """Executes passes over one operation list; keeps what metrics need."""

    def __init__(self, cli, oracle, ops: list[Op]) -> None:
        self.cli, self.oracle, self.ops = cli, oracle, ops
        self.times: list[float] = []  # seconds of every operation, in order
        self.refs: list[float] = []  # kernel seconds right before each one
        self.correct: list[int] = []  # places in ``times`` of correct answers
        self.passes = 0
        self.attempted = 0
        self.refused = 0
        self.wrong = 0
        self.stdout_bytes = 0
        self.first_problems: list[str] = []

    def execute(self, op: Op) -> tuple[Outcome, float]:
        if op.argv is not None:
            outcome, elapsed = call_cli(self.cli, op.argv, op.stdin() if op.stdin else "")
            self.stdout_bytes += len(outcome.out.encode("utf-8"))
            return outcome, elapsed
        return call_library(self.oracle, *op.call)

    def run_pass(self) -> None:
        for op in self.ops:
            self.refs.append(hostspeed.kernel())
            outcome, elapsed = self.execute(op)
            verdict = self.judge(op, outcome)
            self.attempted += 1
            self.times.append(elapsed)
            if verdict == OK:
                self.correct.append(len(self.times) - 1)
                continue
            if verdict == WRONG:
                self.wrong += 1
            else:
                self.refused += 1
            if len(self.first_problems) < 5:
                what = " ".join(op.argv) if op.argv is not None else f"{op.call[0]}{op.call[1]}"
                self.first_problems.append(
                    f"{verdict}: {what} (exit {outcome.rc}) {outcome.error.strip()[-200:]}"
                )
        self.passes += 1

    def judge(self, op: Op, outcome: Outcome) -> str:
        try:
            return op.check(outcome)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError):
            return WRONG  # output of an unexpected form

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def samples(self, scaled: bool = True) -> list[float]:
        """Seconds of every correct answer, at nominal host speed unless
        ``scaled`` is false."""
        times = hostspeed.scale(self.times, self.refs) if scaled else self.times
        return [times[i] for i in self.correct]

    def ops_per_s(self, scaled: bool = True) -> float:
        lat = self.samples(scaled)
        return len(lat) / sum(lat) if lat else 0.0


def pass_count(workload: str, seconds: float) -> int:
    """Passes of a run: about ``seconds`` of work at the seed commit's
    speed, at least two; the same for every commit measured."""
    return max(2, round(seconds / workloads.PASS_SECONDS[workload]))


def run_passes(runner: Runner, passes: int, setup: list[tuple[float, float]]) -> None:
    """``passes`` passes, with one set-up probe after each, so that probes
    meet the host load of the whole run."""
    for _ in range(passes):
        runner.run_pass()
        setup.append(hostspeed.around(setup_probe))


def setup_probe() -> float:
    """Seconds from starting an interpreter until scoresets.cli is
    imported and the first operation could be issued."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, stdout=subprocess.PIPE
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != b"ready\n":
            raise RuntimeError("setup probe failed to import scoresets")
    return elapsed


def end_to_end(runner: Runner, setup: list[tuple[float, float]], scaled: bool = True) -> dict:
    """End-to-end metrics; times at nominal host speed unless ``scaled``
    is false.  ``setup`` holds (probe seconds, kernel seconds) pairs."""
    lat = runner.samples(scaled)
    if len(lat) < 2:
        raise RuntimeError("fewer than two operations answered correctly; no latency quantiles")
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    probes = [t * hostspeed.NOMINAL_S / ref if scaled else t for t, ref in setup]
    return {
        "ops_per_s": (runner.ops_per_s(scaled), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(probes), "s"),
    }


def context(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "scoresets").glob("*.py")
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args, runner_class=Runner) -> tuple[dict, Runner, dict]:
    """Run the workload; (metrics by name as (value, unit), runner, extra
    context).  The self-test passes a Runner subclass that corrupts output."""
    cli, oracle = import_program()
    expected = workloads.load_expected()
    make_list = workloads.WORKLOADS[args.workload]
    runner = runner_class(cli, oracle, make_list(args.seed, expected))
    passes = pass_count(args.workload, args.seconds)
    if not args.trace:
        setup = [hostspeed.around(setup_probe) for _ in range(SETUP_FIRST)]
        run_passes(runner, passes, setup)
        raw = {name: value for name, (value, _) in end_to_end(runner, setup, scaled=False).items()}
        extra = {"ops": len(runner.ops), "passes": runner.passes, "raw": raw,
                 "host_speed": hostspeed.NOMINAL_S / statistics.median(runner.refs)}
        return end_to_end(runner, setup), runner, extra

    import tracer

    traced = runner_class(cli, oracle, make_list(args.seed, expected))
    trace = tracer.Tracer()
    for _ in range(max(1, round(passes / 2))):
        runner.run_pass()
        with trace:
            traced.run_pass()
    overhead = traced.ops_per_s() / runner.ops_per_s() if runner.ops_per_s() else 0.0
    metrics = trace.layer_metrics(traced.passes, traced.stdout_bytes, overhead)
    traced.attempted += runner.attempted
    traced.refused += runner.refused
    traced.wrong += runner.wrong
    traced.first_problems = runner.first_problems + traced.first_problems
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    trace.write(path, {"workload": args.workload, "seed": args.seed, "passes": traced.passes})
    extra = {"ops": len(runner.ops), "passes": traced.passes, "spans": len(trace.spans),
             "trace_file": str(path.relative_to(ROOT))}
    return metrics, traced, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        metrics, runner, extra = run_workload(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for problem in runner.first_problems:
        print(problem)
    print(f"operations: {runner.attempted} attempted, {runner.refused} refused, {runner.wrong} wrong")
    print(f"error_rate = {runner.failed / runner.attempted:.6f} (failed / attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("context " + json.dumps({**context(args), **extra}, sort_keys=True))
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
