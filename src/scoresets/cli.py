"""Command-line interface.

Exit codes: 0 the command completed (negative mathematical answers
included), 1 bad input, 2 unsupported score-set family, 3 enumeration
budget exceeded.  A reader that closes stdout early ends the command
quietly with 0.  Importing this module imports no numpy: the oracle is
imported by the commands that enumerate, and the graph methods that
build or read an array import numpy themselves.  The package's records
are named tuples, so it loads no data-class machinery either.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, combinations
from typing import Iterable, Sequence

from .constructions import UnsupportedScoreSetError, realize, spans
from .graph_core import DEFAULT_BUDGET, BipartiteOrientedGraph, BudgetExceededError
from .graph_core import ScoreSequencePair, ScoreSet
from .criteria import check_bipartite_pair, check_oriented_scores


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on parse errors; 2 is taken, so raise bad input instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def main(argv: Sequence[str] | None = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UnsupportedScoreSetError as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except BrokenPipeError as err:
        if getattr(args, "out", None) is not None:  # the --out file, not stdout
            print(f"error: {err}", file=sys.stderr)
            return 1
        _drop_stdout()
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _drop_stdout() -> None:
    """Point a closed stdout's file descriptor at the null device, so the
    interpreter's final flush of what is still buffered cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no real file, as in-process
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@functools.cache  # one parser per process: building it cost more than a cheap command
def _build_parser() -> _Parser:
    parser = _Parser(prog="scoresets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="construct a graph with the given score set")
    p.add_argument("--set", required=True, metavar="LIST", help="comma-separated scores")
    p.add_argument("--format", choices=("json", "dot", "summary"), default="summary")
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("score", help="score sequences and score set of a graph JSON file")
    p.add_argument("--graph", required=True, metavar="FILE", help="graph JSON file, '-' for stdin")
    p.add_argument("--format", choices=("json", "summary"), default="summary")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("check-pair", help="check a bipartite score-sequence pair")
    p.add_argument("--a", required=True, metavar="LIST", help="U-part sequence")
    p.add_argument("--b", required=True, metavar="LIST", help="V-part sequence")
    p.set_defaults(func=_cmd_check_pair)

    p = sub.add_parser("check-oriented", help="check an oriented-graph score sequence")
    p.add_argument("--scores", required=True, metavar="LIST")
    p.set_defaults(func=_cmd_check_oriented)

    p = sub.add_parser("enumerate", help="catalog all score sets or pairs of one shape")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--emit", choices=("sets", "pairs"), required=True)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("search", help="exhaustive witness search within shape bounds")
    p.add_argument("--set", required=True, metavar="LIST")
    p.add_argument("--max-m", required=True, type=int)
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--format", choices=("json", "summary"), default="summary")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "conjecture-scan",
        help="try to realize every nonempty subset of {1..V}, constructions first",
    )
    p.add_argument("--max-value", required=True, type=int, metavar="V")
    p.add_argument("--max-m", required=True, type=int)
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_conjecture_scan)

    return parser


def _parse_int_list(text: str, flag: str) -> list[int]:
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{flag} expects comma-separated integers, got {token!r}") from None
    return values


def _parse_score_set(text: str, flag: str = "--set") -> ScoreSet:
    values = _parse_int_list(text, flag)
    score_set = ScoreSet.from_values(values)
    if list(score_set) != values:
        print(
            f"warning: {flag} values reordered and deduplicated to "
            f"{','.join(map(str, score_set))}",
            file=sys.stderr,
        )
    return score_set


def _write(texts: Iterable[str], out: str | None) -> None:
    """Write each text as it comes, to stdout or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(texts)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(texts)


def _cmd_realize(args: argparse.Namespace) -> int:
    score_set = _parse_score_set(args.set)
    realization = realize(score_set)
    if args.format == "json":
        texts = chain(realization.texts("json"), ("\n",))
    elif args.format == "dot":
        texts = realization.texts("dot")
    else:
        lines = [
            f"score set {score_set}",
            f"family {realization.family.name}",
            f"m = {realization.m}, n = {realization.n}",
            "U blocks: " + _fmt_blocks(realization.u_blocks),
            "V blocks: " + _fmt_blocks(realization.v_blocks),
        ]
        texts = ["\n".join(lines) + "\n"]
    _write(texts, args.out)
    return 0


def _fmt_blocks(blocks) -> str:
    return " ".join(
        f"{label}[{start}:{stop})={b.score}" for (label, start, stop), b in zip(spans(blocks), blocks)
    )


def _cmd_score(args: argparse.Namespace) -> int:
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        with open(args.graph, "r", encoding="utf-8") as handle:
            text = handle.read()
    g = BipartiteOrientedGraph.from_json(text)
    pair = g.score_sequences()
    a, b = pair.a, pair.b
    score_set = ScoreSet.from_values(a + b)
    if args.format == "json":
        doc = {"m": g.m, "n": g.n, "a": a, "b": b, "set": score_set.values}
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(f"a = [{','.join(map(str, a))}]")
        print(f"b = [{','.join(map(str, b))}]")
        print(f"score set {score_set}")
    return 0


def _cmd_check_pair(args: argparse.Namespace) -> int:
    a = _parse_int_list(args.a, "--a")
    b = _parse_int_list(args.b, "--b")
    violation = check_bipartite_pair(ScoreSequencePair(tuple(a), tuple(b)))
    print("valid" if violation is None else violation.describe(("p", "q")))
    return 0


def _cmd_check_oriented(args: argparse.Namespace) -> int:
    scores = _parse_int_list(args.scores, "--scores")
    violation = check_oriented_scores(scores)
    print("valid" if violation is None else violation.describe(("k",)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .oracle import catalog_for_shape

    emit_sets = args.emit == "sets"
    catalog = catalog_for_shape(
        args.m, args.n, budget=args.budget, sets=emit_sets, pairs=not emit_sets
    )
    _write([catalog.to_jsonl()], args.out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .oracle import EnumerationSpace, bounded_search

    score_set = _parse_score_set(args.set)
    witness = bounded_search(score_set, args.max_m, args.max_n, budget=args.budget)
    if witness is None:
        print('{"realizable":false}' if args.format == "json" else "not realizable within bounds")
        return 0
    index = EnumerationSpace(witness.m, witness.n).encode(witness)
    if args.format == "json":
        print(
            f'{{"realizable":true,"m":{witness.m},"n":{witness.n},"index":"{index}",'
            f'"graph":{witness.to_json()}}}'
        )
    else:
        print(f"witness found: m={witness.m} n={witness.n} index={index}")
        print(witness.to_json())
    return 0


def _cmd_conjecture_scan(args: argparse.Namespace) -> int:
    from .oracle import _shapes, bounded_search

    top = args.max_value
    if top < 1:
        raise ValueError("--max-value must be at least 1")
    _shapes(args.max_m, args.max_n, args.budget)  # bad bounds fail before the first line
    tallies = dict.fromkeys(("constructed", "oracle-witnessed", "unknown within bounds"), 0)
    for size in range(1, top + 1):
        for values in combinations(range(1, top + 1), size):
            score_set = ScoreSet(values)
            try:
                found = realize(score_set)
                status = "constructed"
            except UnsupportedScoreSetError:
                found = bounded_search(score_set, args.max_m, args.max_n, budget=args.budget)
                status = "unknown within bounds" if found is None else "oracle-witnessed"
            tallies[status] += 1
            shape = "" if found is None else f" (m={found.m}, n={found.n})"
            print(f"{score_set}: {status}{shape}")
    print("total: " + ", ".join(f"{count} {status}" for status, count in tallies.items()))
    return 0
