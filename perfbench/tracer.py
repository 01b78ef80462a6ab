"""Timing wrappers around the public entry points of each scoresets module.

``Tracer`` replaces every name a caller uses for a traced function (the
defining module, the modules that import it, the package) with a wrapper
that records a span: name, start, end, parent span and operation.  Spans
stay in memory and are written out at the end.  Counts are computed here
from each call's arguments and result, not read from the program.  On
exit every replaced name gets its original back.

Layers are the package modules: cli, constructions, graph_core, criteria
and oracle.  A layer's self time is the time of its spans minus the time
of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

MODULES = ("scoresets", "scoresets.cli", "scoresets.constructions", "scoresets.criteria",
           "scoresets.graph_core", "scoresets.oracle")
LAYERS = ("cli", "constructions", "graph_core", "criteria", "oracle")


def _pairs_built(counts, args, result):
    counts["pairs_built"] += result.graph.m * result.graph.n


def _json_out(counts, args, result):
    counts["json_out_bytes"] += len(result)


def _dot_out(counts, args, result):
    counts["dot_out_bytes"] += len(result)


def _json_in(counts, args, result):
    counts["json_in_bytes"] += len(args[0])


def _assignment_index(graph) -> int:
    index = 0
    for u in reversed(range(graph.m)):
        for v in reversed(range(graph.n)):
            index = index * 3 + int(graph.arc(u, v))
    return index


def _search(counts, args, result):
    """Shapes tried and pruned, and assignments an exhaustive scan in the
    documented order examines to reach this answer."""
    values, m_max, n_max = tuple(args[0]), args[1], args[2]
    shapes = workloads.shapes_within(m_max, n_max)
    if result is not None:
        shapes = shapes[: shapes.index((result.m, result.n)) + 1]
        counts["assignments_scanned"] += _assignment_index(result) + 1
    else:
        counts["refuted"] += 1
    for i, (m, n) in enumerate(shapes):
        if workloads.hopeless(values, m, n):
            counts["shapes_pruned"] += 1
            continue
        counts["shapes_tried"] += 1
        if result is None or i < len(shapes) - 1:
            counts["assignments_scanned"] += 3 ** (m * n)


def _catalog(counts, args, result):
    m, n = args[0], args[1]
    counts["catalog_keys"] += len(result.sets) + len(result.pairs)
    counts["catalog_assignments"] += 3 ** (m * n)


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit.
    It may be entered again; spans and counts accumulate."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if parent == -1:
                self.op += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _function(self, layer: str, module: str, attr: str, observe=None) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(f"{layer}.{attr}", original, observe)
        for name in MODULES:
            namespace = sys.modules[name]
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._replace(namespace, key, wrapper)

    def _method(self, layer: str, cls, attr: str, observe=None) -> None:
        original = cls.__dict__[attr]
        bound = isinstance(original, classmethod)
        wrapped = self._wrap(f"{layer}.{attr}", original.__func__ if bound else original,
                             observe and (lambda c, a, r: observe(c, a[1:], r)))
        self._replace(cls, attr, classmethod(wrapped) if bound else wrapped)

    def __enter__(self) -> "Tracer":
        from scoresets.constructions import Realization
        from scoresets.graph_core import BipartiteOrientedGraph
        from scoresets.oracle import EnumerationSpace

        self._function("cli", "scoresets.cli", "main")
        self._function("constructions", "scoresets.constructions", "classify")
        self._function("constructions", "scoresets.constructions", "build", _pairs_built)
        self._function("constructions", "scoresets.constructions", "realize")
        self._method("constructions", Realization, "verify")
        self._method("graph_core", BipartiteOrientedGraph, "score_sequences")
        self._method("graph_core", BipartiteOrientedGraph, "score_set")
        self._method("graph_core", BipartiteOrientedGraph, "to_json", _json_out)
        self._method("graph_core", BipartiteOrientedGraph, "to_dot", _dot_out)
        self._method("graph_core", BipartiteOrientedGraph, "from_json", _json_in)
        self._function("criteria", "scoresets.criteria", "check_bipartite_pair")
        self._function("oracle", "scoresets.oracle", "bounded_search", _search)
        self._function("oracle", "scoresets.oracle", "catalog_for_shape", _catalog)
        self._function("oracle", "scoresets.oracle", "realizable_sets_up_to")
        self._function("oracle", "scoresets.oracle", "criterion_equivalence")
        self._method("oracle", EnumerationSpace, "encode")
        self._method("oracle", EnumerationSpace, "decode")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total seconds and calls; per layer: self seconds."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            own[name.split(".")[0]] += end - start - inner
        return total, calls, own

    def layer_metrics(self, passes: int, stdout_bytes: int, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass over the operation list."""
        total, calls, own = self.totals()
        c = self.counts
        mb = 1e-6

        def ratio(num, den):
            return num / den if den else 0.0

        searches = calls["oracle.bounded_search"]
        metrics = {
            "cli.main_s": (total["cli.main"], "s"),
            "cli.self_s": (own["cli"], "s"),
            "cli.stdout_mb": (stdout_bytes * mb, "MB"),
            "constructions.classify_s": (total["constructions.classify"], "s"),
            "constructions.build_s": (total["constructions.build"], "s"),
            "constructions.verify_s": (total["constructions.verify"], "s"),
            "constructions.realize_s": (total["constructions.realize"], "s"),
            "constructions.realize_calls": (calls["constructions.realize"], "count"),
            "constructions.pairs_built": (c["pairs_built"], "count"),
            "graph_core.score_sequences_s": (total["graph_core.score_sequences"], "s"),
            "graph_core.score_set_s": (total["graph_core.score_set"], "s"),
            "graph_core.to_json_s": (total["graph_core.to_json"], "s"),
            "graph_core.to_dot_s": (total["graph_core.to_dot"], "s"),
            "graph_core.from_json_s": (total["graph_core.from_json"], "s"),
            "graph_core.json_out_mb": (c["json_out_bytes"] * mb, "MB"),
            "graph_core.json_in_mb": (c["json_in_bytes"] * mb, "MB"),
            "graph_core.dot_out_mb": (c["dot_out_bytes"] * mb, "MB"),
            "graph_core.to_json_mb_per_s": (ratio(c["json_out_bytes"] * mb, total["graph_core.to_json"]), "MB/s"),
            "graph_core.from_json_mb_per_s": (ratio(c["json_in_bytes"] * mb, total["graph_core.from_json"]), "MB/s"),
            "criteria.check_bipartite_pair_s": (total["criteria.check_bipartite_pair"], "s"),
            "criteria.check_bipartite_pair_calls": (calls["criteria.check_bipartite_pair"], "count"),
            "criteria.us_per_call": (ratio(total["criteria.check_bipartite_pair"] * 1e6, calls["criteria.check_bipartite_pair"]), "us"),
            "oracle.bounded_search_s": (total["oracle.bounded_search"], "s"),
            "oracle.bounded_search_calls": (searches, "count"),
            "oracle.shapes_tried": (c["shapes_tried"], "count"),
            "oracle.shapes_pruned": (c["shapes_pruned"], "count"),
            "oracle.assignments_scanned": (c["assignments_scanned"], "count"),
            "oracle.assignments_per_s": (ratio(c["assignments_scanned"], total["oracle.bounded_search"]), "1/s"),
            "oracle.refuted_share": (ratio(c["refuted"], searches), "ratio"),
            "oracle.catalog_for_shape_s": (total["oracle.catalog_for_shape"], "s"),
            "oracle.realizable_sets_up_to_s": (total["oracle.realizable_sets_up_to"], "s"),
            "oracle.criterion_equivalence_s": (total["oracle.criterion_equivalence"], "s"),
            "oracle.catalog_keys": (c["catalog_keys"], "count"),
            "oracle.keys_per_assignment": (ratio(c["catalog_keys"], c["catalog_assignments"]), "ratio"),
            "oracle.encode_decode_s": (total["oracle.encode"] + total["oracle.decode"], "s"),
        }
        for layer in LAYERS[1:]:
            metrics[f"{layer}.self_s"] = (own[layer], "s")
        per_pass = {
            name: (value / passes if unit in ("s", "MB", "count") else value, unit)
            for name, (value, unit) in metrics.items()
        }
        per_pass["trace.overhead"] = (overhead, "ratio")
        return per_pass

    def write(self, path: Path, meta: dict) -> None:
        """Spans as JSON lines after one meta line; times from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**meta, "fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, op]) + "\n")
