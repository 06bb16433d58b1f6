"""Timing wrappers for the traced run, and the per-layer metrics they give.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each wrapper in every ``cbsbounds`` namespace that holds the original
by name (``cbs.distance_field``, ``mdd.distance_field``, ``cli.solve`` and so
on), so calls between modules are traced too. ``uninstall`` puts the
originals back. Untraced runs never call ``install``.

A span is (name, start, end, parent index, task id); spans stay in memory
until ``dump`` writes them as JSON lines. Counts are derived from arguments
and results, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("recurrence", "genfunc", "bounds", "model", "mdd", "cbs", "cli")
# Only the entry point of the CLI is a span; its self time is argparse, file
# I/O and formatting.
ONLY = {"cli": {"main"}}
# Span names for the CLI and for the two parsers, which share one metric.
RENAME = {"cli.main": "cli", "model.parse_map": "model.parse", "model.parse_scen": "model.parse"}


def _metric(name: str) -> tuple[str, str, str]:
    kind = name.rsplit(".", 1)[1]
    if kind.endswith("_s"):
        return name, "s", "lower"
    if kind == "ns_per_cell":
        return name, "ns", "lower"
    if name in ("trace.coverage", "cbs.ct.expanded_per_generated"):
        return name, "ratio", "higher"
    if kind in ("fail_ratio", "overhead_frac"):
        return name, "ratio", "lower"
    return name, "count", "lower"


# (name, unit, better) of every metric a traced run reports.
PER_LAYER = [_metric(name) for name in (
    "recurrence.eval_log.calls", "recurrence.eval_log.busy_s",
    "recurrence.eval_exact.calls", "recurrence.eval_exact.busy_s",
    "recurrence.cells", "recurrence.ns_per_cell",
    "genfunc.calls", "genfunc.busy_s",
    "bounds.compare.calls", "bounds.busy_s",
    "model.radius.calls", "model.radius.busy_s", "model.radius.self_s",
    "model.distance_field.calls", "model.distance_field.busy_s",
    "model.distance_field.cells", "model.parse.busy_s",
    "mdd.build_mdd.calls", "mdd.build_mdd.busy_s", "mdd.build_mdd.self_s",
    "mdd.mdd_size.busy_s", "mdd.nodes", "mdd.edges",
    "cbs.solve.calls", "cbs.solve.busy_s", "cbs.solve.self_s",
    "cbs.low_level_search.calls", "cbs.low_level_search.busy_s",
    "cbs.low_level_search.fail_ratio",
    "cbs.find_conflicts.calls", "cbs.find_conflicts.busy_s",
    "cbs.ct.generated", "cbs.ct.expanded", "cbs.ct.expanded_per_generated",
    "cbs.validate.busy_s",
    "cbs.empirical_bound_check.busy_s", "cbs.empirical_bound_check.self_s",
    "cli.calls", "cli.busy_s", "cli.self_s",
    "trace.overhead_frac", "trace.coverage",
)]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, task)
        self.counts: dict[str, int] = {}
        self.task = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _counter(self, name: str):
        """What to count for a span, from its arguments and result."""
        if name in ("recurrence.eval_log", "recurrence.eval_exact"):
            return lambda args, kw, res: self._count("recurrence.cells", args[0] * args[1])
        if name == "model.distance_field":
            return lambda args, kw, res: self._count("model.distance_field.cells", int((res >= 0).sum()))
        if name == "mdd.build_mdd":
            def mdd_count(args, kw, res):
                self._count("mdd.nodes", sum(len(layer) for layer in res.layers))
                self._count("mdd.edges", sum(len(s) for adj in res.edges for s in adj.values()))
            return mdd_count
        if name == "cbs.low_level_search":
            return lambda args, kw, res: self._count("cbs.low_level_search.failed", res is None)
        if name == "cbs.solve":
            def ct_count(args, kw, res):
                self._count("cbs.ct.generated", res[1].generated)
                self._count("cbs.ct.expanded", res[1].expanded)
            return ct_count
        return None

    def _wrap(self, fn, name: str):
        spans, stack, counter = self.spans, self._stack, self._counter(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task)
            if counter is not None:
                counter(args, kw, res)
            return res

        return wrapper

    def install(self, package) -> None:
        namespaces = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or attr not in ONLY.get(layer, {attr})
                ):
                    continue
                full = f"{layer}.{attr}"
                wrapper = self._wrap(fn, RENAME.get(full, full))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._undo):
            setattr(ns, key, fn)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in filter(None, self.spans):
                name, start, end, parent, task = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")

    def metrics(self, task_wall_s: float) -> dict:
        """Per-function calls, busy and self time; per-layer busy time; counts.

        busy is the summed span time; self is busy minus direct child spans.
        A layer's busy time counts only spans whose parent is in another layer.
        """
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        layer_busy: dict[str, float] = {}
        top = 0.0
        for span in self.spans:
            if span is None:  # interrupted by the deadline before it began
                continue
            name, start, end, parent, _ = span
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur
            layer = name.split(".")[0]
            if parent is None:
                top += dur
                layer_busy[layer] = layer_busy.get(layer, 0.0) + dur
            else:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - dur
                if pname.split(".")[0] != layer:
                    layer_busy[layer] = layer_busy.get(layer, 0.0) + dur

        def total(prefix, table):
            return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

        rec_busy = busy.get("recurrence.eval_log", 0.0) + busy.get("recurrence.eval_exact", 0.0)
        cells = self.counts.get("recurrence.cells", 0)
        ll_calls = calls.get("cbs.low_level_search", 0)
        generated = self.counts.get("cbs.ct.generated", 0)
        out = {
            "recurrence.eval_log.calls": calls.get("recurrence.eval_log", 0),
            "recurrence.eval_log.busy_s": busy.get("recurrence.eval_log", 0.0),
            "recurrence.eval_exact.calls": calls.get("recurrence.eval_exact", 0),
            "recurrence.eval_exact.busy_s": busy.get("recurrence.eval_exact", 0.0),
            "recurrence.cells": cells,
            "recurrence.ns_per_cell": rec_busy / cells * 1e9 if cells else 0.0,
            "genfunc.calls": total("genfunc", calls),
            "genfunc.busy_s": layer_busy.get("genfunc", 0.0),
            "bounds.compare.calls": calls.get("bounds.compare", 0),
            "bounds.busy_s": layer_busy.get("bounds", 0.0),
            "model.parse.busy_s": busy.get("model.parse", 0.0),
            "mdd.mdd_size.busy_s": busy.get("mdd.mdd_size", 0.0),
            "mdd.nodes": self.counts.get("mdd.nodes", 0),
            "mdd.edges": self.counts.get("mdd.edges", 0),
            "model.distance_field.cells": self.counts.get("model.distance_field.cells", 0),
            "cbs.low_level_search.fail_ratio": (
                self.counts.get("cbs.low_level_search.failed", 0) / ll_calls if ll_calls else 0.0
            ),
            "cbs.ct.generated": generated,
            "cbs.ct.expanded": self.counts.get("cbs.ct.expanded", 0),
            "cbs.ct.expanded_per_generated": (
                self.counts.get("cbs.ct.expanded", 0) / generated if generated else 0.0
            ),
            "cbs.validate.busy_s": busy.get("cbs.validate", 0.0),
            "trace.coverage": top / task_wall_s if task_wall_s else 0.0,
        }
        for name in ("model.radius", "mdd.build_mdd", "cbs.solve", "cli",
                     "cbs.empirical_bound_check", "cbs.low_level_search",
                     "cbs.find_conflicts", "model.distance_field"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        return out
