"""Spans around the program's public functions, recorded from outside.

The program is not instrumented.  ``Tracer.install`` replaces each target
function at its module attribute with a wrapper that records a span (name,
start, end, parent span, op id); the harness calls ``buf.*``, ``cnt.*``,
``qstate.*`` and ``tomo.*`` through those attributes and ``write_run_result``
and ``scenario_to_dict`` through its module globals, so the wrappers see every
call on the op path.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct child
spans (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

# A counter maps (args, kwargs, result) to a number recorded at the boundary.
Counter = Callable[[tuple, dict, Any], Any]

OP_SPAN = "op"


class Tracer:
    def __init__(self, targets: list[tuple[ModuleType, str, str, Counter | None]]):
        """``targets`` holds (module, attribute, layer name, counter or None)."""
        self.targets = targets
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, Any]] = []
        self.op_id = -1
        self._op_call = self._wrap(OP_SPAN, lambda fn, *args: fn(*args), None)

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if counter is not None:
                self.counts[name].append(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_op(self, op_id: int, fn: Callable, *args) -> Any:
        """Run one op under a root span named ``op``."""
        self.op_id = op_id
        return self._op_call(fn, *args)

    def self_times_ns(self) -> dict[str, list[int]]:
        """Self time of every span, grouped by span name."""
        child_total = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_total[span[3]] += span[2] - span[1]
        out: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span is not None:
                out[span[0]].append(span[2] - span[1] - child_total[idx])
        return out

    def layer_metrics(self, layer_names: list[str]) -> dict[str, float]:
        """Calls, median self time and share of op time for each layer."""
        selfs = self.self_times_ns()
        op_total = sum(
            s[2] - s[1] for s in self.spans if s is not None and s[0] == OP_SPAN
        )
        metrics: dict[str, float] = {}
        for name in layer_names:
            values = selfs.get(name, [])
            metrics[f"{name}.calls"] = len(values)
            metrics[f"{name}.self_ms_p50"] = statistics.median(values) / 1e6 if values else 0.0
            metrics[f"{name}.share"] = sum(values) / op_total if op_total else 0.0
        module_self: dict[str, int] = defaultdict(int)
        for name, values in selfs.items():
            module_self["bench" if name == OP_SPAN else name.split(".")[0]] += sum(values)
        modules = {name.split(".")[0] for name in layer_names} | {"bench"}
        for module in sorted(modules):
            metrics[f"{module}.share"] = module_self[module] / op_total if op_total else 0.0
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    ) + "\n")
