"""The layer table: which public functions are traced and what is counted.

Layer names are ``<module>.<function>`` for the modules of ``src/fiberloop``.
The ``cli`` module is on no workload's op path (its cost is argument parsing
and printing) and ``import fiberloop`` does not load it, so it has no spans.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path

from fiberloop import buffer, counting, harness, qstate, tomography

from spans import OP_SPAN, Tracer


def _timeline_events(args, kwargs, result):
    return len(result.events)


def _kraus_ops(args, kwargs, result):
    channel = args[1] if len(args) > 1 else kwargs["channel"]
    return len(channel.kraus_ops)


def _net_counts(args, kwargs, result):
    return sum(record.net for record in result)


def _artifact_dir(args, kwargs, result):
    return str(Path(result.artifacts["timeline"]).parent)


TARGETS = (
    (buffer, "rf_pattern_for", None),
    (buffer, "simulate_timeline", _timeline_events),
    (buffer, "channel_for_timeline", None),
    (qstate, "apply_idler_channel", _kraus_ops),
    (qstate, "compose_channels", None),
    (qstate, "state_fidelity", None),
    (counting, "simulate_dataset", _net_counts),
    (counting, "write_dataset_csv", None),
    (tomography, "reconstruct_state", None),
    (tomography, "reconstruct_chi", None),
    (tomography, "report_metrics", None),
    (harness, "run_scenario", None),
    (harness, "write_run_result", _artifact_dir),
    (harness, "scenario_to_dict", None),
)


def _layer_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


LAYER_NAMES = [_layer_name(module, attr) for module, attr, _ in TARGETS]


def make_tracer() -> Tracer:
    return Tracer([(module, attr, _layer_name(module, attr), counter)
                   for module, attr, counter in TARGETS])


def _p50(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 for layers the workload never calls)."""
    metrics = tracer.layer_metrics(LAYER_NAMES)
    ops = sum(1 for span in tracer.spans if span is not None and span[0] == OP_SPAN)
    counts = tracer.counts
    metrics["buffer.timeline_events_p50"] = _p50(counts["buffer.simulate_timeline"])
    metrics["qstate.kraus_ops_p50"] = _p50(counts["qstate.apply_idler_channel"])
    metrics["counting.net_counts_p50"] = _p50(counts["counting.simulate_dataset"])
    n_files = n_bytes = 0
    for directory in counts["harness.write_run_result"]:
        with os.scandir(directory) as entries:
            for entry in entries:
                if entry.is_file():
                    n_files += 1
                    n_bytes += entry.stat().st_size
    metrics["harness.files_written_per_op"] = n_files / ops if ops else 0.0
    metrics["harness.bytes_written_per_op"] = n_bytes / ops if ops else 0.0
    return metrics
