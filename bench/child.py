"""One benchmark process: set-up in a fresh interpreter, then an optional run.

    python3 bench/child.py --workload NAME --seed N --work-dir DIR
        [--seconds S --trace 0|1 --spans FILE]

Set-up is ``import fiberloop``, building the workload inputs and one untimed
warm-up op on a fixed input; the child then prints ``{"ready": <perf_counter>, ...}`` so the
parent can time set-up from before it spawned the interpreter.  Without
``--seconds`` it stops there.  With it, it runs the closed loop for that many
seconds, checks every op's outputs after the timed region and prints one
JSON line with the raw measurements.  Only the standard library is imported
before the timed ``import fiberloop``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_closed_loop(wl, work: Path, seconds: float) -> tuple[list, list[int], float]:
    """Ops back to back until ``seconds`` have passed; returns outputs and ns latencies."""
    outputs: list = []
    latencies: list[int] = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    end = start
    while end < deadline:
        i = len(outputs)
        item = wl.item(i)
        out_dir = work / str(i) if wl.writes_artifacts else None
        t0 = time.perf_counter_ns()
        try:
            out = wl.op(item, out_dir)
        except Exception as err:  # a failed op is counted, not fatal
            out = err
        end = time.perf_counter_ns()
        outputs.append(out)
        latencies.append(end - t0)
    return outputs, latencies, (end - start) / 1e9


def _run_traced(wl, tracer, work: Path, seconds: float) -> dict:
    """Whole input cycles, each once untraced and once traced, alternating order.

    Running the same inputs in both modes makes the wall-time ratio of the
    two an estimate of the tracing overhead.
    """
    cycle = wl.cycle_length
    wall = {False: 0.0, True: 0.0}
    outputs: list = []
    start = time.perf_counter()
    block = 0
    while time.perf_counter() - start < seconds:
        for traced in ((False, True) if block % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            for i in range(block * cycle, (block + 1) * cycle):
                item = wl.item(i)
                out_dir = work / ("t" if traced else "u") / str(i) if wl.writes_artifacts else None
                try:
                    out = tracer.run_op(i, wl.op, item, out_dir) if traced else wl.op(item, out_dir)
                except Exception as err:
                    out = err
                outputs.append((i, out))
            wall[traced] += time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        block += 1
    ops_per_mode = block * cycle
    return {
        "outputs": outputs,
        "overhead_frac": (ops_per_mode / wall[False]) / (ops_per_mode / wall[True]) - 1.0,
    }


def _check(wl, indexed_outputs) -> dict[int, list[str]]:
    """Problems of every output that failed, keyed by its position in the run."""
    failures = {}
    for pos, (i, out) in enumerate(indexed_outputs):
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                problems = wl.check(i, out)
            except Exception as err:
                problems = [f"check raised {type(err).__name__}: {err}"]
        if problems:
            failures[pos] = [f"op {i}: {p}" for p in problems]
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import fiberloop
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    # The warm-up input is the same for every seed, so that set-up time does
    # not vary with how hard one seed's first dataset is to fit.
    warmup = WORKLOADS[args.workload](0).item(0)
    wl.op(warmup, args.work_dir / "warmup" if wl.writes_artifacts else None)
    _emit({"ready": time.perf_counter(), "import_s": import_s,
           "peak_rss_mb": _peak_rss_mb(), "fiberloop": fiberloop.__file__})
    if args.seconds is None:
        return 0

    import gap
    import layers

    result: dict = {}
    if args.trace:
        tracer = layers.make_tracer()
        run = _run_traced(wl, tracer, args.work_dir, args.seconds)
        failures = _check(wl, run["outputs"])
        result["layers"] = layers.layer_metrics(tracer)
        result["layers"]["trace.overhead_frac"] = run["overhead_frac"]
        result["attempted"] = len(run["outputs"])
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        outputs, latencies, wall_s = _run_closed_loop(wl, args.work_dir, args.seconds)
        failures = _check(wl, enumerate(outputs))
        gaps = []
        if wl.writes_artifacts:
            for i, out in enumerate(outputs):
                if isinstance(out, Exception):
                    continue
                try:
                    value = gap.gap_of_run(args.work_dir / str(i))
                except (OSError, ValueError, KeyError) as err:
                    failures.setdefault(i, []).append(f"op {i}: artifacts unreadable: {err}")
                    continue
                if not value >= -1e-6:
                    failures.setdefault(i, []).append(f"op {i}: likelihood gap {value!r} < 0")
                gaps.append(value)
        else:
            gaps = wl.probe_gaps(args.work_dir / "probe")
        result.update(latencies_ns=latencies, wall_s=wall_s, gaps=gaps,
                      attempted=len(outputs))
    messages = [m for problems in failures.values() for m in problems]
    result.update(failed=len(failures), failures=messages[:20])
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
