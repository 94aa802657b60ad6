"""Layered benchmark of the fiberloop pipeline.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/fiberloop`` next to ``bench``).
Each run spawns fresh interpreters (``bench/child.py``): SETUP_RUNS of them
only set up, to time start-up, import, input building and one warm-up op,
and one more also runs the closed loop for ``--seconds``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
records the provenance, and ``.bench_out/`` keeps the full record and the
spans.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, work: Path, extra: list[str]) -> tuple[float, list[dict]]:
    """Run one child interpreter; returns (set-up seconds, its JSON lines)."""
    env = dict(os.environ)
    # One caller on one core: BLAS threads only spin on 4x4 matrices, and a
    # spinning second thread makes timings depend on the neighbouring core.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise BenchError("child reported no set-up")
    expected = ROOT / "src" / "fiberloop" / "__init__.py"
    if Path(lines[0]["fiberloop"]).resolve() != expected.resolve():
        raise BenchError(f"child imported fiberloop from {lines[0]['fiberloop']}")
    return lines[0]["ready"] - started, lines


def failure_upper_bound(failed: int, attempted: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper confidence bound on the failure fraction.

    Unlike failed / attempted it is never 0, and one new failure raises it
    by about 60 %: the bound is 3.0 / attempted for no failures and
    4.7 / attempted for one.
    """
    if failed >= attempted:
        return 1.0

    def cdf(p: float) -> float:  # P(X <= failed) for X ~ Binomial(attempted, p)
        return sum(
            math.exp(math.lgamma(attempted + 1) - math.lgamma(k + 1)
                     - math.lgamma(attempted - k + 1)
                     + k * math.log(p) + (attempted - k) * math.log1p(-p))
            for k in range(failed + 1)
        )

    lo, hi = failed / attempted, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid > 0.0 and cdf(mid) > 1.0 - confidence:
            lo = mid
        else:
            hi = mid
    return hi


def git_commit() -> str:
    """HEAD commit read from .git without running git ('unknown' outside a clone)."""
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


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fiberloop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args: argparse.Namespace) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **versions,
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def end_to_end(run: dict, setup_s: list[float], setup_rss: list[float]) -> dict:
    lat_ms = [v / 1e6 for v in run["latencies_ns"]]
    completed = run["attempted"] - run["failed"]
    return {
        "ops_per_s": completed / run["wall_s"],
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(setup_rss),
        "fail_frac": failure_upper_bound(run["failed"], run["attempted"]),
        "mle_gap_nats": statistics.median(run["gaps"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of BENCHMARK.json's workloads, or long-storage")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fiberloop" / "__init__.py").is_file():
        print(f"no source tree: {ROOT / 'src' / 'fiberloop'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        setups = [spawn(args.workload, args.seed, work / f"setup{k}", [])
                  for k in range(SETUP_RUNS)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(out_dir / f"spans-{tag}.jsonl")]
        measured_setup, lines = spawn(args.workload, args.seed, work / "run", extra)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    setup_s = [s for s, _ in setups] + [measured_setup]
    run = lines[-1]
    if args.trace:
        values = dict(run["layers"])
        values["setup.import_s"] = statistics.median(
            [ls[0]["import_s"] for _, ls in setups] + [lines[0]["import_s"]]
        )
    else:
        setup_rss = [ls[0]["peak_rss_mb"] for _, ls in setups] + [lines[0]["peak_rss_mb"]]
        values = end_to_end(run, setup_s, setup_rss)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "provenance": provenance(args),
        "latency_samples": len(run.get("latencies_ns", [])),
        "fits": len(run.get("gaps", [])),
        "setup_s_samples": setup_s,
        "failures": run["failures"],
        "all_values": values,
        "result": result,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: record[k] for k in ("provenance", "latency_samples", "fits", "failures")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
