"""Command-line interface.

Verbs
-----
run <scenario.json>   run one scenario file end to end
table1                run the seven-row benchmark suite with pass/fail report
divider               run the multiplier/divider suite (three delays + ghost)
sweep <scenario.json> --param <dotted.path> --values v1,v2,...

Common flags: --seed, --out <dir>, --counts-scale <float>.  Exit code 0 on
success, 2 when a scenario leaks unexpectedly or a benchmark comparison
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness

EXIT_OK = 0
EXIT_COMPARISON_FAILED = 2


def _add_common(parser: argparse.ArgumentParser, seed_default: int | None = 0) -> None:
    parser.add_argument("--seed", type=int, default=seed_default, help="base RNG seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--counts-scale",
        type=float,
        default=1.0,
        help="multiply integration time (convergence studies)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberloop",
        description="Switched fiber-loop buffer simulator for polarization qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", type=Path)
    # None keeps the scenario's own seed; any given value, 0 included, wins.
    _add_common(p_run, seed_default=None)

    p_table = sub.add_parser("table1", help="run the benchmark suite")
    _add_common(p_table)

    p_div = sub.add_parser("divider", help="run the multiplier/divider suite")
    _add_common(p_div)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario parameter")
    p_sweep.add_argument("scenario", type=Path)
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. noise.cross_phase_flip")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    _add_common(p_sweep, seed_default=None)  # as for run
    return parser


def _print_result(result: harness.RunResult) -> None:
    if result.leaked:
        print(f"{result.scenario_name}: LEAK at {result.buffer_time * 1e6:.2f} us")
        return
    if result.ghost:
        note = " (negligible single counts)" if result.negligible_counts else ""
        print(
            f"{result.scenario_name}: GHOST_EXIT at {result.buffer_time * 1e6:.2f} us, "
            f"loss {result.insertion_loss_db:.2f} dB{note}"
        )
        return
    print(
        f"{result.scenario_name}: buffer {result.buffer_time * 1e6:.2f} us, "
        f"loss {result.insertion_loss_db:.2f} dB, "
        f"F {result.state_fidelity:.4f}, F_chi {result.process_fidelity:.4f}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = harness.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    result = harness.run_scenario(
        scenario, counts_scale=args.counts_scale, out_dir=args.out
    )
    _print_result(result)
    if result.leaked and not scenario.expect_leak:
        print("unexpected leak", file=sys.stderr)
        return EXIT_COMPARISON_FAILED
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    results, comparison = harness.run_table1_suite(
        seed=args.seed, counts_scale=args.counts_scale, out_dir=args.out
    )
    for result in results:
        _print_result(result)
    failed = False
    for row in comparison:
        verdict = "PASS" if (row["time_pass"] and row["loss_pass"]) else "FAIL"
        failed = failed or verdict == "FAIL"
        print(
            f"  {row['scenario']}: time {row['buffer_time_s'] * 1e6:.2f} us "
            f"(ref {row['ref_buffer_time_s'] * 1e6:.1f}), "
            f"loss {row['insertion_loss_db']:.2f} dB "
            f"(ref {row['ref_insertion_loss_db']:.2f}) -> {verdict}"
        )
    return EXIT_COMPARISON_FAILED if failed else EXIT_OK


def _cmd_divider(args: argparse.Namespace) -> int:
    results = harness.run_divider_suite(
        seed=args.seed, counts_scale=args.counts_scale, out_dir=args.out
    )
    for result in results:
        _print_result(result)
    return EXIT_OK


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = harness.load_scenario(args.scenario)
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    values = [_parse_value(v) for v in args.values.split(",")]
    results = harness.run_sweep(
        base, args.param, values, counts_scale=args.counts_scale, out_dir=args.out
    )
    leaked_unexpectedly = False
    for result in results:
        _print_result(result)
        leaked_unexpectedly = leaked_unexpectedly or (
            result.leaked and not base.expect_leak
        )
    return EXIT_COMPARISON_FAILED if leaked_unexpectedly else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table1": _cmd_table1,
        "divider": _cmd_divider,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except harness.ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMPARISON_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
