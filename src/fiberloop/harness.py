"""End-to-end experiment runner: scenario files, benchmark suites, persistence.

A scenario describes one buffer configuration (loop, round trips, topology,
noise, counting statistics, seed).  Running it chains the full pipeline:

    prepared pair -> switch timeline -> idler decoherence channel ->
    coincidence dataset -> ML state reconstruction -> chi extraction ->
    figures of merit

Results are written under ``<out>/<run-id>/<scenario>/`` as dataset.csv,
rho.json, chi.json, metrics.json, timeline.json, and run_result.json; the
run id is derived from a hash of the configuration (or supplied by the
caller), never from the wall clock, so repeated runs are byte identical.

The default decoherence calibration, profile ``paper-2023``, is anchored to
two measured operating points of the modeled device: the 2 m traveling
buffer (two cross passes, negligible fiber) fixing the per-cross phase-flip
probability from a 0.98 pair fidelity, and the single-pass 5.4 km delay
fixing the PMD dephasing density from a 0.95 pair fidelity.  Every other
configuration is then a consistency check of the model rather than an
independent prediction; see README for the derivation and limits.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Sequence

from . import buffer as buf
from . import counting as cnt
from . import qstate
from . import tomography as tomo

__all__ = [
    "ScenarioError",
    "NoiseProfile",
    "PAPER_2023",
    "NOISE_PROFILES",
    "Scenario",
    "RunResult",
    "TABLE1_ROWS",
    "run_scenario",
    "run_table1_suite",
    "run_divider_suite",
    "run_sweep",
    "table1_scenarios",
    "load_scenario",
    "scenario_from_dict",
    "write_run_result",
    "GHOST_SURVIVAL_FLOOR",
]

SCHEMA_VERSION = 1

# Ghost recirculations are reported with "negligible single counts" when the
# photon survival drops below this floor (the reference-geometry ghost, five
# trips through the 1 km path, sits at 0.19).
GHOST_SURVIVAL_FLOOR = 0.25


class ScenarioError(ValueError):
    """Scenario file malformed, or a module failure with scenario context."""


@dataclass(frozen=True)
class NoiseProfile:
    name: str
    pmd_dephasing_per_km: float
    cross_phase_flip: float
    cross_bit_flip: float = 0.0
    cross_amplitude_damping: float = 0.0

    def to_noise(self, accidental_rate: float = 0.0) -> buf.NoiseConfig:
        return buf.NoiseConfig(
            pmd_dephasing_per_km=self.pmd_dephasing_per_km,
            cross_bit_flip=self.cross_bit_flip,
            cross_phase_flip=self.cross_phase_flip,
            cross_amplitude_damping=self.cross_amplitude_damping,
            accidental_rate=accidental_rate,
        )


def _paper_2023_profile() -> NoiseProfile:
    # Anchor 1: 2 m traveling buffer, two cross passes, F = 0.98.  A Bell pair
    # under pure phase noise has F = (1 + c)/2, so the two-cross coherence
    # factor is c = 2F - 1 and each cross pass contributes sqrt(c) = 1 - 2q.
    coherence_two_cross = 2.0 * 0.98 - 1.0
    q_cross = 0.5 * (1.0 - math.sqrt(coherence_two_cross))
    # Anchor 2: single pass through 5.4 km, F = 0.95.  After dividing out the
    # cross passes, the PMD coherence factor is exp(-var/2) with the variance
    # growing linearly in length; solve for the per-km dephasing std dev.
    coherence_pmd_54 = (2.0 * 0.95 - 1.0) / coherence_two_cross
    pmd_var_per_km = -2.0 * math.log(coherence_pmd_54) / 5.4
    return NoiseProfile(
        name="paper-2023",
        pmd_dephasing_per_km=math.sqrt(pmd_var_per_km),
        cross_phase_flip=q_cross,
    )


PAPER_2023 = _paper_2023_profile()
NOISE_PROFILES: dict[str, NoiseProfile] = {PAPER_2023.name: PAPER_2023}


@dataclass(frozen=True)
class Scenario:
    """One buffer experiment: configuration plus counting statistics."""

    name: str
    loop: buf.FiberLoop
    n_trips: int
    topology: buf.BufferTopology
    switch: buf.SwitchSpec = buf.SwitchSpec()
    noise: buf.NoiseConfig = buf.NoiseConfig()
    pair_rate: float = 50e3
    signal_arm_loss_db: float = 0.0
    integration_time: float = 2.0
    detector_gate_rate_hz: float = 50e6
    seed: int = 0
    expect_leak: bool = False
    exact_counts: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if self.n_trips < 1:
            raise ScenarioError("scenario needs n_trips >= 1")

    def config_hash(self) -> str:
        payload = json.dumps(scenario_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunResult:
    """Everything one scenario run produced."""

    scenario_name: str
    buffer_time: float
    insertion_loss_db: float
    survival: float
    timeline: buf.PhotonTimeline
    leaked: bool = False
    ghost: bool = False
    negligible_counts: bool = False
    state_fidelity: float | None = None
    process_fidelity: float | None = None
    purity: float | None = None
    chi_diagonal: tuple[float, float, float, float] | None = None
    artifacts: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.buffer_time < 0:
            raise ValueError("buffer time must be nonnegative")
        for v in (self.state_fidelity, self.process_fidelity):
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError("fidelities must lie in [0, 1]")

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "buffer_time_s": self.buffer_time,
            "insertion_loss_db": self.insertion_loss_db,
            "survival": self.survival,
            "leaked": self.leaked,
            "ghost": self.ghost,
            "negligible_counts": self.negligible_counts,
            "F": self.state_fidelity,
            "F_chi": self.process_fidelity,
            "purity": self.purity,
            "chi_diag": list(self.chi_diagonal) if self.chi_diagonal else None,
            "timeline": self.timeline.to_json(),
            "artifacts": dict(sorted(self.artifacts.items())),
        }


def _metrics_for_state(
    state: qstate.TwoQubitState,
    survival: float,
    scenario: Scenario,
    counts_scale: float,
) -> tuple[tomo.MetricsRecord, list[cnt.CountRecord], tuple[cnt.AnalyzerSetting, ...], qstate.TwoQubitState, qstate.ChiMatrix]:
    idler_loss_db = -10.0 * math.log10(survival) if survival < 1.0 else 0.0
    cfg = cnt.CountingConfig(
        pair_rate=scenario.pair_rate,
        signal_arm_loss_db=scenario.signal_arm_loss_db,
        idler_arm_loss_db=idler_loss_db,
        accidental_rate=scenario.noise.accidental_rate,
        detector_gate_rate_hz=scenario.detector_gate_rate_hz,
        rng_seed=scenario.seed,
    )
    settings = cnt.standard_16_settings()
    t = scenario.integration_time * counts_scale
    if scenario.exact_counts:
        records = cnt.expected_dataset(state, cfg, t, settings)
    else:
        records = cnt.simulate_dataset(state, cfg, t, settings)
    rho = tomo.reconstruct_state(records, settings)
    chi = tomo.reconstruct_chi(rho)
    return tomo.report_metrics(rho, chi), records, settings, rho, chi


def run_scenario(
    scenario: Scenario,
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Run the full pipeline for one scenario; persist artifacts if asked."""
    with _scenario_context(scenario.name):
        return _run_scenario(scenario, counts_scale, out_dir)


@contextmanager
def _scenario_context(name: str) -> Iterator[None]:
    """Re-raise module failures (a fit that did not converge, say) as
    ScenarioError naming the scenario."""
    try:
        yield
    except (ValueError, ArithmeticError) as err:
        if isinstance(err, ScenarioError):
            raise
        raise ScenarioError(f"scenario {name!r}: {err}") from err


def _run_scenario(
    scenario: Scenario, counts_scale: float, out_dir: str | Path | None
) -> RunResult:
    pattern = buf.rf_pattern_for(scenario.n_trips, scenario.loop)
    timeline = buf.simulate_timeline(
        pattern, scenario.loop, scenario.topology, scenario.switch
    )
    if timeline.leaked:
        result = RunResult(
            scenario_name=scenario.name,
            buffer_time=timeline.total_buffer_time,
            insertion_loss_db=timeline.final_loss_db,
            survival=buf.loss_to_survival(timeline.final_loss_db),
            timeline=timeline,
            leaked=True,
        )
        if out_dir is not None:
            result = write_run_result(result, scenario, out_dir)
        return result

    channel = buf.channel_for_timeline(timeline, scenario.loop, scenario.noise)
    state, survival = qstate.apply_idler_channel(qstate.bell_state(), channel)
    metrics, records, settings, rho, chi = _metrics_for_state(
        state, survival, scenario, counts_scale
    )
    result = RunResult(
        scenario_name=scenario.name,
        buffer_time=timeline.total_buffer_time,
        insertion_loss_db=timeline.final_loss_db,
        survival=survival,
        timeline=timeline,
        state_fidelity=metrics.state_fidelity,
        process_fidelity=metrics.process_fidelity,
        purity=metrics.purity,
        chi_diagonal=metrics.chi_diagonal,
    )
    if out_dir is not None:
        result = write_run_result(
            result, scenario, out_dir, records=records, settings=settings,
            rho=rho, chi=chi, metrics=metrics,
        )
    return result


def _json_dump(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_run_result(
    result: RunResult,
    scenario: Scenario,
    out_dir: str | Path,
    run_id: str | None = None,
    records: Sequence[cnt.CountRecord] | None = None,
    settings: Sequence[cnt.AnalyzerSetting] | None = None,
    rho: qstate.TwoQubitState | None = None,
    chi: qstate.ChiMatrix | None = None,
    metrics: tomo.MetricsRecord | None = None,
) -> RunResult:
    """Persist one result under <out>/<run-id>/<scenario>/ and record paths."""
    rid = run_id or scenario.config_hash()
    base = Path(out_dir) / rid / scenario.name
    base.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}
    _json_dump(base / "timeline.json", result.timeline.to_json())
    artifacts["timeline"] = str(base / "timeline.json")
    if records is not None and settings is not None:
        cnt.write_dataset_csv(base / "dataset.csv", records, settings)
        artifacts["dataset"] = str(base / "dataset.csv")
    if rho is not None:
        _json_dump(base / "rho.json", qstate.matrix_to_json(rho.matrix))
        artifacts["rho"] = str(base / "rho.json")
    if chi is not None:
        _json_dump(base / "chi.json", qstate.matrix_to_json(chi.matrix))
        artifacts["chi"] = str(base / "chi.json")
    if metrics is not None:
        _json_dump(base / "metrics.json", metrics.to_json())
        artifacts["metrics"] = str(base / "metrics.json")
    result = replace(result, artifacts=artifacts)
    _json_dump(base / "run_result.json", result.to_json())
    return result


# Benchmark rows: the seven loop configurations of the device's published
# figure-of-merit table.  Each entry carries the reference buffer time (s),
# insertion loss (dB), and fidelities for the comparison report.
@dataclass(frozen=True)
class BenchmarkRow:
    name: str
    n_trips: int
    length_m: float
    attenuation_db_per_km: float
    variant: buf.TopologyVariant
    ref_time_s: float
    ref_loss_db: float
    ref_fidelity: float
    ref_chi_fidelity: float


_V24 = buf.TopologyVariant.LOOP_PORTS_2_4
_V23 = buf.TopologyVariant.LOOP_PORTS_2_3

TABLE1_ROWS: tuple[BenchmarkRow, ...] = (
    BenchmarkRow("N1-L5.4km", 1, 5400.0, 0.20, _V24, 26e-6, 3.48, 0.95, 0.98),
    BenchmarkRow("N2-L5.4km", 2, 5400.0, 0.20, _V24, 52e-6, 5.56, 0.94, 0.95),
    BenchmarkRow("N2-L4.0km-ULL", 2, 4000.0, 0.15, _V24, 39e-6, 4.60, 0.95, 0.99),
    BenchmarkRow("N2-L3.0km", 2, 3000.0, 0.20, _V24, 29e-6, 4.60, 0.95, 0.98),
    BenchmarkRow("N2-L1.83km", 2, 1830.0, 0.20, _V23, 17.9e-6, 4.13, 0.95, 0.99),
    BenchmarkRow("N2-L1.3km", 2, 1300.0, 0.20, _V23, 12.7e-6, 3.92, 0.95, 0.98),
    BenchmarkRow("N3-L3.0km", 3, 3000.0, 0.20, _V24, 44e-6, 6.20, 0.96, 0.99),
)

TIME_TOLERANCE = 0.03
LOSS_TOLERANCE_DB = 0.01


def table1_scenarios(
    seed: int = 0,
    profile: NoiseProfile = PAPER_2023,
    accidental_rate: float = 100.0,
    pair_rate: float = 50e3,
    exact_counts: bool = False,
) -> list[Scenario]:
    out = []
    for i, row in enumerate(TABLE1_ROWS):
        loop = buf.FiberLoop(row.length_m, row.attenuation_db_per_km)
        out.append(
            Scenario(
                name=row.name,
                loop=loop,
                n_trips=row.n_trips,
                topology=buf.BufferTopology(row.variant),
                switch=buf.SwitchSpec(v_pi_calibrated=(row.variant is _V23)),
                noise=profile.to_noise(accidental_rate),
                pair_rate=pair_rate,
                seed=seed * 1000 + i,
                exact_counts=exact_counts,
            )
        )
    return out


def run_table1_suite(
    seed: int = 0,
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
    exact_counts: bool = False,
) -> tuple[list[RunResult], list[dict]]:
    """Run all benchmark rows and build the pass/fail comparison table."""
    scenarios = table1_scenarios(seed=seed, exact_counts=exact_counts)
    results, comparison = [], []
    for row, scenario in zip(TABLE1_ROWS, scenarios):
        result = run_scenario(scenario, counts_scale=counts_scale, out_dir=out_dir)
        results.append(result)
        time_ok = abs(result.buffer_time - row.ref_time_s) <= TIME_TOLERANCE * row.ref_time_s
        loss_ok = abs(result.insertion_loss_db - row.ref_loss_db) <= LOSS_TOLERANCE_DB
        comparison.append(
            {
                "scenario": row.name,
                "buffer_time_s": result.buffer_time,
                "ref_buffer_time_s": row.ref_time_s,
                "time_pass": time_ok,
                "insertion_loss_db": result.insertion_loss_db,
                "ref_insertion_loss_db": row.ref_loss_db,
                "loss_pass": loss_ok,
                "F": result.state_fidelity,
                "ref_F": row.ref_fidelity,
                "F_chi": result.process_fidelity,
                "ref_F_chi": row.ref_chi_fidelity,
            }
        )
    if out_dir is not None:
        rid = _suite_run_id("table1", seed, counts_scale)
        base = Path(out_dir) / rid
        base.mkdir(parents=True, exist_ok=True)
        _write_comparison_csv(base / "comparison.csv", comparison)
    return results, comparison


def _suite_run_id(kind: str, seed: int, counts_scale: float) -> str:
    payload = json.dumps({"kind": kind, "seed": seed, "counts_scale": counts_scale})
    return f"{kind}-{hashlib.sha256(payload.encode()).hexdigest()[:12]}"


def _write_comparison_csv(path: Path, rows: list[dict]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# Divider geometry: a 4.0 km ultra-low-loss unit delay and a 1.0 km quarter
# delay selectable by two 1x2 switches, driven at the N=2 pattern of the
# unit loop.  The suite reports the bypass (0.0 s), the divided delay, the
# doubled unit delay, and the trapped ghost recirculation.
DIVIDER_UNIT_LOOP = buf.FiberLoop(4000.0, attenuation_db_per_km=0.15)
DIVIDER_SHORT_LOOP = buf.FiberLoop(1000.0, attenuation_db_per_km=0.15)


def divider_topology() -> buf.BufferTopology:
    return buf.BufferTopology(
        buf.TopologyVariant.MULTIPLIER_DIVIDER,
        divider_paths=(DIVIDER_UNIT_LOOP, DIVIDER_SHORT_LOOP),
    )


def _bypass_timeline(switch: buf.SwitchSpec) -> buf.PhotonTimeline:
    events = (
        buf.TimelineEvent(0.0, buf.EventKind.INJECT, 0.0),
        buf.TimelineEvent(0.0, buf.EventKind.RETRIEVE, switch.loss_straight_db),
    )
    return buf.PhotonTimeline(events, total_buffer_time=0.0, round_trips=0)


def run_divider_suite(
    seed: int = 0,
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
    profile: NoiseProfile = PAPER_2023,
    pair_rate: float = 50e3,
    accidental_rate: float = 100.0,
    exact_counts: bool = False,
    ghost_survival_floor: float = GHOST_SURVIVAL_FLOOR,
) -> list[RunResult]:
    """Bypass, divided, and doubled delays plus the ghost recirculation."""
    switch = buf.SwitchSpec()
    topo = divider_topology()
    pattern = buf.rf_pattern_for(2, DIVIDER_UNIT_LOOP)
    noise = profile.to_noise(accidental_rate)
    results: list[RunResult] = []

    entries: list[tuple[str, buf.FiberLoop, buf.PhotonTimeline]] = [
        ("divider-bypass", DIVIDER_SHORT_LOOP, _bypass_timeline(switch))
    ]
    for path, timeline in buf.divider_schedule(topo, pattern, switch):
        label = "unit-x2" if path is DIVIDER_UNIT_LOOP else "divided-by-4"
        if timeline.ghosted:
            label = "ghost"
        entries.append((f"divider-{label}", path, timeline))

    for i, (name, path_loop, timeline) in enumerate(entries):
        survival_budget = buf.loss_to_survival(timeline.final_loss_db)
        if timeline.ghosted:
            results.append(
                RunResult(
                    scenario_name=name,
                    buffer_time=timeline.total_buffer_time,
                    insertion_loss_db=timeline.final_loss_db,
                    survival=survival_budget,
                    timeline=timeline,
                    ghost=True,
                    negligible_counts=survival_budget < ghost_survival_floor,
                )
            )
            continue
        scenario = Scenario(
            name=name,
            loop=path_loop,
            n_trips=max(timeline.round_trips, 1),
            topology=topo,
            switch=switch,
            noise=noise,
            pair_rate=pair_rate,
            seed=seed * 1000 + i,
            exact_counts=exact_counts,
        )
        with _scenario_context(name):
            channel = buf.channel_for_timeline(timeline, path_loop, noise)
            state, survival = qstate.apply_idler_channel(qstate.bell_state(), channel)
            metrics, records, settings, rho, chi = _metrics_for_state(
                state, survival, scenario, counts_scale
            )
        result = RunResult(
            scenario_name=name,
            buffer_time=timeline.total_buffer_time,
            insertion_loss_db=timeline.final_loss_db,
            survival=survival,
            timeline=timeline,
            state_fidelity=metrics.state_fidelity,
            process_fidelity=metrics.process_fidelity,
            purity=metrics.purity,
            chi_diagonal=metrics.chi_diagonal,
        )
        if out_dir is not None:
            rid = _suite_run_id("divider", seed, counts_scale)
            result = write_run_result(
                result, scenario, out_dir, run_id=rid, records=records,
                settings=settings, rho=rho, chi=chi, metrics=metrics,
            )
        results.append(result)
    if out_dir is not None:
        rid = _suite_run_id("divider", seed, counts_scale)
        base = Path(out_dir) / rid
        base.mkdir(parents=True, exist_ok=True)
        _json_dump(base / "divider_summary.json", [r.to_json() for r in results])
    return results


def run_sweep(
    base: Scenario,
    param_path: str,
    values: Sequence[Any],
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
) -> list[RunResult]:
    """Re-run one scenario with a dotted parameter overridden per value."""
    results = []
    for v in values:
        payload = scenario_to_dict(base)
        node = payload
        *head, leaf = param_path.split(".")
        for key in head:
            if key not in node or not isinstance(node[key], dict):
                raise ScenarioError(f"sweep path {param_path!r} not found")
            node = node[key]
        if leaf not in node:
            raise ScenarioError(f"sweep path {param_path!r} not found")
        node[leaf] = v
        payload["name"] = f"{base.name}-{leaf}={v}"
        scenario = scenario_from_dict(payload)
        results.append(run_scenario(scenario, counts_scale=counts_scale, out_dir=out_dir))
    return results


# ---------------------------------------------------------------------------
# Scenario (de)serialization.  The schema is versioned and strict: unknown
# keys are rejected so typos fail fast.

def _check_keys(section: str, payload: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ScenarioError(f"{section}: unknown keys {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise ScenarioError(f"{section}: missing keys {sorted(missing)}")


def scenario_to_dict(s: Scenario) -> dict:
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "n_trips": s.n_trips,
        "seed": s.seed,
        "expect_leak": s.expect_leak,
        "exact_counts": s.exact_counts,
        "loop": {
            "length_m": s.loop.length_m,
            "attenuation_db_per_km": s.loop.attenuation_db_per_km,
            "group_index": s.loop.group_index,
            "pmd_dephasing_per_km": s.loop.pmd_dephasing_per_km,
        },
        "topology": {
            "variant": s.topology.variant.value,
            "leak_threshold_hz": s.topology.leak_threshold_hz,
            "leak_fraction": s.topology.leak_fraction,
        },
        "switch": {
            "loss_cross_db": s.switch.loss_cross_db,
            "loss_straight_db": s.switch.loss_straight_db,
            "rise_fall_time": s.switch.rise_fall_time,
            "max_rep_rate_hz": s.switch.max_rep_rate_hz,
            "v_pi_calibrated": s.switch.v_pi_calibrated,
        },
        "noise": {
            "pmd_dephasing_per_km": s.noise.pmd_dephasing_per_km,
            "cross_bit_flip": s.noise.cross_bit_flip,
            "cross_phase_flip": s.noise.cross_phase_flip,
            "cross_amplitude_damping": s.noise.cross_amplitude_damping,
            "accidental_rate": s.noise.accidental_rate,
        },
        "counting": {
            "pair_rate": s.pair_rate,
            "signal_arm_loss_db": s.signal_arm_loss_db,
            "integration_time": s.integration_time,
            "detector_gate_rate_hz": s.detector_gate_rate_hz,
        },
    }
    if s.topology.divider_paths:
        payload["topology"]["divider_paths"] = [
            {
                "length_m": p.length_m,
                "attenuation_db_per_km": p.attenuation_db_per_km,
                "group_index": p.group_index,
                "pmd_dephasing_per_km": p.pmd_dephasing_per_km,
            }
            for p in s.topology.divider_paths
        ]
        payload["topology"]["selector_loss_db"] = s.topology.selector_loss_db
        payload["topology"]["selector_rate_hz"] = s.topology.selector_rate_hz
    return payload


_LOOP_KEYS = {"length_m", "attenuation_db_per_km", "group_index", "pmd_dephasing_per_km"}


def _loop_from_dict(section: str, payload: dict) -> buf.FiberLoop:
    _check_keys(section, payload, _LOOP_KEYS, {"length_m"})
    return buf.FiberLoop(**payload)


def scenario_from_dict(payload: dict) -> Scenario:
    _check_keys(
        "scenario",
        payload,
        {
            "schema_version", "name", "n_trips", "seed", "expect_leak",
            "exact_counts", "noise_profile", "loop", "topology", "switch",
            "noise", "counting",
        },
        {"schema_version", "name", "n_trips", "loop", "topology"},
    )
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema version {payload['schema_version']} "
            f"(expected {SCHEMA_VERSION})"
        )
    loop = _loop_from_dict("loop", dict(payload["loop"]))

    topo_payload = dict(payload["topology"])
    _check_keys(
        "topology",
        topo_payload,
        {"variant", "leak_threshold_hz", "leak_fraction", "divider_paths", "selector_loss_db", "selector_rate_hz"},
        {"variant"},
    )
    try:
        variant = buf.TopologyVariant(topo_payload.pop("variant"))
    except ValueError as err:
        raise ScenarioError(str(err)) from err
    paths = tuple(
        _loop_from_dict("divider_paths", dict(p))
        for p in topo_payload.pop("divider_paths", [])
    )
    topology = buf.BufferTopology(variant, divider_paths=paths, **topo_payload)

    switch_payload = dict(payload.get("switch", {}))
    _check_keys(
        "switch",
        switch_payload,
        {"loss_cross_db", "loss_straight_db", "rise_fall_time", "max_rep_rate_hz", "v_pi_calibrated"},
        set(),
    )
    switch = buf.SwitchSpec(**switch_payload)

    noise_payload = dict(payload.get("noise", {}))
    _check_keys(
        "noise",
        noise_payload,
        {"pmd_dephasing_per_km", "cross_bit_flip", "cross_phase_flip", "cross_amplitude_damping", "accidental_rate"},
        set(),
    )
    profile_name = payload.get("noise_profile")
    if profile_name is not None:
        if profile_name not in NOISE_PROFILES:
            raise ScenarioError(f"unknown noise profile {profile_name!r}")
        profile = NOISE_PROFILES[profile_name]
        defaults = {
            "pmd_dephasing_per_km": profile.pmd_dephasing_per_km,
            "cross_bit_flip": profile.cross_bit_flip,
            "cross_phase_flip": profile.cross_phase_flip,
            "cross_amplitude_damping": profile.cross_amplitude_damping,
        }
        noise_payload = defaults | noise_payload
    noise = buf.NoiseConfig(**noise_payload)

    counting_payload = dict(payload.get("counting", {}))
    _check_keys(
        "counting",
        counting_payload,
        {"pair_rate", "signal_arm_loss_db", "integration_time", "detector_gate_rate_hz"},
        set(),
    )
    return Scenario(
        name=payload["name"],
        loop=loop,
        n_trips=payload["n_trips"],
        topology=topology,
        switch=switch,
        noise=noise,
        seed=payload.get("seed", 0),
        expect_leak=payload.get("expect_leak", False),
        exact_counts=payload.get("exact_counts", False),
        **counting_payload,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: invalid JSON ({err})") from err
    return scenario_from_dict(payload)
