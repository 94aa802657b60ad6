"""End-to-end experiment runner: scenario files, benchmark suites, persistence.

A scenario describes one buffer configuration (loop, round trips, topology,
noise, counting statistics, seed).  Running it chains the full pipeline:

    prepared pair -> switch timeline -> idler decoherence channel ->
    coincidence dataset -> ML state reconstruction -> chi extraction ->
    figures of merit

Every entry point (one scenario, the table1 and divider suites, a sweep)
runs these steps through ``evaluate``.  Results are written under
``<out>/<run-id>/<scenario>/`` as dataset.csv, rho.json, chi.json,
metrics.json, timeline.json, and run_result.json (only the last two for a
photon that leaked or ghost-exited).  run_result.json holds the summary
scores and the file names of its siblings; it does not repeat the timeline.
The run id hashes ``counts_scale`` and every scenario the run writes, never
the wall clock, so repeated runs are byte identical and different runs never
share a directory; a suite prefixes the hash with its kind.

A noise profile is a named ``NoiseConfig``.  The default, ``paper-2023``,
takes its per-cross phase flip and PMD dephasing density from two measured
points (2 m at F 0.98, one 5.4 km pass at 0.95), so every other
configuration is a consistency check of the model, not a prediction; see
README for the derivation and limits.
"""

from __future__ import annotations

import copy
import csv
import enum
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Sequence, get_args, get_origin, get_type_hints

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
    "Fit",
    "RunResult",
    "TABLE1_ROWS",
    "evaluate",
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

SCHEMA_VERSION = 3

# Ghost recirculations are reported with "negligible single counts" when the
# photon survival drops below this floor (the reference-geometry ghost, five
# trips through the 1 km path, sits at 0.19).
GHOST_SURVIVAL_FLOOR = 0.25

# Accidental-coincidence background (1/s) of the table1 and divider suites.
SUITE_ACCIDENTAL_RATE = 100.0


class ScenarioError(ValueError):
    """Scenario file malformed, or a module failure with scenario context."""


@dataclass(frozen=True)
class NoiseProfile:
    name: str
    noise: buf.NoiseConfig

    def to_noise(self, accidental_rate: float = 0.0) -> buf.NoiseConfig:
        return replace(self.noise, accidental_rate=accidental_rate)


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
    return NoiseProfile("paper-2023", buf.NoiseConfig(
        pmd_dephasing_per_km=math.sqrt(pmd_var_per_km), cross_phase_flip=q_cross
    ))


PAPER_2023 = _paper_2023_profile()
NOISE_PROFILES: dict[str, NoiseProfile] = {PAPER_2023.name: PAPER_2023}


@dataclass(frozen=True)
class Scenario:
    """One buffer experiment: configuration plus counting statistics."""

    name: str
    loop: buf.FiberLoop
    n_trips: int = field(metadata=buf._AT_LEAST_ONE)
    topology: buf.BufferTopology
    switch: buf.SwitchSpec = buf.SwitchSpec()
    noise: buf.NoiseConfig = buf.NoiseConfig()
    pair_rate: float = field(default=50e3, metadata=buf._NONNEGATIVE)
    signal_arm_loss_db: float = field(default=0.0, metadata=buf._NONNEGATIVE)
    integration_time: float = field(default=2.0, metadata=buf._POSITIVE)
    seed: int = 0
    expect_leak: bool = False
    exact_counts: bool = False

    def __post_init__(self) -> None:
        # the name is a directory under --out: one path component of <= 255 bytes
        bad = self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name
        if bad or len(self.name.encode()) > 255:
            raise ScenarioError(
                f"scenario name {self.name!r}: not one path component of <= 255 bytes"
            )
        with _scenario_context(self.name):
            buf._validate(self)


@dataclass(frozen=True)
class Fit:
    """What a retrieved photon's run writes besides its timeline."""

    records: Sequence[cnt.CountRecord]
    settings: tuple[cnt.AnalyzerSetting, ...]
    rho: qstate.TwoQubitState
    chi: qstate.ChiMatrix
    metrics: tomo.MetricsRecord


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
        for v in (self.buffer_time, self.insertion_loss_db, self.survival):
            if not math.isfinite(v):  # an overflowing loss budget, say
                raise ValueError(f"result values must be finite, got {v}")
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
            # sibling file names, so the file reads the same wherever --out is
            "artifacts": {k: Path(v).name for k, v in sorted(self.artifacts.items())},
        }


def evaluate(
    timeline: buf.PhotonTimeline,
    scenario: Scenario,
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
    run_id: str | None = None,
) -> RunResult:
    """The pipeline every run goes through, from one photon timeline.

    Idler channel -> state -> coincidence dataset -> ML fit -> chi and
    metrics -> artifacts under ``<out>/<run-id>/<scenario>/`` if ``out_dir``
    is given (``run_id`` defaults to the id of this run alone).  A timeline
    that leaked or ghost-exited gives a result with no fit.
    """
    if not (math.isfinite(counts_scale) and counts_scale > 0):
        raise ScenarioError(f"counts_scale must be finite and positive, got {counts_scale!r}")
    with _scenario_context(scenario.name):
        survival = buf.loss_to_survival(timeline.final_loss_db)
        fit = None
        if timeline.retrieved:
            channel = buf.channel_for_timeline(timeline, scenario.loop, scenario.noise)
            state, _ = qstate.apply_idler_channel(qstate.bell_state(), channel)
            cfg = cnt.CountingConfig(
                pair_rate=scenario.pair_rate,
                signal_arm_loss_db=scenario.signal_arm_loss_db,
                idler_arm_loss_db=timeline.final_loss_db,
                accidental_rate=scenario.noise.accidental_rate,
                rng_seed=scenario.seed,
            )
            settings = cnt.standard_16_settings()
            draw = cnt.expected_dataset if scenario.exact_counts else cnt.simulate_dataset
            records = draw(state, cfg, scenario.integration_time * counts_scale, settings)
            if survival <= 1e-300 or sum(r.net for r in records) <= 0:
                # the loss is the cause only if it alone takes the expected pairs below one
                seconds = scenario.integration_time * counts_scale
                pairs = scenario.pair_rate * seconds
                loss = f"insertion loss {timeline.final_loss_db:.6g} dB"
                cause = (f"{loss} leaves no photon" if pairs >= 1 > pairs * survival
                         else "no net count is left")
                raise ScenarioError(
                    f"scenario {scenario.name!r}: {cause} over the 16 settings: pair_rate "
                    f"{scenario.pair_rate:g} /s x integration_time x counts_scale {seconds:g} s "
                    f"x survival {survival:.3g} at {loss}")
            rho = tomo.reconstruct_state(records, settings)
            chi = tomo.reconstruct_chi(rho)
            fit = Fit(records, settings, rho, chi, tomo.report_metrics(rho, chi))
        result = RunResult(
            scenario_name=scenario.name,
            buffer_time=timeline.total_buffer_time,
            insertion_loss_db=timeline.final_loss_db,
            survival=survival,
            timeline=timeline,
            leaked=timeline.leaked,
            ghost=timeline.ghosted,
            negligible_counts=timeline.ghosted and survival < GHOST_SURVIVAL_FLOOR,
            # the fields of MetricsRecord are RunResult's scores
            **(vars(fit.metrics) if fit else {}),
        )
        if out_dir is not None:
            run_id = run_id or _run_id([scenario], counts_scale)
            result = write_run_result(result, scenario, out_dir, run_id, fit)
    return result


def run_scenario(
    scenario: Scenario,
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
    run_id: str | None = None,
) -> RunResult:
    """Run one plain-loop scenario end to end; persist artifacts if asked."""
    if scenario.topology.variant is buf.TopologyVariant.MULTIPLIER_DIVIDER:
        raise ScenarioError(
            f"scenario {scenario.name!r}: topology.variant MULTIPLIER_DIVIDER "
            "runs only in the divider suite (fiberloop divider)"
        )
    with _scenario_context(scenario.name):
        pattern = buf.rf_pattern_for(scenario.n_trips, scenario.loop)
        timeline = buf.simulate_timeline(
            pattern, scenario.loop, scenario.topology, scenario.switch
        )
    return evaluate(timeline, scenario, counts_scale, out_dir, run_id)


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


def _run_id(scenarios: Sequence[Scenario], counts_scale: float, kind: str = "") -> str:
    """Hash of ``counts_scale`` and every scenario the run writes; a suite
    prefixes it with its kind."""
    payload = json.dumps(
        [counts_scale, [scenario_to_dict(s) for s in scenarios]], sort_keys=True
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    return f"{kind}-{digest}" if kind else digest


def _json_dump(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_run_result(
    result: RunResult,
    scenario: Scenario,
    out_dir: str | Path,
    run_id: str,
    fit: Fit | None = None,
) -> RunResult:
    """Persist one result under <out>/<run-id>/<scenario>/; run_result.json
    holds the scores and the names of the files written beside it (the
    returned result keeps their full paths)."""
    base = Path(out_dir) / run_id / scenario.name
    base.mkdir(parents=True, exist_ok=True)
    _json_dump(base / "timeline.json", _to_json(result.timeline))
    artifacts = {"timeline": str(base / "timeline.json")}
    if fit is not None:
        cnt.write_dataset_csv(base / "dataset.csv", fit.records, fit.settings)
        artifacts["dataset"] = str(base / "dataset.csv")
        for name, payload in (
            ("rho", qstate.matrix_to_json(fit.rho.matrix)),
            ("chi", qstate.matrix_to_json(fit.chi.matrix)),
            ("metrics", fit.metrics.to_json()),
        ):
            _json_dump(base / f"{name}.json", payload)
            artifacts[name] = str(base / f"{name}.json")
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
                noise=profile.to_noise(SUITE_ACCIDENTAL_RATE),
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
    rid = _run_id(scenarios, counts_scale, "table1")
    results = [run_scenario(s, counts_scale, out_dir, rid) for s in scenarios]
    comparison = []
    for row, result in zip(TABLE1_ROWS, results):
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
        with open(Path(out_dir) / rid / "comparison.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(comparison[0].keys()))
            writer.writeheader()
            writer.writerows(comparison)
    return results, comparison


# Divider geometry: a 4.0 km ultra-low-loss unit delay and a 1.0 km quarter
# delay selectable by two 1x2 switches, driven at the N=2 pattern of the
# unit loop.  The suite runs one row per exit of the schedule, in its order:
# the bypass (0.0 s), the doubled unit delay, the divided delay, and the
# trapped ghost recirculation.
DIVIDER_UNIT_LOOP = buf.FiberLoop(4000.0, attenuation_db_per_km=0.15)
DIVIDER_SHORT_LOOP = buf.FiberLoop(1000.0, attenuation_db_per_km=0.15)
DIVIDER_ROWS = ("bypass", "unit-x2", "divided-by-4", "ghost")


def run_divider_suite(
    seed: int = 0,
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
    profile: NoiseProfile = PAPER_2023,
    exact_counts: bool = False,
) -> list[RunResult]:
    """Bypass, divided, and doubled delays plus the ghost recirculation."""
    switch = buf.SwitchSpec()
    topo = buf.BufferTopology(buf.TopologyVariant.MULTIPLIER_DIVIDER,
                              divider_paths=(DIVIDER_UNIT_LOOP, DIVIDER_SHORT_LOOP))
    schedule = buf.divider_schedule(topo, buf.rf_pattern_for(2, DIVIDER_UNIT_LOOP), switch)
    scenarios = [
        Scenario(name=f"divider-{label}", loop=path, n_trips=max(timeline.round_trips, 1),
                 topology=topo, switch=switch, noise=profile.to_noise(SUITE_ACCIDENTAL_RATE),
                 seed=seed * 1000 + i, exact_counts=exact_counts)
        for i, (label, (path, timeline)) in enumerate(zip(DIVIDER_ROWS, schedule, strict=True))
    ]
    rid = _run_id(scenarios, counts_scale, "divider")
    results = [evaluate(timeline, s, counts_scale, out_dir, rid)
               for s, (_, timeline) in zip(scenarios, schedule)]
    if out_dir is not None:
        _json_dump(Path(out_dir) / rid / "divider_summary.json", [r.to_json() for r in results])
    return results


def run_sweep(
    base: Scenario,
    param_path: str,
    values: Sequence[Any],
    counts_scale: float = 1.0,
    out_dir: str | Path | None = None,
) -> list[RunResult]:
    """Re-run one scenario with a dotted parameter overridden per value."""
    *head, leaf = param_path.split(".")
    scenarios = []
    for v in values:
        payload = scenario_to_dict(base)
        node = payload
        for key in head:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict) or leaf not in node:
            raise ScenarioError(f"sweep path {param_path!r} not found")
        node[leaf] = v
        payload["name"] = f"{base.name}-{leaf}={v}"
        scenarios.append(scenario_from_dict(payload))
    rid = _run_id(scenarios, counts_scale, "sweep")
    return [run_scenario(s, counts_scale, out_dir, rid) for s in scenarios]


# ---------------------------------------------------------------------------
# Scenario (de)serialization.  The schema is the dataclass fields, versioned
# and strict: unknown keys and mistyped values are rejected so typos fail
# fast.  Version 1 and 2 files are rewritten as version 3 (``_upgrade``).

# Flat Scenario fields that the file groups under "counting".
_COUNTING_FIELDS = ("pair_rate", "signal_arm_loss_db", "integration_time")
_PMD = "pmd_dephasing_per_km"


def _to_json(value: Any) -> Any:
    """Dataclass fields as JSON: enums by value, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def scenario_to_dict(s: Scenario) -> dict:
    payload = _to_json(s)
    payload["counting"] = {name: payload.pop(name) for name in _COUNTING_FIELDS}
    return {"schema_version": SCHEMA_VERSION, **payload}


def _typed(where: str, hint: Any, value: Any) -> Any:
    """One JSON value checked against its field's annotation."""
    if is_dataclass(hint):
        return _build(hint, where, value)
    if get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(f"{where}[{i}]", get_args(hint)[0], v) for i, v in enumerate(value))
    kinds = get_args(hint) or (hint,)  # float | None gives (float, NoneType)
    try:
        if isinstance(hint, enum.EnumMeta):
            return hint(value)
        if float in kinds and type(value) is int:
            value = float(value)
    except (ValueError, OverflowError) as err:  # unknown member, huge integer
        raise ScenarioError(f"{where}: {err}") from err
    if type(value) not in kinds:  # so a bool is no number
        raise ScenarioError(f"{where}: expected {hint}, got {value!r}")
    return value


def _section(cls: type, where: str, payload: Any, names: Sequence[str]) -> dict:
    """Typed values of one file section, which may hold only ``names``."""
    if not isinstance(payload, dict):
        raise ScenarioError(f"{where}: expected an object, got {payload!r}")
    unknown = set(payload) - set(names)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    return {k: _typed(f"{where}.{k}", hints[k], v) for k, v in payload.items()}


def _build(cls: type, where: str, payload: Any, names: Sequence[str] = (), **given: Any) -> Any:
    """Build ``cls`` from one section holding only ``names`` (default: every
    field) plus ``given`` values read elsewhere; its constructor's errors (a
    missing field, a validator's complaint) name the section."""
    names = names or [f.name for f in fields(cls)]
    try:
        return cls(**_section(cls, where, payload, names), **given)
    except (ValueError, TypeError) as err:
        if isinstance(err, ScenarioError):
            raise
        raise ScenarioError(f"{where}: {err}") from err


def _upgrade(payload: dict, version: int) -> None:
    """Rewrite a version 1 or 2 file, its noise profile merged, as the version 3
    file that runs the same (v2 dropped two inert knobs; v3 the partial leak)."""
    payload.setdefault("noise", {})  # a section of another type fails in its section
    loop, topology, counting, noise = (payload[k] if isinstance(payload.get(k), dict) else {}
                                       for k in ("loop", "topology", "counting", "noise"))
    if version == 1:
        topology.pop("selector_rate_hz", None)
        counting.pop("detector_gate_rate_hz", None)
    # every PMD outside the noise is checked; only the loop's was read, where the noise had none
    loop_pmd = _build(buf.NoiseConfig, "loop", {_PMD: loop.pop(_PMD, 0.0)}).pmd_dephasing_per_km
    if noise.get(_PMD) is None:
        noise[_PMD] = loop_pmd
    paths = topology.get("divider_paths")
    for i, path in enumerate(paths if isinstance(paths, list) else ()):
        if isinstance(path, dict):
            _build(buf.NoiseConfig, f"topology.divider_paths[{i}]", {_PMD: path.pop(_PMD, 0.0)})
    if _typed("topology.leak_fraction", float, topology.pop("leak_fraction", 1.0)) != 1.0:
        raise ScenarioError("topology.leak_fraction: only 1.0 loads; above the "
                            "threshold the photon leaks whole")


def scenario_from_dict(payload: Any) -> Scenario:
    if not isinstance(payload, dict):
        raise ScenarioError(f"scenario: expected an object, got {payload!r}")
    payload = copy.deepcopy(payload)  # the upgrade edits its sections
    version = payload.pop("schema_version", None)
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    profile = payload.pop("noise_profile", None)
    if profile is not None:
        if not isinstance(profile, str) or profile not in NOISE_PROFILES:
            raise ScenarioError(f"unknown noise profile {profile!r}")
        noise = payload.get("noise", {})
        if isinstance(noise, dict):  # any other type fails in the noise section
            payload["noise"] = _to_json(NOISE_PROFILES[profile].noise) | noise
    if version < SCHEMA_VERSION:
        _upgrade(payload, version)
    counting = _section(Scenario, "counting", payload.pop("counting", {}), _COUNTING_FIELDS)
    flat = [f.name for f in fields(Scenario) if f.name not in _COUNTING_FIELDS]
    return _build(Scenario, "scenario", payload, flat, **counting)


def load_scenario(path: str | Path) -> Scenario:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:  # missing, a directory, not UTF-8, not JSON
        raise ScenarioError(f"{path}: cannot read a scenario ({err})") from err
    return scenario_from_dict(payload)
