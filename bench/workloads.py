"""The benchmark's three workloads: inputs from a seed, one op, output checks.

Each workload is a closed loop with one caller: op ``i`` runs only after op
``i - 1`` returned.  ``item(i)`` rebuilds the input of op ``i`` from the seed
alone, so the checks after the timed region need no state from the loop.

* ``table1``: the seven paper rows through ``harness.run_scenario`` with
  artifacts, cycle ``c`` using ``table1_scenarios(seed=seed + c)``.  The
  headline reproduction; the MLE dominates its op time.
* ``long-storage``: the same pipeline at N = 2..12 on the 1.3 km ports 2-3
  loop and N = 1..6 on the 5.4 km ports 2-4 loop, 0.2 s integration, so the
  datasets hold 10^3 to 10^4 net counts and some fits sit on the PSD
  boundary.  The paper's storage-time/fidelity trade-off, in the low-count
  regime of the same MLE.
* ``fidelity-map``: model-only predictions (timeline, channel, fidelity) over
  both wirings, 1-6 km loops, N = 1..8 and two noise mixes; no counts, fit or
  disk.  It bypasses the MLE, so an MLE change should not move it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from fiberloop import buffer, harness, qstate

import gap

# Noise mix added to the paper-2023 phase noise on half of the map.
EXTRA_BIT_FLIP = 0.005
EXTRA_AMPLITUDE_DAMPING = 0.005
# Exact-count fits behind the map's mle_gap_nats.
PROBE_FITS = 8

V23 = buffer.TopologyVariant.LOOP_PORTS_2_3
V24 = buffer.TopologyVariant.LOOP_PORTS_2_4


def _finite_unit(*values: float) -> bool:
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def _timeline_problems(n_trips: int, loop: buffer.FiberLoop, switch: buffer.SwitchSpec,
                       buffer_time: float, loss_db: float) -> list[str]:
    problems = []
    if not math.isclose(buffer_time, buffer.buffer_time(n_trips, loop), rel_tol=1e-12):
        problems.append(f"buffer time {buffer_time!r} != buffer.buffer_time")
    if not math.isclose(loss_db, buffer.insertion_loss_db(n_trips, loop, switch),
                        rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"insertion loss {loss_db!r} != buffer.insertion_loss_db")
    return problems


class PipelineWorkload:
    """Scenarios run end to end by ``harness.run_scenario`` with artifacts."""

    writes_artifacts = True

    def __init__(self, seed: int):
        self.seed = seed
        self._cycle: tuple[int, list[harness.Scenario]] | None = None

    def scenarios(self, cycle: int) -> list[harness.Scenario]:
        raise NotImplementedError

    def item(self, i: int) -> harness.Scenario:
        cycle, pos = divmod(i, self.cycle_length)
        if self._cycle is None or self._cycle[0] != cycle:
            self._cycle = (cycle, self.scenarios(cycle))
        return self._cycle[1][pos]

    def op(self, scenario: harness.Scenario, out_dir: Path) -> tuple:
        r = harness.run_scenario(scenario, out_dir=out_dir)
        return (r.leaked, r.buffer_time, r.insertion_loss_db,
                r.state_fidelity, r.process_fidelity, r.purity)

    def check(self, i: int, out: tuple) -> list[str]:
        scenario = self.item(i)
        leaked, buffer_time, loss_db, f, f_chi, purity = out
        if leaked:
            return ["scenario leaked"]
        problems = _timeline_problems(scenario.n_trips, scenario.loop, scenario.switch,
                                      buffer_time, loss_db)
        if not _finite_unit(f, f_chi, purity):
            problems.append(f"F={f!r} F_chi={f_chi!r} purity={purity!r} not finite in [0, 1]")
        return problems


class Table1(PipelineWorkload):
    cycle_length = len(harness.TABLE1_ROWS)

    def scenarios(self, cycle: int) -> list[harness.Scenario]:
        return harness.table1_scenarios(seed=self.seed + cycle)

    def check(self, i: int, out: tuple) -> list[str]:
        problems = super().check(i, out)
        row = harness.TABLE1_ROWS[i % self.cycle_length]
        _, buffer_time, loss_db = out[:3]
        if abs(buffer_time - row.ref_time_s) > harness.TIME_TOLERANCE * row.ref_time_s:
            problems.append(f"{row.name}: buffer time {buffer_time!r} off the table")
        if abs(loss_db - row.ref_loss_db) > harness.LOSS_TOLERANCE_DB:
            problems.append(f"{row.name}: insertion loss {loss_db!r} off the table")
        return problems


LONG_STORAGE_POINTS: tuple[tuple[float, buffer.TopologyVariant, int], ...] = (
    tuple((1300.0, V23, n) for n in range(2, 13))
    + tuple((5400.0, V24, n) for n in range(1, 7))
)


class LongStorage(PipelineWorkload):
    cycle_length = len(LONG_STORAGE_POINTS)

    def scenarios(self, cycle: int) -> list[harness.Scenario]:
        k = self.seed + cycle
        noise = harness.PAPER_2023.to_noise(accidental_rate=100.0)
        return [
            harness.Scenario(
                name=f"LS-N{n}-L{length_m / 1000:g}km",
                loop=buffer.FiberLoop(length_m, attenuation_db_per_km=0.2),
                n_trips=n,
                topology=buffer.BufferTopology(variant),
                switch=buffer.SwitchSpec(v_pi_calibrated=(variant is V23)),
                noise=noise,
                integration_time=0.2,
                seed=k * 1000 + j,
            )
            for j, (length_m, variant, n) in enumerate(LONG_STORAGE_POINTS)
        ]


@dataclass(frozen=True)
class MapPoint:
    loop: buffer.FiberLoop
    topology: buffer.BufferTopology
    switch: buffer.SwitchSpec
    noise: buffer.NoiseConfig
    n_trips: int
    phase_only: bool


def _leaks(p: MapPoint) -> bool:
    rate = buffer.rf_pattern_for(p.n_trips, p.loop).repetition_rate_hz
    return rate > p.topology.leak_threshold_hz * (1.0 + buffer.LEAK_RATE_GUARD)


def fidelity_map_grid() -> list[MapPoint]:
    """Both wirings x 1-6 km x N = 1..8 x two noise mixes, at drives <= 100 kHz."""
    phase_only = harness.PAPER_2023.to_noise()
    mixed = buffer.NoiseConfig(
        pmd_dephasing_per_km=phase_only.pmd_dephasing_per_km,
        cross_phase_flip=phase_only.cross_phase_flip,
        cross_bit_flip=EXTRA_BIT_FLIP,
        cross_amplitude_damping=EXTRA_AMPLITUDE_DAMPING,
    )
    grid = []
    for variant in (V24, V23):
        switch = buffer.SwitchSpec(v_pi_calibrated=(variant is V23))
        for km in range(1, 7):
            loop = buffer.FiberLoop(1000.0 * km)
            for n in range(1, 9):
                rate = buffer.rf_pattern_for(n, loop).repetition_rate_hz
                if rate > switch.max_rep_rate_hz:
                    continue
                for noise in (phase_only, mixed):
                    grid.append(MapPoint(loop, buffer.BufferTopology(variant), switch,
                                         noise, n, noise is phase_only))
    return grid


class FidelityMap:
    """Model-only prediction grid; the seed sets the visiting order."""

    writes_artifacts = False

    def __init__(self, seed: int):
        self.grid = fidelity_map_grid()
        self.cycle_length = len(self.grid)
        self.order = list(range(self.cycle_length))
        random.Random(seed).shuffle(self.order)
        self.pair = qstate.bell_state()

    def item(self, i: int) -> MapPoint:
        return self.grid[self.order[i % self.cycle_length]]

    def op(self, p: MapPoint, out_dir: Path) -> tuple:
        pattern = buffer.rf_pattern_for(p.n_trips, p.loop)
        timeline = buffer.simulate_timeline(pattern, p.loop, p.topology, p.switch)
        if timeline.leaked:
            return (True, timeline.total_buffer_time, timeline.final_loss_db, math.nan, math.nan)
        channel = buffer.channel_for_timeline(timeline, p.loop, p.noise)
        state, survival = qstate.apply_idler_channel(self.pair, channel)
        fidelity = qstate.state_fidelity(state, self.pair)
        return (False, timeline.total_buffer_time, timeline.final_loss_db, survival, fidelity)

    def probe_gaps(self, out_dir: Path) -> list[float]:
        """Likelihood gaps of exact-count fits at fixed retrieved map points.

        The map's ops fit nothing, so its ``mle_gap_nats`` comes from this
        fixed probe, run after the timed region.  Exact counts make it the
        same on every seed; it moves only when the solver changes.
        """
        retrieved = [p for p in self.grid if not _leaks(p)]
        gaps = []
        for j, p in enumerate(retrieved[::len(retrieved) // PROBE_FITS][:PROBE_FITS]):
            scenario = harness.Scenario(
                name=f"map-probe-{j}", loop=p.loop, n_trips=p.n_trips, topology=p.topology,
                switch=p.switch, noise=p.noise, exact_counts=True,
            )
            harness.run_scenario(scenario, out_dir=out_dir / str(j))
            gaps.append(gap.gap_of_run(out_dir / str(j)))
        return gaps

    def check(self, i: int, out: tuple) -> list[str]:
        p = self.item(i)
        leaked, buffer_time, loss_db, survival, fidelity = out
        if leaked != _leaks(p):
            return [f"leak flag {leaked} where the drive rate predicts {_leaks(p)}"]
        if leaked:
            return [] if math.isfinite(buffer_time) and math.isfinite(loss_db) else ["non-finite leak"]
        problems = _timeline_problems(p.n_trips, p.loop, p.switch, buffer_time, loss_db)
        if not (_finite_unit(fidelity) and 0.0 < survival <= 1.0):
            problems.append(f"F={fidelity!r} survival={survival!r} out of range")
        if p.phase_only:
            q = p.noise.cross_phase_flip
            sigma = p.noise.pmd_dephasing_per_km
            km = p.n_trips * p.loop.length_km
            expected = 0.5 * (1.0 + (1.0 - 2.0 * q) ** 2 * math.exp(-sigma * sigma * km / 2.0))
            if abs(fidelity - expected) > 1e-12:
                problems.append(f"phase-only F={fidelity!r}, closed form {expected!r}")
        return problems


WORKLOADS: dict[str, Any] = {
    "table1": Table1,
    "long-storage": LongStorage,
    "fidelity-map": FidelityMap,
}
