"""Write the schema v1/v2 scenario files of this directory and their F.

These files pin how files written before schema 3 load.  They were written
by ``scenario_to_dict`` at schema 2 (the tree before schema 3, commit
dd0a972), so run this script from the root of such a tree:

    PYTHONPATH=src python3 tests/data/legacy/make_legacy_fixtures.py

On a schema-3 tree it stops at the first field schema 3 removed.

``expected.json`` maps each file to the state fidelity F of its exact-count
run: ``run_scenario`` for a plain loop; for the divider file, ``evaluate``
on the first path exit of ``divider_schedule``, the unit path's N-trip
exit (``run_scenario`` rejects the divider topology).  At schema 2 that was
the schedule's first entry; a later schedule lists the straight pass first.
"""

from __future__ import annotations

import json
from pathlib import Path

from fiberloop import buffer as buf
from fiberloop import harness

HERE = Path(__file__).parent


def fidelity(scenario: harness.Scenario) -> float:
    if scenario.topology.variant is buf.TopologyVariant.MULTIPLIER_DIVIDER:
        pattern = buf.rf_pattern_for(scenario.n_trips, scenario.loop)
        ((_, timeline), *_) = buf.divider_schedule(scenario.topology, pattern, scenario.switch)
        return harness.evaluate(timeline, scenario).state_fidelity
    return harness.run_scenario(scenario).state_fidelity


def files() -> dict[str, dict]:
    v24 = buf.TopologyVariant.LOOP_PORTS_2_4
    base = dict(n_trips=2, topology=buf.BufferTopology(v24), seed=7, exact_counts=True)
    # a profile and a loop PMD: the profile's PMD is the one the channel reads
    profile = harness.scenario_to_dict(harness.Scenario(
        name="v2-profile-loop-pmd", loop=buf.FiberLoop(3000.0, pmd_dephasing_per_km=0.3), **base))
    del profile["noise"]
    profile["noise_profile"] = "paper-2023"
    # no noise PMD (null): the loop's 0.3 is read
    null_noise = harness.scenario_to_dict(harness.Scenario(
        name="v2-null-noise-pmd", loop=buf.FiberLoop(3000.0, pmd_dephasing_per_km=0.3),
        noise=buf.NoiseConfig(cross_phase_flip=0.01, accidental_rate=100.0), **base))
    # the divider geometry with a PMD on every path: only the loop's is read
    unit = buf.FiberLoop(4000.0, attenuation_db_per_km=0.15, pmd_dephasing_per_km=0.5)
    short = buf.FiberLoop(1000.0, attenuation_db_per_km=0.15, pmd_dephasing_per_km=0.7)
    divider = harness.scenario_to_dict(harness.Scenario(
        name="v2-divider", loop=buf.FiberLoop(4000.0, 0.15, pmd_dephasing_per_km=0.2),
        topology=buf.BufferTopology(buf.TopologyVariant.MULTIPLIER_DIVIDER,
                                    divider_paths=(unit, short)),
        n_trips=2, noise=buf.NoiseConfig(cross_phase_flip=0.01, accidental_rate=100.0),
        seed=7, exact_counts=True))
    # a version 1 file, with the two knobs version 2 dropped
    v1 = harness.scenario_to_dict(harness.Scenario(
        name="v1-loop-pmd", loop=buf.FiberLoop(5400.0, pmd_dephasing_per_km=0.2),
        noise=buf.NoiseConfig(cross_phase_flip=0.02), **{**base, "n_trips": 1}))
    v1["schema_version"] = 1
    v1["topology"]["selector_rate_hz"] = 1.0
    v1["counting"]["detector_gate_rate_hz"] = 50e6
    return {"v2_profile_loop_pmd.json": profile, "v2_null_noise_pmd.json": null_noise,
            "v2_divider.json": divider, "v1_loop_pmd.json": v1}


def main() -> None:
    expected = {}
    for name, payload in files().items():
        (HERE / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        expected[name] = fidelity(harness.load_scenario(HERE / name))
    (HERE / "expected.json").write_text(json.dumps(expected, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
