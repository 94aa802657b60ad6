import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fiberloop
from fiberloop import buffer as buf
from fiberloop import cli
from fiberloop import tomography as tomo
from fiberloop.harness import (
    GHOST_SURVIVAL_FLOOR,
    PAPER_2023,
    Scenario,
    ScenarioError,
    TABLE1_ROWS,
    load_scenario,
    run_divider_suite,
    run_scenario,
    run_sweep,
    run_table1_suite,
    scenario_from_dict,
    scenario_to_dict,
    table1_scenarios,
)

V24 = buf.TopologyVariant.LOOP_PORTS_2_4


def quiet_scenario(**overrides) -> Scenario:
    base = dict(
        name="test",
        loop=buf.FiberLoop(5400.0),
        n_trips=1,
        topology=buf.BufferTopology(V24),
        pair_rate=2e6,
        seed=1,
        exact_counts=True,
    )
    base.update(overrides)
    return Scenario(**base)


class TestNoiseProfile:
    def test_calibration_anchors(self):
        # per-cross phase flip from the two-cross 0.98 anchor
        assert (1 - 2 * PAPER_2023.cross_phase_flip) ** 2 == pytest.approx(0.96)
        # PMD from the single-pass 5.4 km 0.95 anchor
        var = PAPER_2023.pmd_dephasing_per_km ** 2 * 5.4
        coherence = 0.96 * math.exp(-var / 2)
        assert 0.5 * (1 + coherence) == pytest.approx(0.95, abs=1e-12)

    def test_to_noise(self):
        noise = PAPER_2023.to_noise(accidental_rate=42.0)
        assert noise.accidental_rate == 42.0
        assert noise.cross_phase_flip == PAPER_2023.cross_phase_flip


class TestRunScenario:
    def test_noiseless_single_pass(self):
        result = run_scenario(quiet_scenario())
        assert result.insertion_loss_db == pytest.approx(3.48, abs=0.01)
        assert result.state_fidelity >= 0.999
        assert result.survival == pytest.approx(10 ** (-0.348), rel=1e-9)
        assert not result.leaked

    def test_leak_sets_flag_and_drops_fidelity(self):
        scenario = quiet_scenario(
            name="leak", loop=buf.FiberLoop(1850.0), n_trips=2, expect_leak=True
        )
        result = run_scenario(scenario)
        assert result.leaked
        assert result.state_fidelity is None
        assert result.process_fidelity is None

    def test_calibrated_regime(self):
        scenario = quiet_scenario(
            name="N2-cal",
            n_trips=2,
            noise=PAPER_2023.to_noise(),
        )
        result = run_scenario(scenario)
        # two cross passes plus PMD over 10.8 km, exact-statistics mode
        expected = 0.5 * (1 + 0.96 * 0.9375**2)
        assert result.state_fidelity == pytest.approx(expected, abs=5e-4)
        assert result.process_fidelity == pytest.approx(expected, abs=5e-4)

    def test_loss_matches_closed_form_every_row(self):
        for row, scenario in zip(TABLE1_ROWS, table1_scenarios(exact_counts=True)):
            pattern = buf.rf_pattern_for(scenario.n_trips, scenario.loop)
            timeline = buf.simulate_timeline(
                pattern, scenario.loop, scenario.topology, scenario.switch
            )
            closed_form = buf.insertion_loss_db(
                scenario.n_trips, scenario.loop, scenario.switch
            )
            assert timeline.final_loss_db == pytest.approx(closed_form, abs=1e-12)

    def test_error_carries_scenario_context(self):
        scenario = quiet_scenario(
            name="needs-vpi",
            topology=buf.BufferTopology(buf.TopologyVariant.LOOP_PORTS_2_3),
            loop=buf.FiberLoop(1300.0),
            n_trips=2,
        )
        with pytest.raises(ScenarioError, match="needs-vpi"):
            run_scenario(scenario)

    def test_persists_artifacts(self, tmp_path):
        result = run_scenario(quiet_scenario(), out_dir=tmp_path)
        for key in ("timeline", "dataset", "rho", "chi", "metrics"):
            assert key in result.artifacts
        metrics = json.loads(open(result.artifacts["metrics"]).read())
        assert set(metrics) == {"F", "F_chi", "purity", "chi_diag"}

    def test_deterministic_artifacts(self, tmp_path):
        scenario = quiet_scenario(exact_counts=False, pair_rate=5e4)
        r1 = run_scenario(scenario, out_dir=tmp_path / "a")
        r2 = run_scenario(scenario, out_dir=tmp_path / "b")
        m1 = open(r1.artifacts["metrics"], "rb").read()
        m2 = open(r2.artifacts["metrics"], "rb").read()
        assert m1 == m2


class TestTable1Suite:
    def test_all_rows_pass_reference_comparison(self):
        _, comparison = run_table1_suite(seed=3, exact_counts=True)
        assert len(comparison) == 7
        for row in comparison:
            assert row["time_pass"], row
            assert row["loss_pass"], row

    def test_comparison_csv_written(self, tmp_path):
        run_table1_suite(seed=3, exact_counts=True, out_dir=tmp_path)
        found = list(tmp_path.glob("table1-*/comparison.csv"))
        assert len(found) == 1


class TestDividerSuite:
    def test_three_buffer_times_and_ghost(self):
        results = run_divider_suite(seed=2, exact_counts=True)
        by_name = {r.scenario_name: r for r in results}
        assert by_name["divider-bypass"].buffer_time == 0.0
        assert by_name["divider-divided-by-4"].buffer_time == pytest.approx(
            4.9e-6, rel=0.01
        )
        assert by_name["divider-unit-x2"].buffer_time == pytest.approx(
            39.1e-6, rel=0.01
        )
        ghost = by_name["divider-ghost"]
        assert ghost.ghost
        assert ghost.buffer_time == pytest.approx(5 * 4.9e-6, rel=0.01)
        assert ghost.negligible_counts
        assert ghost.survival < GHOST_SURVIVAL_FLOOR

    def test_retrievable_times_have_fidelities(self):
        results = run_divider_suite(seed=2, exact_counts=True)
        for r in results:
            if not r.ghost:
                assert r.state_fidelity is not None
                assert 0.9 <= r.state_fidelity <= 1.0


class TestScenarioSerialization:
    def test_roundtrip(self):
        s = quiet_scenario(noise=PAPER_2023.to_noise(accidental_rate=7.0))
        again = scenario_from_dict(scenario_to_dict(s))
        assert again == s

    def test_unknown_key_rejected(self):
        payload = scenario_to_dict(quiet_scenario())
        payload["typo_field"] = 1
        with pytest.raises(ScenarioError, match="typo_field"):
            scenario_from_dict(payload)

    def test_unknown_nested_key_rejected(self):
        payload = scenario_to_dict(quiet_scenario())
        payload["loop"]["lenght_m"] = 99.0
        with pytest.raises(ScenarioError, match="lenght_m"):
            scenario_from_dict(payload)

    def test_schema_version_enforced(self):
        payload = scenario_to_dict(quiet_scenario())
        payload["schema_version"] = 99
        with pytest.raises(ScenarioError, match="schema"):
            scenario_from_dict(payload)

    def test_noise_profile_reference(self):
        payload = scenario_to_dict(quiet_scenario())
        del payload["noise"]
        payload["noise_profile"] = "paper-2023"
        s = scenario_from_dict(payload)
        assert s.noise.cross_phase_flip == PAPER_2023.cross_phase_flip

    def test_unknown_profile_rejected(self):
        payload = scenario_to_dict(quiet_scenario())
        payload["noise_profile"] = "paper-1999"
        with pytest.raises(ScenarioError, match="paper-1999"):
            scenario_from_dict(payload)

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(quiet_scenario())))
        assert load_scenario(path) == quiet_scenario()

    @pytest.mark.parametrize(
        "section, field",
        [("loop", "attenuation_db_per_km"), ("switch", "loss_cross_db"),
         ("noise", "pmd_dephasing_per_km")],
    )
    def test_nan_field_rejected(self, tmp_path, section, field):
        # a NaN loss used to be skipped as "no loss" and report F = 1
        payload = scenario_to_dict(quiet_scenario())
        payload[section][field] = math.nan
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            scenario_from_dict(payload)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))  # written as the JSON token NaN
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_scenario(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestSweep:
    def test_sweep_over_phase_flip(self):
        base = quiet_scenario()
        results = run_sweep(base, "noise.cross_phase_flip", [0.0, 0.05])
        assert results[0].state_fidelity > results[1].state_fidelity

    def test_bad_path_rejected(self):
        with pytest.raises(ScenarioError, match="not found"):
            run_sweep(quiet_scenario(), "noise.nonexistent", [1])


class TestCli:
    def test_run_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(quiet_scenario())))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        f = float(re.search(r"F (\S+),", capsys.readouterr().out).group(1))
        assert 0.99 <= f <= 1.0

    def test_unexpected_leak_exit_code(self, tmp_path):
        scenario = quiet_scenario(name="leaky", loop=buf.FiberLoop(1850.0), n_trips=2)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        assert cli.main(["run", str(path)]) == 2

    def test_expected_leak_ok(self, tmp_path):
        scenario = quiet_scenario(
            name="leaky", loop=buf.FiberLoop(1850.0), n_trips=2, expect_leak=True
        )
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        assert cli.main(["run", str(path)]) == 0

    def test_sweep_cli(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(quiet_scenario())))
        rc = cli.main(
            ["sweep", str(path), "--param", "noise.cross_phase_flip", "--values", "0,0.02"]
        )
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_sweep_seed_flag(self, tmp_path):
        scenario = quiet_scenario(exact_counts=False, pair_rate=5e4, seed=5)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        runs = {"1": ["--seed", "1"], "99": ["--seed", "99"], "5": ["--seed", "5"], "none": []}
        for out, flag in runs.items():
            rc = cli.main(["sweep", str(path), "--param", "noise.cross_phase_flip",
                           "--values", "0.01", "--out", str(tmp_path / out), *flag])
            assert rc == 0
        csv = {out: next((tmp_path / out).rglob("dataset.csv")).read_bytes() for out in runs}
        assert csv["1"] != csv["99"]
        assert csv["none"] == csv["5"]

    def test_bad_scenario_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert cli.main(["run", str(path)]) == 2

    def test_seed_flag_overrides_scenario(self, tmp_path, capsys):
        scenario = quiet_scenario(exact_counts=False, pair_rate=5e4)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        assert cli.main(["run", str(path)]) == 0
        base_out = capsys.readouterr().out
        assert cli.main(["run", str(path), "--seed", "77"]) == 0
        assert capsys.readouterr().out != base_out

    def test_seed_zero_overrides_scenario(self, tmp_path):
        scenario = quiet_scenario(exact_counts=False, pair_rate=5e4, seed=5)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        seed0 = tmp_path / "s0.json"
        seed0.write_text(json.dumps(scenario_to_dict(replace(scenario, seed=0))))
        for args, out in (([str(path), "--seed", "0"], "override"),
                          ([str(seed0)], "seed0"), ([str(path)], "seed5")):
            assert cli.main(["run", *args, "--out", str(tmp_path / out)]) == 0
        override, seed0_csv, seed5_csv = (
            next((tmp_path / out).rglob("dataset.csv")).read_bytes()
            for out in ("override", "seed0", "seed5")
        )
        assert override == seed0_csv
        assert override != seed5_csv

    def test_unconverged_fit_exit_code(self, tmp_path, capsys, one_step_fit):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_dict(quiet_scenario())))
        assert cli.main(["run", str(path)]) == 2
        assert "certificate" in capsys.readouterr().err


@pytest.fixture
def one_step_fit(monkeypatch):
    """A fit whose Newton-step budget is too small to reach its certificate."""
    fit = tomo.reconstruct_state
    monkeypatch.setattr(
        tomo, "reconstruct_state",
        lambda records, settings: fit(records, settings, tomo.MleConfig(max_iterations=1)),
    )


class TestFitFailure:
    def test_run_scenario_names_scenario(self, one_step_fit):
        with pytest.raises(ScenarioError, match="'test'.*certificate"):
            run_scenario(quiet_scenario())

    def test_divider_suite_names_scenario(self, one_step_fit):
        with pytest.raises(ScenarioError, match="'divider-.*certificate"):
            run_divider_suite(seed=2, exact_counts=True)


def test_runs_without_scipy(tmp_path):
    code = (
        "import sys\n"
        "from fiberloop import harness\n"
        "harness.run_scenario(harness.table1_scenarios()[0], out_dir=sys.argv[1])\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = str(Path(fiberloop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
