import copy
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fiberloop
from fiberloop import buffer as buf
from fiberloop import cli
from fiberloop import counting as cnt
from fiberloop import tomography as tomo
from fiberloop.harness import (
    DIVIDER_SHORT_LOOP,
    DIVIDER_UNIT_LOOP,
    GHOST_SURVIVAL_FLOOR,
    PAPER_2023,
    Scenario,
    ScenarioError,
    TABLE1_ROWS,
    evaluate,
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
        assert (1 - 2 * PAPER_2023.noise.cross_phase_flip) ** 2 == pytest.approx(0.96)
        # PMD from the single-pass 5.4 km 0.95 anchor
        var = PAPER_2023.noise.pmd_dephasing_per_km ** 2 * 5.4
        coherence = 0.96 * math.exp(-var / 2)
        assert 0.5 * (1 + coherence) == pytest.approx(0.95, abs=1e-12)

    def test_to_noise(self):
        noise = PAPER_2023.to_noise(accidental_rate=42.0)
        assert noise == replace(PAPER_2023.noise, accidental_rate=42.0)
        assert PAPER_2023.to_noise() == PAPER_2023.noise


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
        assert s.noise == PAPER_2023.noise

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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_names_its_path(self, tmp_path, kind):
        # these used to escape as FileNotFoundError, IsADirectoryError and
        # UnicodeDecodeError
        path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
                "not-utf8": tmp_path / "binary.json"}[kind]
        if kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ScenarioError, match=re.escape(str(path))):
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

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert cli.main(["run", str(path)]) == 2
        # a missing file, a directory and a file that is not UTF-8
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        for bad in (tmp_path / "missing.json", tmp_path, binary):
            capsys.readouterr()
            assert cli.main(["run", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bad) in err

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

    def test_divider_topology_runs_only_in_its_suite(self, tmp_path, capsys):
        """A MULTIPLIER_DIVIDER scenario file loads, but run and sweep reject it
        by field and name the divider suite, with the error exit code."""
        path = write_scenario(tmp_path, scenario_to_dict(divider_scenario()))
        with pytest.raises(ScenarioError, match=r"'div'.*topology\.variant.*divider suite"):
            run_scenario(load_scenario(path))
        sweep = ["--param", "noise.cross_phase_flip", "--values", "0,0.01"]
        for argv in (["run", str(path)], ["sweep", str(path), *sweep]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: scenario 'div")
            assert "topology.variant" in err and "divider suite" in err
            assert "divider_schedule" not in err

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_counts_scale_is_named(self, tmp_path, capsys, scale):
        """A counts scale that is not finite and positive is rejected by name,
        not as a bad integration time or a numpy error from the draw."""
        assert cli.main(["table1", "--counts-scale", scale, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: counts_scale must be finite and positive, got ")
        assert "integration time" not in err
        assert not list(tmp_path.rglob("*.json"))

    @pytest.mark.parametrize("key, value", [("pair_rate", 1e20), ("integration_time", 1e30)])
    def test_poisson_mean_too_large_names_fields(self, tmp_path, capsys, key, value):
        """A coincidence mean beyond numpy's Poisson sampler is refused by the
        knobs that set it, not by numpy's bare "lam value too large"."""
        payload = replaced(scenario_to_dict(table1_scenarios()[0]), ("counting", key), value)
        assert cli.main(["run", str(write_scenario(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario 'N1-L5.4km': coincidence mean ")
        for name in ("pair_rate", "accidental_rate", "integration_time", "counts_scale"):
            assert name in err

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


LEGACY = Path(__file__).parent / "data" / "legacy"
LEGACY_F = json.loads((LEGACY / "expected.json").read_text())


def divider_scenario() -> Scenario:
    topology = buf.BufferTopology(
        buf.TopologyVariant.MULTIPLIER_DIVIDER,
        divider_paths=(DIVIDER_UNIT_LOOP, DIVIDER_SHORT_LOOP),
    )
    return quiet_scenario(name="div", loop=DIVIDER_UNIT_LOOP, n_trips=2, topology=topology)


def write_scenario(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    return path


def replaced(payload: dict, path: tuple, value) -> dict:
    """A deep copy of ``payload`` with the entry at ``path`` set to ``value``."""
    payload = copy.deepcopy(payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


class TestMalformedScenario:
    """Every malformed file is a ScenarioError (exit 2), never a traceback."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("loop", "length_m"), -1.0),
            (("loop", "attenuation_db_per_km"), math.nan),
            (("n_trips",), "2"),
            (("n_trips",), 2.0),
            (("n_trips",), True),
            (("loop", "length_m"), True),
            (("counting", "pair_rate"), None),
            (("noise_profile",), []),
            (("noise",), [1.0]),
            (("loop",), 5400.0),
            (("topology", "variant"), "LOOP_PORTS_9_9"),
            (("topology", "variant"), ["LOOP_PORTS_2_4"]),
            (("topology", "divider_paths"), 5),
            (("topology", "divider_paths"), [5]),
            (("seed",), 1.5),
            (("expect_leak",), 0),
            (("name",), 7),
            (("switch", "loss_cross_db"), 10**400),
            (("schema_version",), "2"),
            (("schema_version",), True),
            (("counting", "pair_rate"), math.nan),
            (("counting", "pair_rate"), -1.0),
            (("counting", "signal_arm_loss_db"), math.inf),
            (("counting", "signal_arm_loss_db"), -0.5),
            (("counting", "integration_time"), 0.0),
            (("counting", "integration_time"), math.inf),
        ],
    )
    def test_scenario_error_and_exit_code(self, tmp_path, path, value):
        payload = replaced(scenario_to_dict(quiet_scenario()), path, value)
        with pytest.raises(ScenarioError):
            scenario_from_dict(payload)
        assert cli.main(["run", str(write_scenario(tmp_path, payload))]) == 2

    @pytest.mark.parametrize(
        "key, value, bound",
        [("pair_rate", math.nan, "finite"), ("signal_arm_loss_db", math.inf, "finite"),
         ("integration_time", 0.0, "positive")],
    )
    def test_counting_error_names_field(self, key, value, bound):
        # caught at load: a NaN pair rate would fail only in numpy's Poisson
        # draw, and an infinite arm loss would fit pure accidentals
        payload = replaced(scenario_to_dict(quiet_scenario()), ("counting", key), value)
        message = f"scenario 'test': Scenario.{key} must be {bound}, got {value}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "divider, path, value, message",
        [
            (False, ("loop", "length_m"), -1.0,
             "scenario.loop: FiberLoop.length_m must be positive, got -1.0"),
            (False, ("switch", "rise_fall_time"), 0.0,
             "scenario.switch: SwitchSpec.rise_fall_time must be positive, got 0.0"),
            (False, ("topology", "leak_threshold_hz"), -5.0,
             "scenario.topology: BufferTopology.leak_threshold_hz must be positive, got -5.0"),
            (True, ("topology", "divider_paths", 1, "group_index"), 0.5,
             "scenario.topology.divider_paths[1]: FiberLoop.group_index must be >= 1, got 0.5"),
            (False, ("noise", "cross_bit_flip"), 1.5,
             "scenario.noise: NoiseConfig.cross_bit_flip must be a probability in [0, 1], "
             "got 1.5"),
            (False, ("counting", "pair_rate"), -1.0,
             "scenario 'test': Scenario.pair_rate must be nonnegative, got -1.0"),
            (False, ("n_trips",), 0, "scenario 'test': Scenario.n_trips must be >= 1, got 0"),
        ],
        ids=["loop", "switch", "topology", "divider_paths", "noise", "counting", "scenario"],
    )
    def test_validator_error_names_section(self, divider, path, value, message):
        base = divider_scenario() if divider else quiet_scenario()
        payload = replaced(scenario_to_dict(base), path, value)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(payload)

    def test_divider_path_error_names_item(self):
        payload = replaced(
            scenario_to_dict(divider_scenario()), ("topology", "divider_paths", 1, "length_m"), "1"
        )
        with pytest.raises(ScenarioError, match=r"divider_paths\[1\]\.length_m"):
            scenario_from_dict(payload)

    @pytest.mark.parametrize("payload", [[], "scenario", None])
    def test_non_object_file(self, payload):
        with pytest.raises(ScenarioError, match="expected an object"):
            scenario_from_dict(payload)

    def test_missing_field(self):
        payload = scenario_to_dict(quiet_scenario())
        del payload["loop"]["length_m"]
        with pytest.raises(ScenarioError, match="length_m"):
            scenario_from_dict(payload)

    def test_integer_float_field_loads_as_float(self):
        payload = replaced(scenario_to_dict(quiet_scenario()), ("loop", "length_m"), 5400)
        assert type(scenario_from_dict(payload).loop.length_m) is float


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def entry_paths(node, prefix=()):
    """Paths of every entry of a JSON tree, sections and their items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from entry_paths(value, prefix + (key,))


BASES = [
    scenario_to_dict(quiet_scenario()),
    scenario_to_dict(quiet_scenario(name="leaky", loop=buf.FiberLoop(1850.0), n_trips=2)),
    scenario_to_dict(divider_scenario()),
]
MUTATION_SITES = [(i, path) for i, base in enumerate(BASES) for path in entry_paths(base)]


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(MUTATION_SITES), value=JSON_VALUES)
@example(site=(1, ("loop", "attenuation_db_per_km")), value=1e308)  # leak at an infinite loss
def test_any_json_field_gives_finite_result_or_scenario_error(site, value):
    base, path = site
    try:
        scenario = scenario_from_dict(replaced(BASES[base], path, value))
        result = run_scenario(scenario)
    except ScenarioError:
        return
    numbers = [result.buffer_time, result.insertion_loss_db, result.survival,
               result.state_fidelity, result.process_fidelity, result.purity,
               *(result.chi_diagonal or ())]
    assert all(math.isfinite(v) for v in numbers if v is not None), result


class TestTripCap:
    def test_over_the_cap_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="1000"):
            run_scenario(quiet_scenario(n_trips=buf.MAX_TRIPS + 1))

    def test_at_the_cap_runs(self):
        # lossless 100 m loop and switch: 1000 trips still leave counts to fit
        scenario = quiet_scenario(
            loop=buf.FiberLoop(100.0, attenuation_db_per_km=0.0),
            switch=buf.SwitchSpec(loss_cross_db=0.0, loss_straight_db=0.0),
            n_trips=buf.MAX_TRIPS,
        )
        result = run_scenario(scenario)
        assert result.timeline.round_trips == buf.MAX_TRIPS
        assert result.state_fidelity >= 0.999


class TestScenarioName:
    @pytest.mark.parametrize(
        "name", ["../../escaped", "a/b", "a\\b", ".", "..", "", "a" * 300, "\u00e9" * 128]
    )
    def test_rejected_everywhere(self, tmp_path, name):
        with pytest.raises(ScenarioError, match="name"):
            quiet_scenario(name=name)
        payload = replaced(scenario_to_dict(quiet_scenario()), ("name",), name)
        with pytest.raises(ScenarioError, match="name"):
            scenario_from_dict(payload)
        out = tmp_path / "deep" / "out"
        path = write_scenario(tmp_path, payload)
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["s.json"]  # nothing written

    def test_longest_name_still_runs(self, tmp_path):
        result = run_scenario(quiet_scenario(name="a" * 255), out_dir=tmp_path)
        assert Path(result.artifacts["metrics"]).parent.name == "a" * 255


class TestSchemaVersions:
    @pytest.mark.parametrize("with_dropped_keys", [False, True])
    def test_v1_file_loads_to_equal_scenario(self, with_dropped_keys):
        for scenario in (quiet_scenario(noise=PAPER_2023.to_noise(7.0)), divider_scenario()):
            payload = scenario_to_dict(scenario)
            payload["schema_version"] = 1
            if with_dropped_keys:
                payload["topology"]["selector_rate_hz"] = 1.0
                payload["counting"]["detector_gate_rate_hz"] = 50e6
            assert scenario_from_dict(payload) == scenario

    @pytest.mark.parametrize(
        "section, key",
        [("topology", "selector_rate_hz"), ("counting", "detector_gate_rate_hz"),
         ("loop", "pmd_dephasing_per_km"), ("topology", "leak_fraction")],
    )
    def test_current_schema_rejects_dropped_keys(self, section, key):
        payload = scenario_to_dict(quiet_scenario())
        payload[section][key] = 1.0
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(payload)

    @pytest.mark.parametrize("key", ["pair_rate", "signal_arm_loss_db", "integration_time"])
    def test_counting_field_rejected_at_top_level(self, key):
        payload = scenario_to_dict(quiet_scenario())
        del payload["counting"][key]
        payload[key] = 1.0
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(payload)

    def test_v3_roundtrip_divider_topology(self):
        s = divider_scenario()
        payload = scenario_to_dict(s)
        assert payload["schema_version"] == 3
        assert json.loads(json.dumps(payload)) == payload
        assert scenario_from_dict(payload) == s

    @pytest.mark.parametrize("name", sorted(LEGACY_F))
    def test_legacy_file_runs_as_before(self, name):
        """v1 and v2 files written before schema 3 give their F bit for bit:
        the profile's PMD beats the loop's, a null noise PMD takes the loop's,
        and the divider paths' PMD, which was never read, is dropped."""
        s = load_scenario(LEGACY / name)
        if s.topology.variant is buf.TopologyVariant.MULTIPLIER_DIVIDER:
            pattern = buf.rf_pattern_for(s.n_trips, s.loop)
            ((_, timeline), *_) = buf.divider_schedule(s.topology, pattern, s.switch)
            result = evaluate(timeline, s)
        else:
            result = run_scenario(s)
        assert result.state_fidelity == LEGACY_F[name]

    def test_legacy_pmd_lands_in_noise(self):
        profile = load_scenario(LEGACY / "v2_profile_loop_pmd.json")
        assert profile.noise == PAPER_2023.noise
        null_noise = load_scenario(LEGACY / "v2_null_noise_pmd.json")
        assert null_noise.noise.pmd_dephasing_per_km == 0.3
        divider = load_scenario(LEGACY / "v2_divider.json")
        assert divider.noise.pmd_dephasing_per_km == 0.2
        assert divider.topology.divider_paths == (DIVIDER_UNIT_LOOP, DIVIDER_SHORT_LOOP)

    @pytest.mark.parametrize("value", [0.5, True, "1.0"])
    def test_v2_partial_leak_rejected(self, value):
        payload = json.loads((LEGACY / "v2_null_noise_pmd.json").read_text())
        payload["topology"]["leak_fraction"] = value
        with pytest.raises(ScenarioError, match=r"topology\.leak_fraction"):
            scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "name, path, where",
        [("v2_profile_loop_pmd.json", ("loop",), "loop"),
         ("v2_null_noise_pmd.json", ("loop",), "loop"),
         ("v2_divider.json", ("topology", "divider_paths", 1), r"topology\.divider_paths\[1\]")],
    )
    @pytest.mark.parametrize("value", [-1.0, math.nan, "0.3"])
    def test_dropped_pmd_is_still_checked(self, name, path, where, value):
        # the schema-2 loader refused these, whether or not it read the value
        payload = json.loads((LEGACY / name).read_text())
        with pytest.raises(ScenarioError, match=where):
            scenario_from_dict(replaced(payload, (*path, "pmd_dephasing_per_km"), value))

    def test_loop_pmd_is_no_sweep_path(self):
        with pytest.raises(ScenarioError, match=r"sweep path 'loop.pmd_dephasing_per_km' not found"):
            run_sweep(quiet_scenario(), "loop.pmd_dephasing_per_km", [0.0, 0.5])

    @pytest.mark.parametrize(
        "section",
        [(), ("loop",), ("topology",), ("switch",), ("noise",), ("counting",),
         ("topology", "divider_paths", 0)],
    )
    def test_unknown_key_rejected_in_every_section(self, section):
        payload = scenario_to_dict(divider_scenario())
        node = payload
        for key in section:
            node = node[key]
        node["typo_key"] = 1.0
        with pytest.raises(ScenarioError, match="typo_key"):
            scenario_from_dict(payload)


class TestRunIds:
    def test_counts_scale_gets_its_own_directory(self, tmp_path):
        a = run_scenario(quiet_scenario(), counts_scale=1.0, out_dir=tmp_path)
        b = run_scenario(quiet_scenario(), counts_scale=4.0, out_dir=tmp_path)
        assert Path(a.artifacts["dataset"]).parent != Path(b.artifacts["dataset"]).parent
        assert len(list(tmp_path.rglob("dataset.csv"))) == 2

    def test_exact_counts_suites_do_not_collide(self, tmp_path):
        for exact in (True, False):
            run_table1_suite(seed=3, exact_counts=exact, out_dir=tmp_path)
            run_divider_suite(seed=3, exact_counts=exact, out_dir=tmp_path)
        assert len(list(tmp_path.glob("table1-*/comparison.csv"))) == 2
        assert len(list(tmp_path.glob("divider-*/divider_summary.json"))) == 2
        assert len(list(tmp_path.glob("table1-*/*/dataset.csv"))) == 14
        assert len(list(tmp_path.glob("divider-*/*/dataset.csv"))) == 6

    def test_table1_rows_under_suite_directory(self, tmp_path):
        results, _ = run_table1_suite(seed=3, exact_counts=True, out_dir=tmp_path)
        (suite,) = tmp_path.iterdir()
        assert suite.name.startswith("table1-")
        for r in results:
            assert Path(r.artifacts["metrics"]).parent == suite / r.scenario_name

    def test_sweep_rows_under_one_directory(self, tmp_path):
        run_sweep(quiet_scenario(), "noise.cross_phase_flip", [0.0, 0.05], out_dir=tmp_path)
        (suite,) = tmp_path.iterdir()
        assert suite.name.startswith("sweep-")
        assert len(list(suite.glob("*/metrics.json"))) == 2


def test_ghost_row_writes_timeline_and_run_result_only(tmp_path):
    results = run_divider_suite(seed=2, exact_counts=True, out_dir=tmp_path)
    (ghost,) = [r for r in results if r.ghost]
    assert set(ghost.artifacts) == {"timeline"}
    row = Path(ghost.artifacts["timeline"]).parent
    assert sorted(p.name for p in row.iterdir()) == ["run_result.json", "timeline.json"]
    saved = json.loads((row / "run_result.json").read_text())
    assert saved["ghost"] and saved["negligible_counts"] and saved["F"] is None


def test_pipeline_reproduces_reference_datasets(tmp_path):
    """The committed MLE corpus holds the table1 datasets of seeds 0-9; the
    pipeline must still draw exactly those counts."""
    reference = json.loads((Path(__file__).parent / "data" / "mle_reference.json").read_text())
    expected = {e["label"]: e["net_counts"] for e in reference["datasets"]}
    for seed in range(10):
        for s in table1_scenarios(seed=seed):
            result = run_scenario(s, out_dir=tmp_path / str(seed))
            records, _ = cnt.read_dataset_csv(result.artifacts["dataset"])
            assert [r.net for r in records] == expected[f"table1-seed{seed}-{s.name}"]


def test_table1_metrics_are_the_standing_invariant(tmp_path):
    """run_table1_suite(seed=42) must write the committed metrics.json payloads;
    a row's run_result.json names its sibling files and holds no timeline."""
    reference = json.loads(
        (Path(__file__).parent / "data" / "table1_seed42_metrics.json").read_text()
    )
    results, _ = run_table1_suite(seed=42, out_dir=tmp_path)
    assert sorted(r.scenario_name for r in results) == sorted(reference)
    for r in results:
        saved = json.loads(Path(r.artifacts["metrics"]).read_text())
        expected = reference[r.scenario_name]
        assert set(saved) == set(expected)
        for key, value in expected.items():
            assert saved[key] == pytest.approx(value, rel=0, abs=1e-10), (r.scenario_name, key)
    row = Path(results[0].artifacts["timeline"]).parent
    summary = json.loads((row / "run_result.json").read_text())
    assert "timeline" not in summary
    assert set(summary["artifacts"]) == {"timeline", "dataset", "rho", "chi", "metrics"}
    assert all((row / name).is_file() for name in summary["artifacts"].values())


def test_artifacts_do_not_depend_on_the_output_path(tmp_path, monkeypatch):
    """A suite written under a short relative --out and under a long
    absolute one gives the same bytes in every file, run_result.json too."""
    monkeypatch.chdir(tmp_path)
    deep = tmp_path / ("d" * 40) / "nested" / "out"
    trees = []
    for out in (Path("o"), deep):
        run_table1_suite(seed=42, out_dir=out)
        run_divider_suite(seed=42, out_dir=out)
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) > 30 and trees[0] == trees[1]
    assert any(p.name == "run_result.json" for p in trees[0])


def test_readme_scenario_loads_and_runs():
    """The scenario file shown in README.md is valid for the current schema."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    payload = json.loads(block)
    scenario = scenario_from_dict(payload)
    result = run_scenario(scenario)
    assert result.timeline.retrieved and 0.5 < result.state_fidelity <= 1.0
    assert payload["schema_version"] == 3
    assert scenario_from_dict({**payload, "schema_version": 2}) == scenario


class TestLostPhoton:
    @pytest.mark.parametrize("n_trips", [200, 150])  # survival 0.0, and subnormal
    def test_underflowed_survival_names_the_insertion_loss(self, n_trips):
        scenario = quiet_scenario(name="lost", loop=buf.FiberLoop(100_000.0), n_trips=n_trips)
        loss = buf.insertion_loss_db(n_trips, scenario.loop, scenario.switch)
        assert loss > 3000.0
        with pytest.raises(ScenarioError, match=rf"'lost': insertion loss {loss:.6g} dB"):
            run_scenario(scenario)

    @pytest.mark.parametrize("exact_counts", [True, False])
    def test_tiny_survival_names_the_insertion_loss(self, exact_counts):
        # 2,101 dB: survival 1e-210 is representable, yet no count is left to fit
        scenario = quiet_scenario(name="lost", loop=buf.FiberLoop(100_000.0), n_trips=100,
                                  exact_counts=exact_counts)
        loss = buf.insertion_loss_db(100, scenario.loop, scenario.switch)
        assert 0.0 < buf.loss_to_survival(loss) < 1e-200
        with pytest.raises(ScenarioError,
                           match=rf"'lost': insertion loss {loss:.6g} dB leaves no photon"):
            run_scenario(scenario)

    def test_committed_lost_photon_file_exits_2(self, tmp_path, capsys):
        path = Path(__file__).parent / "data" / "lost_photon.json"
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "'lost-photon': insertion loss 2101.4 dB" in capsys.readouterr().err
