import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberloop.counting import (
    ANALYSIS_ANGLES,
    STANDARD_16_LABELS,
    AnalyzerSetting,
    CountingConfig,
    CountRecord,
    analysis_ket,
    expected_coincidence_rate,
    expected_dataset,
    joint_projectors,
    projector,
    read_dataset_csv,
    simulate_dataset,
    standard_16_settings,
    write_dataset_csv,
    _setting_means,
    _setting_rng,
)
from fiberloop.qstate import PAULIS, TwoQubitState, bell_state

SQ2 = 1 / math.sqrt(2)

# hand-built analysis kets (the oracle for the waveplate model)
KETS = {
    "H": np.array([1, 0], complex),
    "V": np.array([0, 1], complex),
    "D": np.array([SQ2, SQ2], complex),
    "A": np.array([SQ2, -SQ2], complex),
    "R": np.array([SQ2, -1j * SQ2], complex),
    "L": np.array([SQ2, 1j * SQ2], complex),
}


def overlap(u, v):
    return abs(np.vdot(u, v))


class TestProjector:
    def test_aligned_plates_give_horizontal(self):
        np.testing.assert_allclose(projector(0.0, 0.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_hwp_at_22p5_gives_diagonal(self):
        p = projector(math.pi / 8, 0.0)
        d = KETS["D"]
        np.testing.assert_allclose(p, np.outer(d, d.conj()), atol=1e-12)

    def test_qwp_at_45_gives_circular(self):
        # independent oracle: multiply the Jones matrices out by hand
        c = s = SQ2
        rot = np.array([[c, -s], [s, c]])
        qwp = rot @ np.diag([1, 1j]) @ rot.T  # rot(-t) = rot(t).T
        hwp0 = np.array([[1, 0], [0, -1]], complex)
        ket = hwp0 @ qwp.conj().T @ np.array([1, 0], complex)
        ket = ket / np.linalg.norm(ket)
        np.testing.assert_allclose(
            projector(0.0, math.pi / 4), np.outer(ket, ket.conj()), atol=1e-12
        )
        assert overlap(ket, KETS["R"]) == pytest.approx(1.0, abs=1e-12)

    def test_all_analysis_angles_match_kets(self):
        for label, (h, q) in ANALYSIS_ANGLES.items():
            assert overlap(analysis_ket(h, q), KETS[label]) == pytest.approx(
                1.0, abs=1e-12
            )

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_projector_properties(self, h, q):
        p = projector(h, q)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


class TestStandard16:
    def test_setting_zero_is_hh(self):
        s0 = standard_16_settings()[0]
        np.testing.assert_allclose(
            s0.joint_projector(), np.diag([1.0, 0, 0, 0]), atol=1e-12
        )

    def test_joint_projectors_idempotent(self):
        for s in standard_16_settings():
            p = s.joint_projector()
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_tomographic_completeness(self):
        # design matrix from density-matrix coordinates to probabilities
        gammas = [np.kron(a, b) / 2.0 for a in PAULIS for b in PAULIS]
        m = np.array(
            [
                [np.trace(s.joint_projector() @ g).real for g in gammas]
                for s in standard_16_settings()
            ]
        )
        assert np.linalg.matrix_rank(m) == 16
        assert np.linalg.cond(m) < 100

    def test_labels_use_standard_states(self):
        used = {lab for pair in STANDARD_16_LABELS for lab in pair}
        assert used <= set("HVDARL")


class TestExpectedRate:
    def test_bell_hh(self):
        cfg = CountingConfig(pair_rate=1000.0)
        s = standard_16_settings()[0]
        rate = expected_coincidence_rate(bell_state(), s.joint_projector(), cfg)
        assert rate == pytest.approx(500.0, abs=1e-9)

    def test_bell_hv_dark(self):
        cfg = CountingConfig(pair_rate=1000.0)
        s = standard_16_settings()[1]  # (H, V)
        rate = expected_coincidence_rate(bell_state(), s.joint_projector(), cfg)
        assert rate == pytest.approx(0.0, abs=1e-9)

    def test_bell_dd(self):
        cfg = CountingConfig(pair_rate=1000.0)
        s = standard_16_settings()[9]  # (D, D)
        rate = expected_coincidence_rate(bell_state(), s.joint_projector(), cfg)
        assert rate == pytest.approx(500.0, abs=1e-9)

    def test_arm_losses_scale_rate(self):
        cfg = CountingConfig(pair_rate=1000.0, signal_arm_loss_db=3.0, idler_arm_loss_db=3.0)
        s = standard_16_settings()[0]
        rate = expected_coincidence_rate(bell_state(), s.joint_projector(), cfg)
        assert rate == pytest.approx(500.0 * 10 ** (-0.6), rel=1e-12)

    @pytest.mark.parametrize(
        "labels",
        [("H", "V"), ("D", "A"), ("R", "L")],
    )
    def test_basis_sum_consistency(self, labels):
        # summing over a full orthonormal joint basis recovers the pair flux
        cfg = CountingConfig(pair_rate=1000.0, idler_arm_loss_db=2.0)
        rho = bell_state()
        total = 0.0
        for a in labels:
            for b in labels:
                ha, qa = ANALYSIS_ANGLES[a]
                hb, qb = ANALYSIS_ANGLES[b]
                s = AnalyzerSetting(ha, qa, hb, qb)
                total += expected_coincidence_rate(rho, s.joint_projector(), cfg)
        assert total == pytest.approx(1000.0 * 10 ** (-0.2), rel=1e-10)


class TestSimulateDataset:
    def test_zero_rates_zero_counts(self):
        cfg = CountingConfig(pair_rate=0.0, accidental_rate=0.0, rng_seed=3)
        recs = simulate_dataset(bell_state(), cfg, 2.0)
        assert all(r.coincidences == 0 and r.accidentals == 0 for r in recs)

    def test_deterministic_for_fixed_seed(self):
        cfg = CountingConfig(pair_rate=5000.0, accidental_rate=20.0, rng_seed=99)
        a = simulate_dataset(bell_state(), cfg, 2.0)
        b = simulate_dataset(bell_state(), cfg, 2.0)
        assert a == b

    def test_different_seeds_differ(self):
        cfg1 = CountingConfig(pair_rate=5000.0, rng_seed=1)
        cfg2 = CountingConfig(pair_rate=5000.0, rng_seed=2)
        a = simulate_dataset(bell_state(), cfg1, 2.0)
        b = simulate_dataset(bell_state(), cfg2, 2.0)
        assert a != b

    def test_order_independent_substreams(self):
        # per-setting streams keyed by (seed, index): a subset simulated
        # alone must reproduce the same counts as within the full sweep
        cfg = CountingConfig(pair_rate=5000.0, accidental_rate=20.0, rng_seed=7)
        full = simulate_dataset(bell_state(), cfg, 2.0)
        sub = simulate_dataset(
            bell_state(), cfg, 2.0, settings=standard_16_settings()[:1]
        )
        assert full[0] == sub[0]

    def test_hh_dominates_hv_for_bell(self):
        cfg = CountingConfig(pair_rate=1e5, rng_seed=11)
        recs = simulate_dataset(bell_state(), cfg, 2.0)
        cc_hh, cc_hv = recs[0].coincidences, recs[1].coincidences
        assert cc_hh / (cc_hh + cc_hv) == pytest.approx(1.0, abs=1e-3)

    def test_mean_converges_to_expected(self):
        # 1000 independent seeds, one setting; 5 sigma standard-error bound
        rate, acc, t = 500.0, 50.0, 2.0
        setting = standard_16_settings()[0]
        nets = []
        for seed in range(1000):
            cfg = CountingConfig(pair_rate=2 * rate, accidental_rate=acc, rng_seed=seed)
            rec = simulate_dataset(bell_state(), cfg, t, settings=[setting])[0]
            nets.append(rec.coincidences - rec.accidentals)
        expected = rate * t
        sigma = math.sqrt((rate + acc) * t + acc * t)
        assert abs(np.mean(nets) - expected) <= 5 * sigma / math.sqrt(len(nets))

    def test_expected_dataset_rounds_means(self):
        cfg = CountingConfig(pair_rate=1000.0, accidental_rate=10.0)
        recs = expected_dataset(bell_state(), cfg, 2.0)
        assert recs[0].coincidences == round(500.0 * 2 + 20)
        assert recs[0].accidentals == 20
        assert recs[0].net == 1000


class TestJointProjectors:
    def test_cached_read_only_stack(self):
        stack = joint_projectors(standard_16_settings())
        assert joint_projectors(list(standard_16_settings())) is stack
        assert not stack.flags.writeable
        np.testing.assert_array_equal(
            stack, [s.joint_projector() for s in standard_16_settings()]
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 4]),
        st.floats(0.0, 40.0),
        st.floats(0.0, 40.0),
        st.floats(0.0, 1e3),
        st.floats(0.01, 10.0),
        st.integers(0, 2**64 - 1),
    )
    def test_datasets_match_per_setting_rates(
        self, state_seed, rank, loss_s, loss_i, accidental, t, seed
    ):
        # the batched rates must give, record for record, the datasets of a
        # reference built one setting at a time
        rng = np.random.Generator(np.random.Philox(state_seed))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = TwoQubitState(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        cfg = CountingConfig(
            pair_rate=3e4, signal_arm_loss_db=loss_s, idler_arm_loss_db=loss_i,
            accidental_rate=accidental, rng_seed=seed,
        )
        means, exact, drawn = [], [], []
        for idx, s in enumerate(standard_16_settings()):
            rate = expected_coincidence_rate(rho, s.joint_projector(), cfg)
            cc, ac = (rate + accidental) * t, accidental * t
            means.append((idx, cc, ac))
            exact.append(CountRecord(idx, round(cc), round(ac), t))
            draw = _setting_rng(seed, idx)
            drawn.append(CountRecord(idx, int(draw.poisson(cc)), int(draw.poisson(ac)), t))
        assert _setting_means(rho, cfg, t, None) == means  # bit for bit
        assert expected_dataset(rho, cfg, t) == exact
        assert simulate_dataset(rho, cfg, t) == drawn


class TestCountRecord:
    def test_net_floors_at_zero(self):
        rec = CountRecord(0, 5, 9, 1.0)
        assert rec.net == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CountRecord(0, -1, 0, 1.0)
        with pytest.raises(ValueError):
            CountRecord(0, 1, 0, 0.0)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        cfg = CountingConfig(pair_rate=5000.0, accidental_rate=20.0, rng_seed=5)
        settings_list = standard_16_settings()
        recs = simulate_dataset(bell_state(), cfg, 2.0, settings_list)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, recs, settings_list)
        recs2, settings2 = read_dataset_csv(path)
        assert recs2 == recs
        assert tuple(settings2) == settings_list

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)
