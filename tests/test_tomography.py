import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_state, trace_distance
from fiberloop import qstate
from fiberloop.counting import (
    CountingConfig,
    CountRecord,
    expected_dataset,
    joint_projectors,
    simulate_dataset,
    standard_16_settings,
)
from fiberloop.qstate import (
    TwoQubitState,
    apply_idler_channel,
    bell_state,
    bit_flip_channel,
    channel_to_chi,
    phase_damping_channel,
)
from fiberloop.tomography import (
    IncompleteSettingsError,
    InsufficientDataError,
    MleConfig,
    MleConvergenceError,
    _certificate,
    _design,
    _eigen_coords,
    _Q,
    _solve,
    _warm_start,
    reconstruct_chi,
    reconstruct_state,
    report_metrics,
)

SETTINGS = standard_16_settings()
FAST = MleConfig()


def exact_records(rho, flux=4e6, accidental=0.0, seed=0):
    cfg = CountingConfig(pair_rate=flux / 2.0, accidental_rate=accidental, rng_seed=seed)
    return expected_dataset(rho, cfg, 2.0, SETTINGS)


def poisson_records(rho, flux=4e6, accidental=0.0, seed=0):
    cfg = CountingConfig(pair_rate=flux / 2.0, accidental_rate=accidental, rng_seed=seed)
    return simulate_dataset(rho, cfg, 2.0, SETTINGS)


def standard_basis_terms(sigma, design, counts):
    """-sum_j n_j log p_j and its gradient G = -sum_j n_j E_j / p_j, with
    p_j = Tr(E_j sigma), computed in the fixed basis without the solver."""
    p = (design.povm.conj() @ sigma.ravel()).real
    return -float(counts @ np.log(p)), -((counts / p) @ design.povm).reshape(4, 4)


class TestGradient:
    def test_matches_finite_differences(self):
        """The solver's eigen-coordinate gradient -r is the derivative of the
        negative log-likelihood along the rotated basis V Q_k V^dag."""
        rng = np.random.Generator(np.random.Philox(42))
        design = _design(SETTINGS)
        counts = rng.uniform(10, 1000, size=16)
        sigma = random_state(7).matrix
        lam, v = np.linalg.eigh(sigma)
        _, _, p, r = _eigen_coords(design, counts, lam, v)
        np.testing.assert_allclose(p, (design.povm.conj() @ sigma.ravel()).real, atol=1e-14)
        eps = 1e-6
        for k, q in enumerate(_Q):
            direction = v @ q @ v.conj().T
            up, _ = standard_basis_terms(sigma + eps * direction, design, counts)
            dn, _ = standard_basis_terms(sigma - eps * direction, design, counts)
            expected = (up - dn) / (2 * eps)
            assert -r[k] == pytest.approx(expected, rel=1e-4, abs=1e-6)


class TestReconstructState:
    def test_bell_closed_loop(self):
        rho = reconstruct_state(exact_records(bell_state()), SETTINGS)
        assert qstate.state_fidelity(rho, bell_state()) >= 0.999

    def test_maximally_mixed_closed_loop(self):
        mixed = TwoQubitState(np.eye(4, dtype=complex) / 4)
        rho = reconstruct_state(exact_records(mixed), SETTINGS)
        assert np.linalg.eigvalsh(rho.matrix).max() <= 0.26

    def test_product_state_closed_loop(self):
        hh = np.zeros((4, 4), complex)
        hh[0, 0] = 1.0
        rho = reconstruct_state(exact_records(TwoQubitState(hh)), SETTINGS)
        assert rho.matrix[0, 0].real >= 0.99

    def test_output_always_physical(self):
        for seed in range(6):
            recs = poisson_records(bell_state(), flux=2000.0, seed=seed)
            rho = reconstruct_state(recs, SETTINGS, FAST).matrix
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-9

    def test_deterministic(self):
        recs = poisson_records(bell_state(), flux=1e5, seed=4)
        a = reconstruct_state(recs, SETTINGS)
        b = reconstruct_state(recs, SETTINGS)
        assert np.array_equal(a.matrix, b.matrix)

    def test_accidentals_subtracted(self):
        # heavy uniform accidentals must not bias the reconstruction
        recs = exact_records(bell_state(), flux=4e6, accidental=5e4)
        rho = reconstruct_state(recs, SETTINGS)
        assert qstate.state_fidelity(rho, bell_state()) >= 0.999

    def test_likelihood_no_worse_than_truth(self):
        truth = bell_state()
        recs = poisson_records(truth, flux=1e5, seed=8)
        rho = reconstruct_state(recs, SETTINGS)
        projs = np.array([s.joint_projector() for s in SETTINGS])
        counts = np.array([float(r.net) for r in recs])

        def nll_of(matrix):
            mu = np.maximum(np.einsum("kij,ji->k", projs, matrix).real, 1e-300)
            return counts.sum() * math.log(mu.sum()) - float(counts @ np.log(mu))

        assert nll_of(rho.matrix) <= nll_of(truth.matrix) + 1e-6

    def test_consistency_error_shrinks_with_time(self):
        # expected reconstruction error falls as integration time grows 10x
        truth, _ = apply_idler_channel(bell_state(), phase_damping_channel(0.2))
        errors = {1.0: [], 10.0: []}
        for seed in range(100):
            for scale in errors:
                recs = poisson_records(truth, flux=2e4 * scale, seed=seed)
                rho = reconstruct_state(recs, SETTINGS, FAST)
                errors[scale].append(trace_distance(rho.matrix, truth.matrix))
        assert np.mean(errors[10.0]) < np.mean(errors[1.0])

    def test_all_zero_counts_rejected(self):
        recs = [CountRecord(i, 5, 5, 2.0) for i in range(16)]
        with pytest.raises(InsufficientDataError):
            reconstruct_state(recs, SETTINGS)

    def test_incomplete_settings_rejected(self):
        repeated = [SETTINGS[0]] * 16
        recs = [CountRecord(i, 100, 0, 2.0) for i in range(16)]
        with pytest.raises(IncompleteSettingsError):
            reconstruct_state(recs, repeated)

    def test_too_few_settings_rejected(self):
        recs = [CountRecord(i, 100, 0, 2.0) for i in range(8)]
        with pytest.raises(IncompleteSettingsError):
            reconstruct_state(recs, SETTINGS[:8])

    def test_tuple_and_list_settings_share_one_design(self):
        recs = poisson_records(bell_state(), flux=1e5, seed=12)
        from_tuple = reconstruct_state(recs, SETTINGS)
        misses = _design.cache_info().misses
        from_list = reconstruct_state(recs, list(SETTINGS))
        assert _design.cache_info().misses == misses
        assert np.array_equal(from_list.matrix, from_tuple.matrix)

    def test_unconverged_fit_raises(self):
        recs = poisson_records(bell_state(), flux=1e5, seed=4)
        with pytest.raises(MleConvergenceError, match="certificate"):
            reconstruct_state(recs, SETTINGS, MleConfig(max_iterations=1))

    def test_reconstructs_from_csv_interchange(self, tmp_path):
        from fiberloop.counting import read_dataset_csv, write_dataset_csv

        recs = poisson_records(bell_state(), flux=1e5, seed=21)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, recs, SETTINGS)
        recs2, settings2 = read_dataset_csv(path)
        direct = reconstruct_state(recs, SETTINGS, FAST)
        via_csv = reconstruct_state(recs2, settings2, FAST)
        assert np.array_equal(direct.matrix, via_csv.matrix)


REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "mle_reference.json").read_text()
)["datasets"]


def flux_profiled_nll(counts, rho):
    mu = np.einsum("kij,ji->k", joint_projectors(SETTINGS), rho).real
    seen = counts > 0
    return counts.sum() * math.log(mu.sum()) - float(counts[seen] @ np.log(mu[seen]))


def likelihood_gap(counts, rho):
    """Glancy-Knill-Girard bound on log L_max - log L(rho), in nats."""
    projs = joint_projectors(SETTINGS)
    mu = np.einsum("kij,ji->k", projs, rho).real
    seen = counts > 0
    r = np.tensordot(counts[seen] / mu[seen], projs[seen], axes=(0, 0))
    w, v = np.linalg.eigh(projs.sum(axis=0))
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    return mu.sum() * np.linalg.eigvalsh(s_inv_half @ r @ s_inv_half)[-1] - counts.sum()


class TestReferenceCorpus:
    """Fixed datasets (table1 rows, long-storage points, low-count Bell pairs)
    with the negative log-likelihood of the 9-start L-BFGS-B fit that the
    certified solve replaced; see data/make_mle_reference.py."""

    @pytest.mark.parametrize("entry", REFERENCE, ids=[e["label"] for e in REFERENCE])
    def test_certified_and_no_worse(self, entry):
        counts = np.array(entry["net_counts"], dtype=float)
        recs = [CountRecord(i, int(n), 0, 1.0) for i, n in enumerate(counts)]
        cfg = MleConfig()
        rho = reconstruct_state(recs, SETTINGS, cfg)
        assert isinstance(rho, TwoQubitState)
        m = rho.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-9
        assert flux_profiled_nll(counts, m) <= entry["nll"] + 1e-3
        assert likelihood_gap(counts, m) <= cfg.convergence_tol

    def test_certificates_share_one_mode(self):
        """Every fit ends just re-centered, where its certificate is
        mu (4 - 1 / lambda_max); fits that stopped part-way through
        re-centering sat in a second mode twice as high."""
        gaps = []
        for entry in REFERENCE:
            counts = np.array(entry["net_counts"], dtype=float)
            recs = [CountRecord(i, int(n), 0, 1.0) for i, n in enumerate(counts)]
            gaps.append(likelihood_gap(counts, reconstruct_state(recs, SETTINGS).matrix))
        assert max(gaps) <= 1.1 * min(gaps)

    def test_certificate_matches_the_standard_basis(self):
        """lambda_max(-G) - N read off the eigen-coordinates equals the
        standard-basis value: to 1e-9 relative at the warm start, where the
        bound is large, and within the solver's rounding floor 64 N eps at the
        certified fit, where it is a difference of two numbers of size N."""
        design = _design(SETTINGS)
        for entry in REFERENCE:
            counts = np.array(entry["net_counts"], dtype=float)
            n_total = counts.sum()
            floor = 64 * np.finfo(float).eps * n_total
            warm = _warm_start(design, counts)[0]
            fit = _solve(design, counts, MleConfig())
            for sigma, rel, abs_ in ((warm, 1e-9, 0.0), (fit, 0.0, floor)):
                lam, v = np.linalg.eigh(sigma)
                *_, r = _eigen_coords(design, counts, lam, v)
                _, grad = standard_basis_terms(sigma, design, counts)
                expected = np.linalg.eigvalsh(-grad)[-1] - n_total
                got = _certificate(r, n_total)
                assert got == pytest.approx(expected, rel=rel, abs=abs_), entry["label"]

    def test_one_eigendecomposition_per_iterate(self, monkeypatch):
        """The line search's positivity check is the next iterate's
        eigenbasis: eigh runs once per trial point (Newton steps, counted by
        their linear solves, plus halvings) and once for the warm start."""
        _design(tuple(SETTINGS))  # cached before counting
        eigh, solve = np.linalg.eigh, np.linalg.solve
        calls = {}

        def counting_eigh(a, *args, **kwargs):
            out = eigh(a, *args, **kwargs)
            calls["eigh"] += 1
            # after the first step, a non-positive trial point halves the step
            calls["halvings"] += bool(calls["solve"] and out[0][0] <= 0.0)
            return out

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        for entry in REFERENCE:
            calls.update(eigh=0, solve=0, halvings=0)
            recs = [CountRecord(i, int(n), 0, 1.0) for i, n in enumerate(entry["net_counts"])]
            reconstruct_state(recs, SETTINGS)
            assert calls["solve"] > 0
            assert calls["eigh"] <= calls["solve"] + calls["halvings"] + 1, (entry["label"], calls)

    def test_newton_step_budget(self, newton_steps):
        """A tangent predictor per barrier stage and a start weight scaled to
        the counts keep the corpus at about 24 Newton steps per fit; the
        plain tenfold schedule from mu = 1 took 41 on average and up to 54."""
        steps = []
        for entry in REFERENCE:
            recs = [CountRecord(i, int(n), 0, 1.0) for i, n in enumerate(entry["net_counts"])]
            newton_steps.clear()
            reconstruct_state(recs, SETTINGS)
            steps.append(len(newton_steps))
        assert np.mean(steps) <= 26
        assert max(steps) <= 45

    def test_corpus_covers_the_regimes(self):
        labels = [e["label"] for e in REFERENCE]
        assert len(labels) >= 100
        assert sum(label.startswith("table1-") for label in labels) == 70
        assert sum(label.startswith("long-storage-") for label in labels) == 34
        assert sum(label.startswith("bell-500pps-") for label in labels) == 5
        assert any(0 in e["net_counts"] for e in REFERENCE)


@pytest.fixture
def newton_steps(monkeypatch):
    """A list that gains one entry per Newton step: each step is one solve."""
    solve, calls = np.linalg.solve, []

    def counting_solve(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("counts_scale", [1e6, 1e7])
def test_high_counts_certify_within_the_step_budget(tmp_path, newton_steps, counts_scale):
    """At 1e11-1e12 net counts a barrier started at mu = 1 spent its 500 steps
    damped before the first centering; started at a weight scaled to the
    counts, the fit certifies in a few dozen."""
    from fiberloop import harness
    from fiberloop.counting import read_dataset_csv

    scenario = next(s for s in harness.table1_scenarios(seed=0) if s.name == "N3-L3.0km")
    harness.run_scenario(scenario, counts_scale=counts_scale, out_dir=tmp_path)
    assert 0 < len(newton_steps) <= 45
    (path,) = tmp_path.rglob("dataset.csv")
    recs, _ = read_dataset_csv(path)
    counts = np.array([float(r.net) for r in recs])
    assert counts.sum() > 1e11
    rho = reconstruct_state(recs, SETTINGS)
    assert likelihood_gap(counts, rho.matrix) <= 64 * np.finfo(float).eps * counts.sum()


def test_large_counts_certify_to_the_rounding_floor(tmp_path):
    """At 1e5 times the table counts (2e10 net counts) the certificate's own
    rounding, a few N eps, is above the 1e-6-nat tolerance; the fit certifies
    to 64 N eps instead of raising MleConvergenceError."""
    from fiberloop import harness
    from fiberloop.counting import read_dataset_csv

    scenario = harness.table1_scenarios(seed=2)[0]
    assert scenario.name == "N1-L5.4km"
    harness.run_scenario(scenario, counts_scale=1e5, out_dir=tmp_path)
    (path,) = tmp_path.rglob("dataset.csv")
    recs, settings = read_dataset_csv(path)
    counts = np.array([float(r.net) for r in recs])
    assert counts.sum() > 1e10
    rho = reconstruct_state(recs, settings)
    assert likelihood_gap(counts, rho.matrix) <= 64 * np.finfo(float).eps * counts.sum()


class TestReconstructChi:
    def test_untouched_pair_gives_identity(self):
        chi = reconstruct_chi(bell_state())
        np.testing.assert_allclose(chi.matrix, np.diag([1, 0, 0, 0]), atol=1e-12)

    def test_bit_flip_quarter(self):
        state, _ = apply_idler_channel(bell_state(), bit_flip_channel(0.25))
        chi = reconstruct_chi(state)
        np.testing.assert_allclose(
            chi.matrix, np.diag([0.75, 0.25, 0, 0]), atol=1e-12
        )

    def test_phase_damping(self):
        state, _ = apply_idler_channel(bell_state(), phase_damping_channel(0.1))
        chi = reconstruct_chi(state)
        p = (1 - math.sqrt(0.9)) / 2
        assert chi.matrix[0, 0].real == pytest.approx(1 - p, abs=1e-12)
        assert chi.matrix[3, 3].real == pytest.approx(p, abs=1e-12)

    def test_matches_channel_to_chi_through_data(self):
        # channel -> joint state -> noiseless counts -> MLE -> chi
        channel = phase_damping_channel(0.1)
        state, _ = apply_idler_channel(bell_state(), channel)
        rho = reconstruct_state(exact_records(state, flux=4e7), SETTINGS)
        chi = reconstruct_chi(rho)
        np.testing.assert_allclose(
            chi.matrix, channel_to_chi(channel).matrix, atol=1e-3
        )

    def test_chi_psd_at_high_counts(self):
        state, _ = apply_idler_channel(bell_state(), bit_flip_channel(0.1))
        rho = reconstruct_state(exact_records(state, flux=4e7), SETTINGS)
        chi = reconstruct_chi(rho)
        assert np.linalg.eigvalsh(chi.matrix).min() >= -1e-6


class TestReportMetrics:
    def test_ideal_pair(self):
        metrics = report_metrics(bell_state(), reconstruct_chi(bell_state()))
        assert metrics.state_fidelity == pytest.approx(1.0, abs=1e-12)
        assert metrics.process_fidelity == pytest.approx(1.0, abs=1e-12)
        assert metrics.purity == pytest.approx(1.0, abs=1e-12)

    def test_json_keys(self):
        metrics = report_metrics(bell_state(), reconstruct_chi(bell_state()))
        payload = metrics.to_json()
        assert set(payload) == {"F", "F_chi", "purity", "chi_diag"}
        assert len(payload["chi_diag"]) == 4


class TestMleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MleConfig(max_iterations=0)
        with pytest.raises(ValueError):
            MleConfig(convergence_tol=0.0)
