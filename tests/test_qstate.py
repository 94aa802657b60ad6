import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_channel, random_state
from fiberloop import qstate
from fiberloop.qstate import (
    ChiMatrix,
    DegenerateChannelError,
    QubitChannel,
    StateContractError,
    TwoQubitState,
    PAULIS,
    apply_chi,
    amplitude_damping_channel,
    apply_idler_channel,
    bell_state,
    bit_flip_channel,
    bit_phase_flip_channel,
    channel_to_chi,
    compose_channels,
    concurrence,
    identity_channel,
    identity_chi,
    loss_channel,
    matrix_from_json,
    matrix_to_json,
    phase_damping_channel,
    phase_flip_channel,
    process_fidelity,
    state_fidelity,
)

# Operator basis for dual-route channel checks (spans all 2x2 operators).
BASIS_STATES = [
    np.array([[1, 0], [0, 0]], complex),
    np.array([[0, 0], [0, 1]], complex),
    0.5 * np.array([[1, 1], [1, 1]], complex),
    0.5 * np.array([[1, -1j], [1j, 1]], complex),
]


def kraus_apply(channel: QubitChannel, op: np.ndarray) -> np.ndarray:
    return sum(k @ op @ k.conj().T for k in channel.kraus_ops)


def product_compose(*channels: QubitChannel) -> list[np.ndarray]:
    """Reference composition: every product K_n ... K_1, one operator per part."""
    ops = list(channels[0].kraus_ops)
    for ch in channels[1:]:
        ops = [k2 @ k1 for k2 in ch.kraus_ops for k1 in ops]
    return ops


def superoperator(ops) -> np.ndarray:
    """Row-major vec convention: vec(K rho K^dag) = (K kron conj(K)) vec(rho)."""
    return sum(np.kron(k, k.conj()) for k in ops)


def kron_apply(state: TwoQubitState, ops) -> tuple[np.ndarray, float]:
    """Reference idler action: one (I kron K) sandwich per Kraus operator."""
    out = np.zeros((4, 4), complex)
    for k in ops:
        big = np.kron(np.eye(2), k)
        out += big @ state.matrix @ big.conj().T
    survival = float(np.trace(out).real)
    return out / survival, survival


_PRIMITIVES = st.one_of(
    st.builds(bit_flip_channel, st.floats(0.0, 1.0)),
    st.builds(phase_flip_channel, st.floats(0.0, 1.0)),
    st.builds(bit_phase_flip_channel, st.floats(0.0, 1.0)),
    st.builds(amplitude_damping_channel, st.floats(0.0, 1.0)),
    st.builds(phase_damping_channel, st.floats(0.0, 1.0)),
    # eight parts at 1e-6 each still leave 1e-48, far above underflow
    st.builds(loss_channel, st.floats(1e-6, 1.0)),
)


class TestBellState:
    def test_matrix_entries(self):
        rho = bell_state().matrix
        expected = np.zeros((4, 4), complex)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_unit_trace(self):
        assert abs(np.trace(bell_state().matrix) - 1.0) <= 1e-12

    def test_concurrence_is_one(self):
        # independent oracle: Wootters formula via a direct eigenvalue routine
        rho = bell_state().matrix
        sy = np.array([[0, -1j], [1j, 0]])
        yy = np.kron(sy, sy)
        lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real)))
        oracle = max(0.0, lam[3] - lam[2] - lam[1] - lam[0])
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert concurrence(bell_state()) == pytest.approx(oracle, abs=1e-9)

    def test_rank_one_purity(self):
        assert bell_state().purity == pytest.approx(1.0, abs=1e-12)


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.diag([1.0, 0, 0, 0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(StateContractError):
            TwoQubitState(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(StateContractError):
            TwoQubitState(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateContractError):
            TwoQubitState(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))

    def test_matrix_is_immutable(self):
        rho = bell_state()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestApplyIdlerChannel:
    def test_identity_channel(self):
        rho = bell_state()
        out, survival = apply_idler_channel(rho, identity_channel())
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)
        assert survival == pytest.approx(1.0, abs=1e-14)

    def test_full_bit_flip_gives_psi_plus(self):
        # hand-applied X on the idler: (|HV> + |VH>)/sqrt(2)
        psi_plus = np.zeros(4, complex)
        psi_plus[1] = psi_plus[2] = 1 / math.sqrt(2)
        expected = np.outer(psi_plus, psi_plus.conj())
        out, survival = apply_idler_channel(bell_state(), bit_flip_channel(1.0))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)
        assert survival == pytest.approx(1.0, abs=1e-14)

    def test_pure_loss_scalar_kraus(self):
        out, survival = apply_idler_channel(bell_state(), loss_channel(0.5))
        np.testing.assert_allclose(out.matrix, bell_state().matrix, atol=1e-14)
        assert survival == pytest.approx(0.5, abs=1e-14)

    def test_degenerate_channel_raises(self):
        dead = QubitChannel((np.zeros((2, 2), complex),))
        with pytest.raises(DegenerateChannelError):
            apply_idler_channel(bell_state(), dead)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_output_stays_physical(self, s1, s2):
        out, survival = apply_idler_channel(random_state(s1), random_channel(s2))
        m = out.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-9
        assert 0.0 < survival <= 1.0 + 1e-12


class TestChannelToChi:
    def test_identity(self):
        chi = channel_to_chi(identity_channel())
        np.testing.assert_allclose(chi.matrix, np.diag([1, 0, 0, 0]), atol=1e-14)
        assert chi.weight == pytest.approx(1.0)

    def test_bit_flip(self):
        # Pauli expansion of K0 = sqrt(3/4) I, K1 = sqrt(1/4) s1
        chi = channel_to_chi(bit_flip_channel(0.25))
        np.testing.assert_allclose(chi.matrix, np.diag([0.75, 0.25, 0, 0]), atol=1e-14)

    def test_phase_flip(self):
        chi = channel_to_chi(phase_flip_channel(0.5))
        np.testing.assert_allclose(chi.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_phase_damping_diagonal(self):
        p = (1 - math.sqrt(0.9)) / 2
        chi = channel_to_chi(phase_damping_channel(0.1))
        np.testing.assert_allclose(chi.matrix, np.diag([1 - p, 0, 0, p]), atol=1e-12)

    def test_loss_weight_is_survival(self):
        chi = channel_to_chi(loss_channel(0.5))
        np.testing.assert_allclose(chi.matrix, np.diag([1, 0, 0, 0]), atol=1e-14)
        assert chi.weight == pytest.approx(0.5, abs=1e-14)

    def test_degenerate_channel(self):
        dead = QubitChannel((np.zeros((2, 2), complex),))
        with pytest.raises(DegenerateChannelError):
            channel_to_chi(dead)

    def test_chi_action_matches_kraus_on_paulis(self):
        for ch in [
            bit_flip_channel(0.3),
            phase_damping_channel(0.2),
            bit_phase_flip_channel(0.15),
            loss_channel(0.7),
        ]:
            chi = channel_to_chi(ch)
            for p in PAULIS:
                np.testing.assert_allclose(
                    apply_chi(chi, p), kraus_apply(ch, p), atol=1e-10
                )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_chi_action_matches_kraus_random(self, seed):
        ch = random_channel(seed, survival=0.8)
        chi = channel_to_chi(ch)
        for op in BASIS_STATES:
            np.testing.assert_allclose(apply_chi(chi, op), kraus_apply(ch, op), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_composition_consistency(self, s1, s2):
        ch1, ch2 = random_channel(s1), random_channel(s2, n_kraus=2)
        composed = compose_channels(ch1, ch2)
        chi = channel_to_chi(composed)
        for op in BASIS_STATES:
            expected = kraus_apply(ch2, kraus_apply(ch1, op))
            np.testing.assert_allclose(apply_chi(chi, op), expected, atol=1e-10)


class TestChannelAlgebra:
    """The superoperator composition against the Kraus-product reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_PRIMITIVES, min_size=2, max_size=8), st.integers(0, 2**31 - 1))
    def test_matches_kraus_products(self, chain, seed):
        composed = compose_channels(*chain)
        reference = product_compose(*chain)
        np.testing.assert_allclose(
            superoperator(composed.kraus_ops), superoperator(reference), rtol=0, atol=1e-14
        )
        assert len(composed.kraus_ops) <= 4
        total = sum(k.conj().T @ k for k in composed.kraus_ops)
        assert np.linalg.eigvalsh(total).max() <= 1.0 + 1e-12
        rho = random_state(seed)
        out, survival = apply_idler_channel(rho, composed)
        ref_out, ref_survival = kron_apply(rho, reference)
        np.testing.assert_allclose(out.matrix, ref_out, rtol=0, atol=1e-14)
        assert survival == pytest.approx(ref_survival, rel=0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(1, 4))
    def test_apply_matches_kron_loop(self, s1, s2, n_kraus):
        rho, ch = random_state(s1), random_channel(s2, n_kraus=n_kraus, survival=0.6)
        out, survival = apply_idler_channel(rho, ch)
        ref_out, ref_survival = kron_apply(rho, ch.kraus_ops)
        np.testing.assert_allclose(out.matrix, ref_out, rtol=0, atol=1e-14)
        assert survival == pytest.approx(ref_survival, rel=0, abs=1e-14)

    def test_single_channel_returned_unchanged(self):
        ch = phase_damping_channel(0.1)
        assert compose_channels(ch) is ch

    def test_many_parts_give_at_most_four_operators(self):
        parts = [bit_flip_channel(0.1), phase_flip_channel(0.2), amplitude_damping_channel(0.3)]
        assert len(product_compose(*parts * 2)) == 64
        assert len(compose_channels(*parts * 2).kraus_ops) <= 4

    def test_dead_channel_keeps_one_zero_operator(self):
        dead = QubitChannel((np.zeros((2, 2), complex),))
        composed = compose_channels(dead, bit_flip_channel(0.5))
        assert len(composed.kraus_ops) == 1
        assert np.abs(composed.kraus_ops[0]).max() <= 1e-15
        with pytest.raises(DegenerateChannelError):
            apply_idler_channel(bell_state(), composed)


class TestFidelities:
    def test_self_fidelity(self):
        assert state_fidelity(bell_state(), bell_state()) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        mixed = TwoQubitState(np.eye(4, dtype=complex) / 4)
        assert state_fidelity(mixed, bell_state()) == pytest.approx(0.25)

    def test_product_state_overlap(self):
        hh = np.zeros((4, 4), complex)
        hh[0, 0] = 1.0
        assert state_fidelity(TwoQubitState(hh), bell_state()) == pytest.approx(0.5)

    def test_rejects_mixed_target(self):
        mixed = TwoQubitState(np.eye(4, dtype=complex) / 4)
        with pytest.raises(StateContractError):
            state_fidelity(bell_state(), mixed)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 1.0),
    )
    def test_linearity_in_rho(self, s1, s2, alpha):
        r1, r2 = random_state(s1), random_state(s2)
        mix = TwoQubitState(alpha * r1.matrix + (1 - alpha) * r2.matrix)
        target = bell_state()
        lhs = state_fidelity(mix, target)
        rhs = alpha * state_fidelity(r1, target) + (1 - alpha) * state_fidelity(r2, target)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_process_fidelity_identity(self):
        assert process_fidelity(identity_chi(), identity_chi()) == pytest.approx(1.0)

    def test_process_fidelity_bit_flip(self):
        chi = channel_to_chi(bit_flip_channel(0.25))
        assert process_fidelity(chi, identity_chi()) == pytest.approx(0.75)

    def test_process_fidelity_depolarizing(self):
        # Pauli twirl: equal-weight Kraus {I, X, Y, Z}/2 gives chi = I/4
        ops = tuple(0.5 * p for p in PAULIS)
        chi = channel_to_chi(QubitChannel(ops))
        np.testing.assert_allclose(chi.matrix, np.eye(4) / 4, atol=1e-14)
        assert process_fidelity(chi, identity_chi()) == pytest.approx(0.25)


class TestChannelValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QubitChannel(())

    def test_rejects_trace_increasing(self):
        with pytest.raises(ValueError):
            QubitChannel((1.5 * np.eye(2, dtype=complex),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="kraus_ops must be finite"):
            QubitChannel((np.full((2, 2), bad, dtype=complex),))

    def test_kraus_ops_are_frozen_copies(self):
        k = np.eye(2, dtype=complex)
        ch = QubitChannel((k,))
        k[0, 0] = 2.0
        assert ch.kraus_ops[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 2.0

    def test_trace_preserving_flag(self):
        assert bit_flip_channel(0.3).is_trace_preserving
        assert not loss_channel(0.5).is_trace_preserving

    def test_probability_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                bit_flip_channel(bad)
        with pytest.raises(ValueError):
            loss_channel(0.0)


class TestChiValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(StateContractError):
            ChiMatrix(np.diag([2.0, 0, 0, 0]).astype(complex))

    def test_rejects_negative(self):
        with pytest.raises(StateContractError):
            ChiMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))


class TestSerialization:
    def test_roundtrip(self):
        m = bell_state().matrix
        again = matrix_from_json(matrix_to_json(m))
        np.testing.assert_allclose(again, m, atol=0)

    def test_row_major_pairs(self):
        payload = matrix_to_json(np.array([[1 + 2j, 3], [0, -1j]]))
        assert payload["shape"] == [2, 2]
        assert payload["elements"] == [[1.0, 2.0], [3.0, 0.0], [0.0, 0.0], [0.0, -1.0]]


class TestSuperoperatorForm:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PRIMITIVES, min_size=2, max_size=8))
    def test_lazy_kraus_set_reproduces_the_superoperator(self, chain):
        composed = compose_channels(*chain)
        channel_to_chi(composed)
        assert "kraus_ops" not in vars(composed)  # composing and chi leave it underived
        ops = composed.kraus_ops
        assert len(ops) <= 4
        np.testing.assert_allclose(superoperator(ops), composed.superop, rtol=0, atol=1e-14)
        assert composed.kraus_ops is ops

    def test_superoperator_of_kraus_channel(self):
        ch = random_channel(7, n_kraus=4, survival=0.6)
        np.testing.assert_allclose(
            ch.superop, superoperator(ch.kraus_ops), rtol=0, atol=1e-15
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.floats(0.05, 1.0))
    def test_chi_matches_pauli_coefficients(self, seed, n_kraus, survival):
        ch = random_channel(seed, n_kraus=n_kraus, survival=survival)
        a = np.array([[np.trace(p @ k) / 2.0 for p in PAULIS] for k in ch.kraus_ops])
        chi_raw = a.T @ a.conj()
        chi = channel_to_chi(ch)
        assert chi.weight == pytest.approx(np.trace(chi_raw).real, rel=0, abs=1e-14)
        np.testing.assert_allclose(chi.weight * chi.matrix, chi_raw, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("built", ["kraus", "composed"])
    def test_channel_is_immutable(self, built):
        ch = bit_flip_channel(0.1)
        if built == "composed":
            ch = compose_channels(ch, loss_channel(0.5))
        for name in ("superop", "kraus_ops", "extra"):
            with pytest.raises(AttributeError):
                setattr(ch, name, None)
        with pytest.raises(AttributeError):
            del ch.superop
        with pytest.raises(ValueError):
            ch.superop[0, 0] = 2.0
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 2.0
        with pytest.raises(AttributeError):
            ch.kraus_ops = ()  # also once the Kraus set is derived


CLOSED_FORMS = [
    bit_flip_channel,
    phase_flip_channel,
    bit_phase_flip_channel,
    amplitude_damping_channel,
    phase_damping_channel,
]
# One ulp at 1.0: the entries of a CP, trace non-increasing superoperator lie in
# [-1, 1], and near 0 (1 - 2p at p = 1/2, say) the Kraus route's cancellation
# leaves an absolute error at this scale, not one relative to the entry.
ULP = np.spacing(1.0)


@pytest.mark.parametrize("make", CLOSED_FORMS, ids=lambda make: make.__name__)
class TestClosedFormChannels:
    """Each noise channel writes its superoperator in closed form from its
    probability; the checked Kraus constructor is the reference."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0))
    @example(p=0.0)
    @example(p=1.0)
    @example(p=0.5)
    def test_superop_matches_the_checked_kraus_route(self, make, p):
        channel = make(p)
        checked = QubitChannel(channel.kraus_ops)
        np.testing.assert_allclose(channel.superop, checked.superop, rtol=0, atol=ULP)
        assert channel.is_trace_preserving

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0))
    @example(p=0.0)
    @example(p=1.0)
    def test_kraus_set_reproduces_the_superop(self, make, p):
        channel = make(p)
        ops = channel.kraus_ops
        assert 1 <= len(ops) <= 2 and all(not k.flags.writeable for k in ops)
        np.testing.assert_allclose(superoperator(ops), channel.superop, rtol=0, atol=ULP)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(allow_nan=True).filter(lambda p: not 0.0 <= p <= 1.0))
    @example(p=math.nextafter(1.0, 2.0))
    @example(p=-5e-324)
    @example(p=math.nan)
    @example(p=math.inf)
    def test_out_of_range_probability_raises(self, make, p):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            make(p)


class TestTextbookKrausPairs:
    def test_phase_damping(self):
        k0, k1 = phase_damping_channel(0.1).kraus_ops
        assert np.array_equal(k0, np.diag([1.0, math.sqrt(0.9)]))
        assert np.array_equal(k1, np.diag([0.0, math.sqrt(0.1)]))
        (k0,) = phase_damping_channel(0.0).kraus_ops
        assert np.array_equal(k0, np.eye(2))

    def test_amplitude_damping(self):
        k0, k1 = amplitude_damping_channel(0.3).kraus_ops
        assert np.array_equal(k0, np.diag([1.0, math.sqrt(0.7)]))
        assert np.array_equal(k1, np.array([[0.0, math.sqrt(0.3)], [0.0, 0.0]]))

    def test_flips_drop_a_zero_weight_operator(self):
        (k,) = bit_flip_channel(1.0).kraus_ops
        assert np.array_equal(k, PAULIS[1])
        (k,) = phase_flip_channel(0.0).kraus_ops
        assert np.array_equal(k, np.eye(2))


class TestContraction:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(1, 4),
           st.sampled_from([1.0, 0.6, 0.1]))
    def test_matmul_matches_the_einsum_contraction(self, s1, s2, n_kraus, survival):
        """The old einsum sums each i's two j terms, then the two partials; the
        matmul sums all four (with fused multiply-adds under BLAS), so the two
        agree to a few ulps of the unit-trace output, not bit for bit."""
        rho, ch = random_state(s1), random_channel(s2, n_kraus=n_kraus, survival=survival)
        sup, r = ch.superop.reshape(2, 2, 2, 2), rho.matrix.reshape(2, 2, 2, 2)
        ref = np.einsum("abij,sitj->satb", sup, r).reshape(4, 4)
        ref_survival = float(np.trace(ref).real)
        out, got_survival = apply_idler_channel(rho, ch)
        eps = np.finfo(float).eps
        assert got_survival == pytest.approx(ref_survival, rel=0, abs=4 * eps)
        np.testing.assert_allclose(out.matrix, ref / ref_survival, rtol=0, atol=4 * eps)


class TestValidatedOnce:
    def test_mixed_target_rejected_on_every_call(self):
        mixed = TwoQubitState(np.eye(4, dtype=complex) / 4)
        for _ in range(2):  # the cached purity still rejects it
            with pytest.raises(StateContractError, match="fidelity target must be pure"):
                state_fidelity(bell_state(), mixed)
        assert "purity" in vars(mixed)

    def test_purity_computed_once(self):
        rho = random_state(3)
        assert "purity" not in vars(rho)
        assert rho.purity == pytest.approx(float(np.trace(rho.matrix @ rho.matrix).real))
        assert rho.purity is rho.purity

    def test_state_messages(self):
        m = np.diag([1.0, 0, 0, 0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(StateContractError, match="^density matrix is not Hermitian$"):
            TwoQubitState(m)
        real = np.diag([0.5, 0.5, 0.5, 0.0]).astype(complex)
        with pytest.raises(StateContractError, match=r"^density matrix trace \(1\.5\+0j\) != 1$"):
            TwoQubitState(real)
        # within the Hermiticity tolerance, yet a trace with imaginary part 2e-12
        imag = np.diag([1.0 + 5e-13j, 5e-13j, 5e-13j, 5e-13j])
        with pytest.raises(StateContractError, match=r"^density matrix trace \(1\+2e-12j\) != 1$"):
            TwoQubitState(imag)
        with pytest.raises(StateContractError,
                           match="^density matrix is not positive semidefinite$"):
            TwoQubitState(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))
