"""Two-qubit polarization states, single-qubit Kraus channels, and process
(chi) matrices in the (I, s1, s2, s3) operator basis.

Conventions
-----------
Two-qubit vectors are ordered (HH, HV, VH, VV), signal qubit first, buffered
idler second.  Chi matrices use the operator basis (identity, sigma_x,
sigma_y, sigma_z), so chi[0, 0] is the identity-process weight.  Channels
acting on the idler are built from 2x2 Kraus operators and may be trace
non-increasing (pure loss); trace-decreasing channels carry their throughput
as a separate survival probability wherever states are renormalized.
Channels work as 4x4 superoperators, which compose as products and apply as
one contraction, so a channel costs the same however many parts it has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_EIG_FLOOR",
    "PAULIS",
    "DegenerateChannelError",
    "StateContractError",
    "TwoQubitState",
    "QubitChannel",
    "ChiMatrix",
    "bell_state",
    "bell_ket",
    "apply_idler_channel",
    "channel_to_chi",
    "apply_chi",
    "identity_chi",
    "state_fidelity",
    "process_fidelity",
    "concurrence",
    "identity_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "bit_phase_flip_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "loss_channel",
    "compose_channels",
    "matrix_to_json",
    "matrix_from_json",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_FLOOR = -1e-9

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS: tuple[np.ndarray, ...] = (_I2, _SX, _SY, _SZ)
for _p in PAULIS:
    _p.flags.writeable = False
_PAULI_VECS = np.array([p.ravel() for p in PAULIS]).T  # column m is vec(s_m)


class DegenerateChannelError(ValueError):
    """Channel annihilates every input (all-zero Kraus operators)."""


class StateContractError(ValueError):
    """A density or process matrix violates its declared invariants."""


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix in the (HH, HV, VH, VV) basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise StateContractError(f"expected a 4x4 matrix, got {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise StateContractError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise StateContractError(f"density matrix trace {np.trace(m)} != 1")
        if np.linalg.eigvalsh(m).min() < PSD_EIG_FLOOR:
            raise StateContractError("density matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def _choi(superop: np.ndarray) -> np.ndarray:  # sum_k vec(K_k) vec(K_k)^dag
    return superop.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


@dataclass(frozen=True, eq=False, init=False)
class QubitChannel:
    """CP, trace non-increasing map held as its superoperator ``superop`` =
    sum_k K_k (x) conj(K_k), which maps the row-major vec(rho) to vec(rho').
    A composed channel derives its ``kraus_ops`` (at most 4) when first read."""

    superop: np.ndarray

    def __init__(self, kraus_ops: tuple[np.ndarray, ...]) -> None:
        ops = np.array(kraus_ops, dtype=complex)  # one stacked copy, frozen below
        if len(ops) == 0:
            raise ValueError("channel needs at least one Kraus operator")
        if ops.shape[1:] != (2, 2):
            raise ValueError(f"Kraus operators must be 2x2, got {ops.shape[1:]}")
        if not np.isfinite(ops).all():
            raise ValueError("kraus_ops must be finite")
        vec = ops.reshape(-1, 4)
        choi = (vec.T @ vec.conj()).reshape(2, 2, 2, 2)  # sum_k K[i, j] conj(K[a, b])
        # largest eigenvalue of the 2x2 Hermitian sum conj(K^dag K), in closed form
        (a, b), (_, d) = (choi[0, :, 0] + choi[1, :, 1]).tolist()
        if (a.real + d.real) / 2 + math.hypot((a.real - d.real) / 2, abs(b)) > 1.0 + 1e-12:
            raise ValueError("channel is trace increasing: sum K^dag K > I")
        ops.flags.writeable = False  # its per-operator views stay read-only too
        object.__setattr__(self, "kraus_ops", tuple(ops))  # fills the cached property
        object.__setattr__(self, "superop", _frozen(_choi(choi)))  # reshuffled back to S

    @functools.cached_property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        """Canonical Kraus set sqrt(w) * unvec(v) over the Choi matrix's eigenpairs."""
        w, v = np.linalg.eigh(_choi(self.superop))
        keep = (w > 0) | (np.arange(4) == 3)  # the largest stays: a dead channel keeps one
        ops = np.sqrt(np.maximum(w[keep], 0.0)) * v[:, keep]
        return tuple(_frozen(ops.T.reshape(-1, 2, 2)))  # read-only, as built channels' are

    @property
    def is_trace_preserving(self) -> bool:
        sup = self.superop.reshape(2, 2, 2, 2)  # sum_i S[(i, i), (j, b)] = (sum K^dag K)[b, j]
        return bool(np.abs(sup[0, 0] + sup[1, 1] - _I2).max() <= 1e-12)


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the (I, s1, s2, s3) basis, normalized to unit trace.

    ``weight`` is the overall throughput factored out during normalization
    (1.0 for trace-preserving channels, the survival probability for pure
    loss).  The raw process action is ``weight * sum chi[m,n] s_m rho s_n``.
    """

    matrix: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise StateContractError(f"expected a 4x4 chi matrix, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise StateContractError("chi matrix is not Hermitian")
        if np.linalg.eigvalsh(m).min() < PSD_EIG_FLOOR:
            raise StateContractError("chi matrix is not positive semidefinite")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise StateContractError("chi matrix must be normalized to unit trace")
        if not self.weight > 0:
            raise StateContractError("chi weight must be positive")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()


def bell_ket() -> np.ndarray:
    """|psi> = (|HH> + |VV>)/sqrt(2), the prepared pair state."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


@functools.cache  # immutable, so built once and shared
def bell_state() -> TwoQubitState:
    v = bell_ket()
    return TwoQubitState(np.outer(v, v.conj()))


def state_fidelity(rho: TwoQubitState, target: TwoQubitState) -> float:
    """Overlap fidelity <psi|rho|psi> against a pure target state."""
    if target.purity < 1.0 - 1e-9:
        raise StateContractError(
            f"fidelity target must be pure (purity {target.purity:.3e})"
        )
    f = float(np.trace(rho.matrix @ target.matrix).real)
    return min(max(f, 0.0), 1.0)


def concurrence(rho: TwoQubitState) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    yy = np.kron(_SY, _SY)
    r = rho.matrix @ yy @ rho.matrix.conj() @ yy
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(r).real)))
    return max(0.0, float(lam[3] - lam[2] - lam[1] - lam[0]))


def apply_idler_channel(
    state: TwoQubitState, channel: QubitChannel
) -> tuple[TwoQubitState, float]:
    """Apply a single-qubit channel to the idler: rho' ~ sum (I x K) rho (I x K)^dag.

    Returns the renormalized output state and the survival probability
    Tr(rho') of the raw map (1.0 for trace-preserving channels).
    """
    sup = channel.superop.reshape(2, 2, 2, 2)  # [idler, idler', in, in'], one contraction
    rho = state.matrix.reshape(2, 2, 2, 2)  # [signal, idler, signal', idler']
    out = np.einsum("abij,sitj->satb", sup, rho).reshape(4, 4)
    survival = float(np.trace(out).real)
    if survival <= 1e-300:
        raise DegenerateChannelError("channel annihilates the input state")
    return TwoQubitState(out / survival), survival


def channel_to_chi(channel: QubitChannel) -> ChiMatrix:
    """Chi matrix of a channel, normalized to unit trace.

    With K_k = sum_m a_km s_m the raw chi is chi_mn = sum_k a_km conj(a_kn) =
    (B^dag C B)_mn / 4, for the Choi matrix C and the vectorized Paulis as B's
    columns; its trace (1 for trace-preserving maps, the throughput otherwise) is
    factored out into ``weight``.
    """
    chi_raw = _PAULI_VECS.conj().T @ _choi(channel.superop) @ _PAULI_VECS / 4.0
    weight = float(np.trace(chi_raw).real)
    if weight <= 1e-300:
        raise DegenerateChannelError("channel has all-zero Kraus operators")
    return ChiMatrix(chi_raw / weight, weight=weight)


def apply_chi(chi: ChiMatrix, operator: np.ndarray) -> np.ndarray:
    """Raw process action weight * sum chi[m,n] s_m A s_n on a 2x2 operator."""
    a = np.asarray(operator, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            c = chi.matrix[m, n]
            if c != 0:
                out += c * (PAULIS[m] @ a @ PAULIS[n])
    return chi.weight * out


@functools.cache
def identity_chi() -> ChiMatrix:
    return ChiMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def process_fidelity(chi: ChiMatrix, ideal: ChiMatrix) -> float:
    """F = Tr(chi_ideal chi) for unit-trace chi matrices."""
    f = float(np.trace(ideal.matrix @ chi.matrix).real)
    return min(max(f, 0.0), 1.0)


def identity_channel() -> QubitChannel:
    return QubitChannel((_I2,))


def _flip_channel(p: float, pauli: np.ndarray) -> QubitChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability {p} outside [0, 1]")
    ops = []
    if p < 1.0:
        ops.append(math.sqrt(1.0 - p) * _I2)
    if p > 0.0:
        ops.append(math.sqrt(p) * pauli)
    return QubitChannel(tuple(ops))


def bit_flip_channel(p: float) -> QubitChannel:
    return _flip_channel(p, _SX)


def bit_phase_flip_channel(p: float) -> QubitChannel:
    return _flip_channel(p, _SY)


def phase_flip_channel(p: float) -> QubitChannel:
    return _flip_channel(p, _SZ)


def amplitude_damping_channel(gamma: float) -> QubitChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping probability {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QubitChannel((k0, k1) if gamma > 0 else (k0,))


def phase_damping_channel(lam: float) -> QubitChannel:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"damping parameter {lam} outside [0, 1]")
    k0 = np.diag([1.0, math.sqrt(1.0 - lam)]).astype(complex)
    if lam == 0:
        return QubitChannel((k0,))
    k1 = np.diag([0.0, math.sqrt(lam)]).astype(complex)
    return QubitChannel((k0, k1))


def loss_channel(survival: float) -> QubitChannel:
    """Polarization-independent attenuation: single Kraus sqrt(survival) * I."""
    if not 0.0 < survival <= 1.0:
        raise ValueError(f"survival probability {survival} outside (0, 1]")
    return QubitChannel((math.sqrt(survival) * _I2,))


def compose_channels(*channels: QubitChannel) -> QubitChannel:
    """Compose channels applied left to right (first argument acts first).

    Several multiply as superoperators; a product of CP, trace non-increasing
    maps is one, so it is not validated again.
    """
    if not channels:
        raise ValueError("need at least one channel")
    if len(channels) == 1:
        return channels[0]
    sup = channels[0].superop
    for ch in channels[1:]:
        sup = ch.superop @ sup
    out = object.__new__(QubitChannel)
    object.__setattr__(out, "superop", _frozen(sup))
    return out


def matrix_to_json(matrix: np.ndarray) -> dict:
    """Row-major [re, im] pair encoding used for density/chi matrix dumps."""
    m = np.asarray(matrix, dtype=complex)
    return {
        "shape": list(m.shape),
        "elements": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    shape = tuple(payload["shape"])
    flat = np.array([complex(re, im) for re, im in payload["elements"]])
    return flat.reshape(shape)
