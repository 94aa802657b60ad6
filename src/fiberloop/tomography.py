"""Maximum-likelihood state reconstruction and process-matrix extraction.

The fit maximizes the Poisson likelihood of the net counts n_j (coincidences
minus accidentals, floored at zero) measured with joint projectors P_j.  The
unknown overall flux is profiled out analytically, which leaves the
multinomial form

    -log L(rho) = N log(sum_j mu_j) - sum_j n_j log(mu_j),   mu_j = Tr(P_j rho).

With S = sum_j P_j, the transformed state sigma = S^1/2 rho S^1/2 / Tr(S rho)
has p_j = Tr(E_j sigma) = mu_j / sum_k mu_k for the POVM E_j = S^-1/2 P_j
S^-1/2, so the objective -sum_j n_j log Tr(E_j sigma) is convex over
unit-trace positive semidefinite sigma, which has 15 real degrees of freedom.

The solve is a primal interior-point method that follows the central path
of -log L / mu - log det sigma from linear inversion mixed toward I/4 until
strictly positive (Boyd & Vandenberghe, Convex Optimization, 11.3-11.5).  At
each barrier weight mu, damped Newton steps run until the decrement is below
``_CENTERED``, then one full step re-centers; from there a predictor step
along the path tangent mu dsigma/dmu moves to mu / 100.  The first weight,
10 * 100^round(log10(max(1, 1e-5 N)) / 2) for N counts, keeps the first
stage short and puts 1e-7, where re-centered fits first certify, on the
schedule.  Each iterate is factored once, sigma = V diag(lam) V^dag: the line
search's positivity check is that eigendecomposition.  The probabilities
p_j, the gradient, the Hessian (whose barrier part is diagonal there), the
traceless step and tangent and the certificate all come from the POVM's
coordinates in the eigenbasis V.  The solve stops at the first re-centered
point where the first-order certificate

    lambda_max(sum_j n_j E_j / p_j) - N  >=  log L_max - log L(sigma)

is at most ``MleConfig.convergence_tol`` nats, or its rounding 64 N eps if larger
(Glancy, Knill & Girard, NJP 14, 095017 (2012)); it raises ``MleConvergenceError``
after ``MleConfig.max_iterations`` Newton steps.  The result is deterministic.

The process matrix of the buffered idler comes from the same data: the
reconstructed joint state, read relative to the prepared pair state
(|HH> + |VV>)/sqrt(2), is the Choi state of the idler channel, and expressing
it in the orthonormal basis {(I x s_m)|pair>} is exactly the chi matrix in
the (I, s1, s2, s3) operator basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import counting as cnt
from .buffer import _AT_LEAST_ONE, _POSITIVE, _validate
from .counting import AnalyzerSetting, CountRecord
from .qstate import (
    ChiMatrix,
    PAULIS,
    TwoQubitState,
    bell_ket,
    identity_chi,
    process_fidelity,
    state_fidelity,
    bell_state,
)

__all__ = [
    "MleConfig",
    "InsufficientDataError",
    "IncompleteSettingsError",
    "MleConvergenceError",
    "MetricsRecord",
    "reconstruct_state",
    "reconstruct_chi",
    "report_metrics",
]


class InsufficientDataError(ValueError):
    """All net counts are zero; nothing to fit."""


class IncompleteSettingsError(ValueError):
    """Settings are not tomographically complete (singular design matrix)."""


class MleConvergenceError(ValueError):
    """The fit did not reach its optimality certificate within the step budget."""


@dataclass(frozen=True)
class MleConfig:
    """Newton-step budget and certified likelihood gap (nats) of the fit."""

    max_iterations: int = field(default=500, metadata=_AT_LEAST_ONE)
    convergence_tol: float = field(default=1e-6, metadata=_POSITIVE)

    __post_init__ = _validate


# Largest acceptable condition number of the linear design matrix.
_MAX_DESIGN_CONDITION = 1e6
# Smallest eigenvalue of the warm start, as a fraction of the mixed state's.
_START_MARGIN = 1e-3
# Newton decrement below which a step is taken in full, after which the
# point is re-centered (the quadratic region of a self-concordant barrier).
_CENTERED = 0.25
# Factor by which each predictor step lowers the barrier weight mu.
_MU_DROP = 100.0

# Orthonormal basis Q_k of the Hermitian 4x4 matrices, Tr(Q_k Q_l) = delta_kl:
# E_aa, then (E_ab + E_ba)/sqrt(2) and i(E_ab - E_ba)/sqrt(2) for a < b.
# Q_k is diagonal for k < 4, so coordinate k of a diagonal matrix is entry k.
_UPPER = np.triu_indices(4, 1)
_Q_ROWS = np.concatenate([np.arange(4), _UPPER[0], _UPPER[0]])
_Q_COLS = np.concatenate([np.arange(4), _UPPER[1], _UPPER[1]])


def _hermitian_basis() -> np.ndarray:
    q = np.zeros((16, 4, 4), dtype=complex)
    for k, (a, b) in enumerate(zip(_Q_ROWS, _Q_COLS)):
        z = 1.0 if k < 4 else (1.0 if k < 10 else 1.0j) / math.sqrt(2.0)
        q[k, a, b], q[k, b, a] = z, np.conj(z)
    return q


_Q = _hermitian_basis()
# Coordinates Tr(M Q_k) = (M.ravel() @ _TO_COORDS)[k] of a row-major matrix.
_TO_COORDS = _Q.conj().reshape(16, 16).T.copy()
# The row-major matrix sum_k d_k Q_k is _FROM_COORDS @ d.
_FROM_COORDS = _Q.reshape(16, 16).T.copy()
_TRACE_COORDS = np.repeat([1.0, 0.0], [4, 12])
for _arr in (_Q, _TO_COORDS, _FROM_COORDS, _TRACE_COORDS):
    _arr.flags.writeable = False


@dataclass(frozen=True)
class _Design:
    """What the fit needs of a complete set of settings, counts aside."""

    povm: np.ndarray        # E_j = S^-1/2 P_j S^-1/2, flattened row-major
    inversion: np.ndarray   # linear inversion: sigma.ravel() from p
    s_inv_half: np.ndarray


@functools.lru_cache(maxsize=32)
def _design(settings: tuple[AnalyzerSetting, ...]) -> _Design:
    projectors = cnt.joint_projectors(settings)
    # rows: the projectors' coordinates Tr(P_j Q_k); the rank test catches
    # fewer than 16 independent settings, whose condition number can be finite
    m = (projectors.reshape(len(projectors), 16) @ _TO_COORDS).real
    if np.linalg.matrix_rank(m) < 16 or np.linalg.cond(m) > _MAX_DESIGN_CONDITION:
        raise IncompleteSettingsError(
            "settings are not tomographically complete (singular design matrix)"
        )
    w, v = np.linalg.eigh(projectors.sum(axis=0))
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    povm = np.einsum("ij,kjl,lm->kim", s_inv_half, projectors, s_inv_half)
    povm = povm.reshape(len(povm), 16)
    # p = Re(conj(E) @ sigma.ravel()), so its pseudo-inverse inverts p
    design = _Design(povm=povm, inversion=np.linalg.pinv(povm.conj()), s_inv_half=s_inv_half)
    for arr in vars(design).values():
        arr.flags.writeable = False
    return design


def _warm_start(design: _Design, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear inversion, mixed toward I/4 until strictly positive, and its
    eigendecomposition (the mixing keeps the eigenvectors)."""
    sigma = (design.inversion @ (counts / counts.sum())).reshape(4, 4)
    sigma = 0.5 * (sigma + sigma.conj().T)
    sigma = sigma / np.trace(sigma).real
    lam, v = np.linalg.eigh(sigma)
    floor = _START_MARGIN / 4.0
    if lam[0] < floor:
        w = (floor - lam[0]) / (0.25 - lam[0])
        sigma = (1.0 - w) * sigma + w * np.eye(4) / 4.0
        lam = (1.0 - w) * lam + w / 4.0
    return sigma, lam, v


def _eigen_coords(
    design: _Design, counts: np.ndarray, lam: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the fit reads off sigma = V diag(lam) V^dag: to_eigen, the unitary
    taking a row-major M to the coordinates of V^dag M V; ae, row j those of
    V^dag E_j V; p_j = Tr(E_j sigma); and r, those of V^dag R V for
    R = sum_j n_j E_j / p_j, minus the gradient of -log L."""
    to_eigen = (v.conj()[:, None, :, None] * v[None, :, None, :]).reshape(16, 16) @ _TO_COORDS
    ae = (design.povm @ to_eigen).real
    p = ae[:, :4] @ lam
    return to_eigen, ae, p, (counts / p) @ ae


def _certificate(r: np.ndarray, n_total: float) -> float:
    """lambda_max(R) - N >= log L_max - log L(sigma), from R's coordinates r."""
    return float(np.linalg.eigvalsh((_FROM_COORDS @ r).reshape(4, 4))[-1] - n_total)


def _newton_step(
    lam: np.ndarray, ae: np.ndarray, p: np.ndarray, r: np.ndarray,
    counts: np.ndarray, mu: float, rhs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton step of nll / mu - log det sigma over traceless directions, in
    sigma's eigenbasis, where the barrier Hessian is diagonal (1 / lambda_a
    lambda_b), scaled to a unit diagonal: near the boundary the Hessian spans
    many decades, and a fixed basis would lose sigma's smallest eigenvalues to
    rounding.  Returns the eigen-coordinates of the step and of the path
    tangent mu dsigma/dmu = H^-1 sigma^-1, both traceless, and the Newton
    decrement; ``rhs`` is scratch whose second column holds ``_TRACE_COORDS``
    and whose third is zero below its first four rows."""
    rhs[:4, 2] = 1.0 / lam  # sigma^-1's eigen-coordinates
    g = -r / mu
    g[:4] -= rhs[:4, 2]
    hess = (ae.T * (counts / (p * p * mu))) @ ae
    hess.reshape(-1)[::17] += 1.0 / (lam[_Q_ROWS] * lam[_Q_COLS])  # barrier Hessian
    scale = 1.0 / np.sqrt(np.diagonal(hess))
    hess *= scale
    hess *= scale[:, None]
    rhs[:, 0] = g
    u = np.linalg.solve(hess, rhs * scale[:, None]) * scale[:, None]
    # Subtract the multiples of the constraint solve that make both traceless.
    traces = u[:4].sum(axis=0)  # Tr(Q_k) is 1 for k < 4, else 0
    d = traces[0] / traces[1] * u[:, 1] - u[:, 0]
    tangent = u[:, 2] - traces[2] / traces[1] * u[:, 1]
    return d, tangent, math.sqrt(max(-float(g @ d), 0.0))


def _solve(design: _Design, counts: np.ndarray, cfg: MleConfig) -> np.ndarray:
    """Certified maximum-likelihood sigma, one eigendecomposition per iterate."""
    sigma, lam, v = _warm_start(design, counts)
    n_total = counts.sum()
    tol = max(cfg.convergence_tol, 64 * np.finfo(float).eps * n_total)
    rhs = np.column_stack([np.empty(16), _TRACE_COORDS, np.zeros(16)])
    # An odd power of ten near 1e-5 N, so that the schedule meets 1e-7
    mu = 10.0 * _MU_DROP ** round(math.log10(max(1.0, 1e-5 * n_total)) / 2)
    centered = False
    for steps in range(cfg.max_iterations + 1):
        to_eigen, ae, p, r = _eigen_coords(design, counts, lam, v)
        # Certify only points re-centered by a full step: there the bound is mu (4 - 1/lambda_max).
        if centered and _certificate(r, n_total) <= tol:
            return sigma
        if steps == cfg.max_iterations:
            break
        d, tangent, decrement = _newton_step(lam, ae, p, r, counts, mu, rhs)
        if centered:  # predict the center at mu / _MU_DROP along the path's tangent
            d -= (1.0 - 1.0 / _MU_DROP) * tangent
            mu /= _MU_DROP
        # Full steps for predictors and near the central path, damped ones elsewhere.
        t = 1.0 if centered or decrement < _CENTERED else 1.0 / (1.0 + decrement)
        centered = not centered and decrement < _CENTERED
        step = (to_eigen @ d).conj().reshape(4, 4)  # V (sum_k d_k Q_k) V^dag: to_eigen is unitary
        # The halving guards positivity against rounding near the boundary;
        # the factorization that shows the new iterate positive is its eigenbasis.
        lam, v = np.linalg.eigh(trial := sigma + t * step)
        while lam[0] <= 0.0:
            t /= 2.0
            lam, v = np.linalg.eigh(trial := sigma + t * step)
        sigma = trial
    raise MleConvergenceError(
        f"likelihood certificate above {tol:g} nats "
        f"after {cfg.max_iterations} Newton steps"
    )


def reconstruct_state(
    records: Sequence[CountRecord],
    settings: Sequence[AnalyzerSetting],
    cfg: MleConfig = MleConfig(),
) -> TwoQubitState:
    """Maximum-likelihood density matrix from net coincidence counts.

    ``settings`` are the records' analyzer settings; the fit's design is
    cached per settings tuple.  The returned state is certified to lie within
    ``cfg.convergence_tol`` nats (or 64 N eps for N net counts, if larger) of
    the maximum likelihood.
    """
    if len(records) != len(settings):
        raise ValueError("need one setting per count record")
    design = _design(tuple(settings))
    counts = np.array([float(r.net) for r in records])
    if counts.sum() <= 0:
        raise InsufficientDataError("all net counts are zero")
    sigma = _solve(design, counts, cfg)
    rho = design.s_inv_half @ sigma @ design.s_inv_half
    rho = 0.5 * (rho + rho.conj().T)
    return TwoQubitState(rho / np.trace(rho).real)


# Columns (I x s_m)|pair>, an orthonormal basis of the two-qubit space.
_CHOI_BASIS = np.column_stack([np.kron(np.eye(2), p) @ bell_ket() for p in PAULIS])
_CHOI_BASIS.flags.writeable = False


def reconstruct_chi(rho_joint: TwoQubitState) -> ChiMatrix:
    """Chi matrix of the idler process from the reconstructed joint state.

    Valid when the pre-process pair was prepared in (|HH> + |VV>)/sqrt(2);
    the joint state is then the Choi state of the idler channel and the
    basis change below is exact.  Post-selection on coincidences makes any
    polarization-independent loss invisible here, so a loss-only process
    reconstructs as the identity.
    """
    chi = _CHOI_BASIS.conj().T @ rho_joint.matrix @ _CHOI_BASIS
    chi = 0.5 * (chi + chi.conj().T)
    return ChiMatrix(chi / np.trace(chi).real)


@dataclass(frozen=True)
class MetricsRecord:
    """Figures of merit of one reconstructed state/process pair."""

    state_fidelity: float
    process_fidelity: float
    purity: float
    chi_diagonal: tuple[float, float, float, float]

    def to_json(self) -> dict:
        return {
            "F": self.state_fidelity,
            "F_chi": self.process_fidelity,
            "purity": self.purity,
            "chi_diag": list(self.chi_diagonal),
        }


def report_metrics(rho: TwoQubitState, chi: ChiMatrix) -> MetricsRecord:
    """State fidelity vs the prepared pair, process fidelity vs identity."""
    return MetricsRecord(
        state_fidelity=state_fidelity(rho, bell_state()),
        process_fidelity=process_fidelity(chi, identity_chi()),
        purity=rho.purity,
        chi_diagonal=tuple(float(x) for x in chi.diagonal),
    )
