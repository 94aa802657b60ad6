"""Polarization analyzers and coincidence-count simulation.

Each analyzer arm is a quarter-wave plate followed by a half-wave plate and a
horizontal polarizer.  With the Jones conventions

    HWP(t) = [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
    QWP(t) = R(t) diag(1, i) R(-t)

the state transmitted to the detector for plate angles (h, q) is
|psi> = HWP(h) QWP(q)^dag |H>, and the measurement projects onto |psi><psi|.
Sixteen joint settings drawn from the per-arm analysis states
{H, V, D, A, R, L} form the tomographically complete set used throughout.

Counts are Poisson distributed.  Each setting draws from its own Philox
4x64 substream keyed by (rng_seed, setting_index) through numpy's
SeedSequence, so datasets are reproducible bit for bit and independent of
evaluation order.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .buffer import _require_finite, loss_to_survival
from .qstate import TwoQubitState

__all__ = [
    "AnalyzerSetting",
    "CountRecord",
    "CountingConfig",
    "hwp_jones",
    "qwp_jones",
    "projector",
    "standard_16_settings",
    "joint_projectors",
    "ANALYSIS_ANGLES",
    "expected_coincidence_rate",
    "simulate_dataset",
    "expected_dataset",
    "write_dataset_csv",
    "read_dataset_csv",
]

# Waveplate angles (radians) realizing each analysis state on one arm.
ANALYSIS_ANGLES: dict[str, tuple[float, float]] = {
    "H": (0.0, 0.0),
    "V": (math.pi / 4, 0.0),
    "D": (math.pi / 8, 0.0),
    "A": (-math.pi / 8, 0.0),
    "R": (0.0, math.pi / 4),
    "L": (0.0, -math.pi / 4),
}

# Standard two-qubit tomography set (signal, idler), setting 0 = (H, H).
STANDARD_16_LABELS: tuple[tuple[str, str], ...] = (
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hwp_jones(theta: float) -> np.ndarray:
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_jones(theta: float) -> np.ndarray:
    return _rot(theta) @ np.diag([1.0, 1.0j]) @ _rot(-theta)


def analysis_ket(hwp_angle: float, qwp_angle: float) -> np.ndarray:
    """Polarization transmitted to the detector for the given plate angles."""
    v = hwp_jones(hwp_angle) @ qwp_jones(qwp_angle).conj().T @ np.array([1.0, 0.0], complex)
    return v / np.linalg.norm(v)


def projector(hwp_angle: float, qwp_angle: float) -> np.ndarray:
    """Rank-1 polarization projector for one analyzer arm."""
    v = analysis_ket(hwp_angle, qwp_angle)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class AnalyzerSetting:
    """Waveplate angles for both arms of one tomography setting."""

    hwp_signal: float
    qwp_signal: float
    hwp_idler: float
    qwp_idler: float

    def __post_init__(self) -> None:
        for v in (self.hwp_signal, self.qwp_signal, self.hwp_idler, self.qwp_idler):
            if not math.isfinite(v):
                raise ValueError("waveplate angles must be finite")

    def joint_projector(self) -> np.ndarray:
        ps = projector(self.hwp_signal, self.qwp_signal)
        pi = projector(self.hwp_idler, self.qwp_idler)
        return np.kron(ps, pi)


@functools.cache
def standard_16_settings() -> tuple[AnalyzerSetting, ...]:
    """The 16 joint analyzer settings of the standard two-qubit protocol."""
    out = []
    for s_label, i_label in STANDARD_16_LABELS:
        hs, qs = ANALYSIS_ANGLES[s_label]
        hi, qi = ANALYSIS_ANGLES[i_label]
        out.append(AnalyzerSetting(hs, qs, hi, qi))
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _projector_stack(settings: tuple[AnalyzerSetting, ...]) -> np.ndarray:
    stack = np.array([s.joint_projector() for s in settings])
    stack.flags.writeable = False
    return stack


def joint_projectors(settings: Sequence[AnalyzerSetting]) -> np.ndarray:
    """Stack of 4x4 joint projectors, one per setting, built once per
    settings tuple and shared read-only."""
    return _projector_stack(tuple(settings))


@dataclass(frozen=True)
class CountRecord:
    setting_index: int
    coincidences: int
    accidentals: int
    integration_time: float

    def __post_init__(self) -> None:
        if not 0 <= self.setting_index:
            raise ValueError("setting index must be nonnegative")
        if self.coincidences < 0 or self.accidentals < 0:
            raise ValueError("counts must be nonnegative")
        if not self.integration_time > 0:
            raise ValueError("integration time must be positive")

    @property
    def net(self) -> int:
        """True coincidences: accidentals subtracted, floored at zero."""
        return max(self.coincidences - self.accidentals, 0)


@dataclass(frozen=True)
class CountingConfig:
    """Source, arm-loss, and detector parameters for count simulation.

    ``accidental_rate`` lumps Raman scattering and dark-count correlations
    into one flat rate per setting; it is generated and then subtracted, so
    it only adds Poisson noise downstream.
    """

    pair_rate: float
    signal_arm_loss_db: float = 0.0
    idler_arm_loss_db: float = 0.0
    accidental_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.pair_rate < 0 or self.accidental_rate < 0:
            raise ValueError("rates must be nonnegative")
        if self.signal_arm_loss_db < 0 or self.idler_arm_loss_db < 0:
            raise ValueError("arm losses must be nonnegative")


def expected_coincidence_rate(
    rho: TwoQubitState, joint_projector: np.ndarray, cfg: CountingConfig
) -> float:
    """Born-rule coincidence rate: pair flux x arm survivals x Tr(P rho)."""
    p = float(np.trace(np.asarray(joint_projector) @ rho.matrix).real)
    p = max(p, 0.0)
    return (
        cfg.pair_rate
        * loss_to_survival(cfg.signal_arm_loss_db)
        * loss_to_survival(cfg.idler_arm_loss_db)
        * p
    )


def _setting_rng(seed: int, setting_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=[int(seed) & (2**64 - 1), setting_index])
    return np.random.Generator(np.random.Philox(ss))


def _setting_means(
    rho: TwoQubitState,
    cfg: CountingConfig,
    integration_time: float,
    settings: Sequence[AnalyzerSetting] | None,
) -> list[tuple[int, float, float]]:
    """(setting index, coincidence mean, accidental mean) for every setting."""
    if not integration_time > 0:
        raise ValueError("integration time must be positive")
    if settings is None:
        settings = standard_16_settings()
    # expected_coincidence_rate's float expressions, for all settings at once
    p = np.maximum(np.trace(joint_projectors(settings) @ rho.matrix, axis1=1, axis2=2).real, 0)
    s_s, s_i = loss_to_survival(cfg.signal_arm_loss_db), loss_to_survival(cfg.idler_arm_loss_db)
    ac_mean = cfg.accidental_rate * integration_time
    return [
        (idx, (cfg.pair_rate * s_s * s_i * p_j + cfg.accidental_rate) * integration_time, ac_mean)
        for idx, p_j in enumerate(p.tolist())
    ]


def simulate_dataset(
    rho: TwoQubitState,
    cfg: CountingConfig,
    integration_time: float,
    settings: Sequence[AnalyzerSetting] | None = None,
) -> list[CountRecord]:
    """Poisson coincidence/accidental counts for every analyzer setting."""
    records = []
    for idx, cc_mean, ac_mean in _setting_means(rho, cfg, integration_time, settings):
        rng = _setting_rng(cfg.rng_seed, idx)
        cc = int(rng.poisson(cc_mean))
        ac = int(rng.poisson(ac_mean))
        records.append(CountRecord(idx, cc, ac, integration_time))
    return records


def expected_dataset(
    rho: TwoQubitState,
    cfg: CountingConfig,
    integration_time: float,
    settings: Sequence[AnalyzerSetting] | None = None,
) -> list[CountRecord]:
    """Infinite-statistics dataset: Poisson means rounded to integers."""
    return [
        CountRecord(idx, round(cc_mean), round(ac_mean), integration_time)
        for idx, cc_mean, ac_mean in _setting_means(rho, cfg, integration_time, settings)
    ]


_CSV_HEADER = [
    "setting_index", "hwp_s", "qwp_s", "hwp_i", "qwp_i", "cc", "ac", "integration_time",
]


def write_dataset_csv(
    path: str | Path,
    records: Sequence[CountRecord],
    settings: Sequence[AnalyzerSetting],
) -> None:
    if len(records) != len(settings):
        raise ValueError("need one setting per record")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rec, s in zip(records, settings):
            writer.writerow(
                [
                    rec.setting_index,
                    repr(s.hwp_signal), repr(s.qwp_signal),
                    repr(s.hwp_idler), repr(s.qwp_idler),
                    rec.coincidences, rec.accidentals,
                    repr(rec.integration_time),
                ]
            )


def read_dataset_csv(
    path: str | Path,
) -> tuple[list[CountRecord], list[AnalyzerSetting]]:
    records, settings = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected dataset header: {header}")
        for row in reader:
            idx = int(row[0])
            settings.append(
                AnalyzerSetting(float(row[1]), float(row[2]), float(row[3]), float(row[4]))
            )
            records.append(CountRecord(idx, int(row[5]), int(row[6]), float(row[7])))
    return records, settings
