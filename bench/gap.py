"""Certified likelihood-gap bound of a maximum-likelihood tomography fit.

For net counts n_j measured with joint projectors P_j and a fitted state rho,
let mu_j = Tr(P_j rho), M = sum_j mu_j, N = sum_j n_j, S = sum_j P_j and
R = sum_j n_j P_j / mu_j.  With the unknown flux profiled out, the
log-likelihood sum_j n_j log(mu_j / M) is concave in the transformed state
sigma = S^1/2 rho S^1/2 / M, over which {S^-1/2 P_j S^-1/2} is a POVM, so its
first-order bound gives

    log L_max - log L(rho) <= M lambda_max(S^-1/2 R S^-1/2) - N

(Glancy, Knill & Girard, NJP 14, 095017 (2012)).  The bound is zero at the
optimum and loose away from it, so it is a one-sided guard on fit quality.

Everything here reads the fit back from the artifacts a run wrote
(``dataset.csv`` and ``rho.json``) and uses only numpy and its own Jones
calculus, so it does not trust the code it certifies.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

_H = np.array([1.0, 0.0], dtype=complex)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def analyzer_projector(hwp: float, qwp: float) -> np.ndarray:
    """Projector transmitted by a QWP(qwp) then HWP(hwp) then H polarizer."""
    c, s = math.cos(2 * hwp), math.sin(2 * hwp)
    half = np.array([[c, s], [s, -c]], dtype=complex)
    quarter = _rot(qwp) @ np.diag([1.0, 1.0j]) @ _rot(-qwp)
    v = half @ quarter.conj().T @ _H
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def read_fit(run_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint projectors, net counts and fitted state from one run's artifacts."""
    projectors, counts = [], []
    with open(run_dir / "dataset.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            ps = analyzer_projector(float(row["hwp_s"]), float(row["qwp_s"]))
            pi = analyzer_projector(float(row["hwp_i"]), float(row["qwp_i"]))
            projectors.append(np.kron(ps, pi))
            counts.append(max(int(row["cc"]) - int(row["ac"]), 0))
    payload = json.loads((run_dir / "rho.json").read_text())
    flat = np.array([complex(re, im) for re, im in payload["elements"]])
    rho = flat.reshape(tuple(payload["shape"]))
    return np.array(projectors), np.array(counts, dtype=float), rho


def _inv_sqrt(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v / np.sqrt(w)) @ v.conj().T


def likelihood_gap(projectors: np.ndarray, counts: np.ndarray, rho: np.ndarray) -> float:
    """Upper bound on log L_max - log L(rho), in nats."""
    mu = np.einsum("kij,ji->k", projectors, rho).real
    seen = counts > 0
    r = np.tensordot(counts[seen] / mu[seen], projectors[seen], axes=(0, 0))
    s_inv_half = _inv_sqrt(projectors.sum(axis=0))
    lam = np.linalg.eigvalsh(s_inv_half @ r @ s_inv_half).max()
    return float(mu.sum() * lam - counts.sum())


def log_likelihood(projectors: np.ndarray, counts: np.ndarray, rho: np.ndarray) -> float:
    """Flux-profiled log-likelihood sum_j n_j log(mu_j / M)."""
    mu = np.einsum("kij,ji->k", projectors, rho).real
    seen = counts > 0
    return float(counts[seen] @ np.log(mu[seen] / mu.sum()))


def polish(
    projectors: np.ndarray, counts: np.ndarray, rho: np.ndarray, iterations: int = 4000
) -> np.ndarray:
    """Raise the likelihood of ``rho`` by diluted R-rho-R steps in sigma space.

    Each step sigma -> A sigma A / Tr with A = I + eps (R~/N - I) is accepted
    only if the likelihood grows, so the result is never worse than the start
    (Rehacek, Hradil, Knill & Lvovsky, PRA 75, 042108 (2007)).
    """
    s = projectors.sum(axis=0)
    w, v = np.linalg.eigh(s)
    s_half = (v * np.sqrt(w)) @ v.conj().T
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    povm = np.einsum("ij,kjl,lm->kim", s_inv_half, projectors, s_inv_half)
    seen = counts > 0
    n_total = counts.sum()

    def loglik(sig: np.ndarray) -> float:
        p = np.einsum("kij,ji->k", povm[seen], sig).real
        return float(counts[seen] @ np.log(p))

    sigma = s_half @ rho @ s_half
    sigma = sigma / np.trace(sigma).real
    best = loglik(sigma)
    eps = 1.0
    for _ in range(iterations):
        p = np.einsum("kij,ji->k", povm[seen], sigma).real
        r = np.tensordot(counts[seen] / p, povm[seen], axes=(0, 0)) / n_total
        a = np.eye(4) + eps * (r - np.eye(4))
        trial = a @ sigma @ a.conj().T
        trial = 0.5 * (trial + trial.conj().T) / np.trace(trial).real
        value = loglik(trial)
        if value > best:
            sigma, best = trial, value
            eps = min(1.0, 2.0 * eps)
        else:
            eps *= 0.5
            if eps < 1e-12:
                break
    out = s_inv_half @ sigma @ s_inv_half
    return out / np.trace(out).real


def gap_of_run(out_dir: Path) -> float:
    """Likelihood gap of the one fit whose artifacts lie under ``out_dir``."""
    found = sorted(out_dir.rglob("rho.json"))
    if len(found) != 1:
        raise ValueError(f"expected one rho.json under {out_dir}, found {len(found)}")
    return likelihood_gap(*read_fit(found[0].parent))
