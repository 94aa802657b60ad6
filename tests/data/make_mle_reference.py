"""Write mle_reference.json: fixed datasets and a reference fit's likelihood.

Run from the repository root:

    PYTHONPATH=src:bench python3 tests/data/make_mle_reference.py

Each entry holds the net counts of one 16-setting dataset (standard settings,
in setting order) and the flux-profiled negative log-likelihood

    N log(sum_j mu_j) - sum_j n_j log(mu_j),   mu_j = Tr(P_j rho)

of the state ``reconstruct_state`` returns for it.  The committed file was
written by the 9-start L-BFGS-B fit that preceded the certified
interior-point solve, so it pins the new solver to be no worse than the old
one; rerunning the script records the solver of the day instead.

Datasets: the seven table1 rows at seeds 0-9, the long-storage points of the
benchmark at two seeds (low counts, some zero-count settings) and five Bell
datasets at 500 pairs/s, as in acceptance criterion C9.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from fiberloop import counting as cnt
from fiberloop import harness, qstate
from fiberloop import tomography as tomo
from workloads import LongStorage

OUT = Path(__file__).with_name("mle_reference.json")
SETTINGS = cnt.standard_16_settings()
PROJECTORS = np.array([s.joint_projector() for s in SETTINGS])


def nll(counts: np.ndarray, rho: np.ndarray) -> float:
    mu = np.einsum("kij,ji->k", PROJECTORS, rho).real
    seen = counts > 0
    return float(counts.sum() * math.log(mu.sum()) - counts[seen] @ np.log(mu[seen]))


def scenario_records(scenario: harness.Scenario) -> list[cnt.CountRecord]:
    """The dataset the harness pipeline draws for ``scenario``."""
    with tempfile.TemporaryDirectory() as out:
        result = harness.run_scenario(scenario, out_dir=out)
        assert not result.leaked, scenario.name
        records, _ = cnt.read_dataset_csv(result.artifacts["dataset"])
    return records


def datasets():
    for seed in range(10):
        for s in harness.table1_scenarios(seed=seed):
            yield f"table1-seed{seed}-{s.name}", scenario_records(s)
    for seed in range(2):
        for s in LongStorage(seed).scenarios(0):
            yield f"long-storage-seed{seed}-{s.name}", scenario_records(s)
    for seed in range(5):
        cfg = cnt.CountingConfig(pair_rate=500.0, accidental_rate=5.0, rng_seed=seed)
        yield f"bell-500pps-seed{seed}", cnt.simulate_dataset(qstate.bell_state(), cfg, 2.0, SETTINGS)


def main() -> None:
    entries = []
    for label, records in datasets():
        counts = np.array([r.net for r in records], dtype=float)
        rho = tomo.reconstruct_state(records, SETTINGS)
        entries.append({
            "label": label,
            "net_counts": [int(c) for c in counts],
            "nll": nll(counts, rho.matrix),
        })
    rows = ",\n  ".join(json.dumps(e) for e in entries)
    OUT.write_text(f'{{"settings": "standard_16_settings",\n "datasets": [\n  {rows}\n]}}\n')
    print(f"wrote {len(entries)} datasets to {OUT}")


if __name__ == "__main__":
    main()
