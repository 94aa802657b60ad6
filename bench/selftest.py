"""Self-test of the benchmark's likelihood-gap bound (mle_gap_nats).

    python3 bench/selftest.py

On a few fixed datasets from the table1 and long-storage workloads it fits
with the shipped solver, writes the artifacts, and checks that

* the benchmark's own analyzer projectors match the program's;
* the gap bound read back from the artifacts is non-negative;
* a long likelihood-raising polish of the shipped fit gains no more than
  the bound promised (the bound is an upper bound on the true excess);
* the polished fit's own bound is smaller, as it is closer to the optimum.

Exit code 0 when every check holds, 1 otherwise.  Run it from the root of a
source tree; it writes only under ``.bench_work/``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fiberloop import counting, harness  # noqa: E402

import gap  # noqa: E402
from workloads import LongStorage  # noqa: E402

# (workload scenarios, indices) of the fixed datasets.
CASES = (
    (harness.table1_scenarios(seed=0), (0, 1, 4)),
    (LongStorage(seed=0).scenarios(0), (0, 10, 16)),
)


def main() -> int:
    problems = []
    for setting in counting.standard_16_settings():
        mine = np.kron(gap.analyzer_projector(setting.hwp_signal, setting.qwp_signal),
                       gap.analyzer_projector(setting.hwp_idler, setting.qwp_idler))
        if np.abs(mine - setting.joint_projector()).max() > 1e-12:
            problems.append(f"projector mismatch at {setting}")

    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for scenarios, indices in CASES:
            for i in indices:
                scenario = scenarios[i]
                harness.run_scenario(scenario, out_dir=work / scenario.name)
                run_dir = next((work / scenario.name).rglob("rho.json")).parent
                projectors, counts, rho = gap.read_fit(run_dir)
                bound = gap.likelihood_gap(projectors, counts, rho)
                polished = gap.polish(projectors, counts, rho)
                excess = (gap.log_likelihood(projectors, counts, polished)
                          - gap.log_likelihood(projectors, counts, rho))
                polished_bound = gap.likelihood_gap(projectors, counts, polished)
                print(f"{scenario.name:16s} N={counts.sum():8.0f} bound {bound:10.4g} nats, "
                      f"polish gained {excess:10.4g}, polished bound {polished_bound:10.4g}")
                if bound < -1e-9:
                    problems.append(f"{scenario.name}: negative bound {bound}")
                if excess > bound + 1e-9:
                    problems.append(f"{scenario.name}: polish gained {excess} > bound {bound}")
                if polished_bound > bound + 1e-9:
                    problems.append(f"{scenario.name}: polish raised the bound")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
