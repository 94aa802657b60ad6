"""Write the seed-42 pins of both suites.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_table1_metrics.py

``table1_seed42_metrics.json`` maps each row name to the payload
``run_table1_suite(seed=42)`` writes to that row's metrics.json.  The suite's
metrics are a standing invariant: a change that is not a solver change must
reproduce them.

``divider_seed42.json`` maps each row name of ``run_divider_suite(seed=42)``
to the payloads of its timeline.json, run_result.json and, for a retrieved
photon, metrics.json.  It pins the divider schedule as well as the fits.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from fiberloop import harness

HERE = Path(__file__).parent


def _write(name: str, payload: dict) -> None:
    (HERE / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results, _ = harness.run_table1_suite(seed=42, out_dir=tmp)
        _write("table1_seed42_metrics.json", {
            r.scenario_name: json.loads(Path(r.artifacts["metrics"]).read_text())
            for r in results
        })
    with tempfile.TemporaryDirectory() as tmp:
        results = harness.run_divider_suite(seed=42, out_dir=tmp)
        _write("divider_seed42.json", {r.scenario_name: {
            name: json.loads(path.read_text())
            for name in ("timeline", "run_result", "metrics")
            if (path := Path(r.artifacts["timeline"]).with_name(f"{name}.json")).exists()
        } for r in results})


if __name__ == "__main__":
    main()
