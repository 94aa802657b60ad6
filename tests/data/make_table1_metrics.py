"""Write table1_seed42_metrics.json: the metrics.json of every table1 row.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_table1_metrics.py

The file maps each row name to the payload ``run_table1_suite(seed=42)``
writes to that row's metrics.json.  The suite's metrics are a standing
invariant: a change that is not a solver change must reproduce them.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from fiberloop import harness

OUT = Path(__file__).with_name("table1_seed42_metrics.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results, _ = harness.run_table1_suite(seed=42, out_dir=tmp)
        payload = {
            r.scenario_name: json.loads(Path(r.artifacts["metrics"]).read_text())
            for r in results
        }
    OUT.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
