"""Record the sha256 of every workload's generated inputs for seeds 0 to 63.

Usage (from the repository root):

    python3 perfbench/record_fingerprints.py

Writes ``perfbench/fingerprints.json``: workload -> seed -> file -> sha256.
For ``simulate`` workloads the panel that ``catfpca simulate`` writes is
recorded as well.  ``run.py`` compares a run's inputs with this table and
reports a run whose inputs differ as a different workload.  Re-record only
in a change that deliberately changes the workloads.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEEDS = range(64)


def fingerprints(w: workloads.Workload, seed: int, scratch: Path) -> dict:
    shutil.rmtree(scratch, ignore_errors=True)
    prints = workloads.generate(w, seed, scratch / "inputs")
    if w.first_stage == "simulate":
        done = workloads.run_stages(w, seed, scratch / "inputs", scratch / "op",
                                    stages=("simulate",))
        if done["simulate"][0] != 0:
            raise SystemExit(f"{w.name} seed {seed}: catfpca simulate failed")
        prints["panel.csv"] = workloads.sha256_file(scratch / "op" / "sim" / "panel.csv")
    shutil.rmtree(scratch)
    return prints


def main() -> int:
    table = {
        name: {str(seed): fingerprints(w, seed, HERE / "runs" / "fingerprints")
               for seed in SEEDS}
        for name, w in workloads.WORKLOADS.items()
    }
    (HERE / "fingerprints.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
