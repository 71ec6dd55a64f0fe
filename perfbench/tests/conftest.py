import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def small(name: str, **sizes) -> workloads.Workload:
    """A benchmark workload shrunk so one operation takes well under a second."""
    return dataclasses.replace(workloads.WORKLOADS[name], **sizes)


def run_operation_in_process(w: workloads.Workload, seed: int, base: Path) -> Path:
    """Generate inputs and run the workload's CLI calls; returns the results dir."""
    inputs, out = base / "inputs", base / "op"
    workloads.generate(w, seed, inputs)
    done = workloads.run_stages(w, seed, inputs, out)
    assert {stage: code for stage, (code, _) in done.items()} == {w.first_stage: 0, "mfpca": 0}
    return out / "results"


@pytest.fixture(scope="session")
def tds_results(tmp_path_factory):
    w = small("tds-decomp", n=40, q=3, mfpca_flags=("--k", "4", "--cells", "64"))
    return run_operation_in_process(w, 1, tmp_path_factory.mktemp("tds"))


@pytest.fixture(scope="session")
def sim_results(tmp_path_factory):
    w = small("tcata-sim-export", n=12)
    return run_operation_in_process(w, 1, tmp_path_factory.mktemp("sim"))
