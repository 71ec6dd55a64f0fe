"""What the pipeline benchmark (``perfbench/``) reads of the package by name.

``perfbench/tracing.py`` patches the functions that its ``TRACED`` map
names, and ``perfbench/worker.py`` counts union cells through
``trajectory.union_grid``.  These tests resolve those names without
patching anything, check that every CLI call of each workload parses, and
check the grid that each workload's ``mfpca`` flags select.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from catfpca import cli
from catfpca.trajectory import union_grid

from conftest import random_panel

# names that the code no longer has on the pipeline's path; ROADMAP item 1 drops them
KNOWN_ABSENT = {
    "trajectory.to_indicators", "estimation.estimate_field",
    "estimation.estimate_field_from_cells", "kernels.cross_moment",
    "mfpca.assemble_operator", "mfpca.scores",
}


def perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up as it is defined
    spec.loader.exec_module(module)
    return module


def traced_names():
    return perfbench_module("tracing").TRACED


def test_every_traced_function_resolves_but_the_known_absent():
    missing = {name for name, (module, attr, _) in traced_names().items()
               if getattr(importlib.import_module(module), attr, None) is None}
    assert missing <= KNOWN_ABSENT


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_union_grid_of_the_trajectories_is_the_panel_grid(rng, mode):
    panel = random_panel(rng, mode, n=30, q=4)
    assert union_grid(panel.trajectories) == panel.grid()


@pytest.mark.parametrize("name,policy,cells", [
    ("tds-decomp", "union", 400),
    ("tcata-ingest", "uniform", 64),
    ("tcata-sim-export", "union", 512),
])
def test_workload_flags_set_the_grid(name, policy, cells):
    flags = perfbench_module("workloads").WORKLOADS[name].mfpca_flags
    args = cli.build_parser().parse_args(["mfpca", "panel.csv", "--out", "out", *flags])
    assert (args.grid, args.cells) == (policy, cells)


@pytest.mark.parametrize("name", ["tds-decomp", "tcata-ingest", "tcata-sim-export"])
def test_workload_cli_calls_parse(tmp_path, name):
    workloads = perfbench_module("workloads")
    for stage, argv in workloads.operation(workloads.WORKLOADS[name], 1, tmp_path / "in",
                                           tmp_path / "out"):
        assert cli.build_parser().parse_args(argv).command == stage
