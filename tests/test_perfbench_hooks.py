"""What the pipeline benchmark (``perfbench/``) reads of the package by name.

``perfbench/tracing.py`` patches the functions that its ``TRACED`` map
names, and ``perfbench/worker.py`` counts union cells through
``trajectory.union_grid``.  These tests resolve those names without
patching anything.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from catfpca.trajectory import union_grid

from conftest import random_panel

# names that the code no longer has on the pipeline's path; ROADMAP item 1 drops them
KNOWN_ABSENT = {
    "trajectory.to_indicators", "estimation.estimate_field",
    "estimation.estimate_field_from_cells", "kernels.cross_moment",
    "mfpca.assemble_operator", "mfpca.scores",
}


def traced_names():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_function_resolves_but_the_known_absent():
    missing = {name for name, (module, attr, _) in traced_names().items()
               if getattr(importlib.import_module(module), attr, None) is None}
    assert missing <= KNOWN_ABSENT


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_union_grid_of_the_trajectories_is_the_panel_grid(rng, mode):
    panel = random_panel(rng, mode, n=30, q=4)
    assert union_grid(panel.trajectories) == panel.grid()
