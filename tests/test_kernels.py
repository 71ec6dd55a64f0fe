"""Rasterization: exact on refining grids, integral-preserving on any grid."""
import numpy as np

from catfpca import panel_cell_values
from catfpca.trajectory import CellGrid

from conftest import random_panel


def test_exact_cells_are_binary_on_refining_grids(rng):
    panel = random_panel(rng, "TCATA", n=6, q=3)
    Z = panel_cell_values(panel, panel.grid())
    assert set(np.unique(Z)) <= {0.0, 1.0}


def test_cell_averages_integrate_exactly(rng):
    # averaging onto any grid preserves the integral of each indicator
    panel = random_panel(rng, "TCATA", n=6, q=3)
    coarse = CellGrid.uniform(7)
    Z = panel_cell_values(panel, coarse)
    for ind, avg in zip(panel.indicators(), Z):
        integral_coarse = avg @ coarse.lengths
        integral_exact = ind.values.T @ np.diff(ind.breakpoints)
        assert np.abs(integral_coarse - integral_exact).max() <= 1e-14
