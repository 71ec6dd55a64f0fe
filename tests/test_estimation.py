import ast
from pathlib import Path

import numpy as np
import pytest

import catfpca
from catfpca import (
    CategoricalTrajectory,
    CellGrid,
    GridError,
    Panel,
    PanelItem,
    StateSpace,
    ValidationError,
    compute_weights,
    mean_on_grid,
    panel_cell_values,
    selection_count_curve,
)
from catfpca.estimation import WEIGHT_SCHEMES, WeightScheme
from catfpca.oracles import estimate_field, oracle_covariance

from conftest import mirror_panel, random_panel


def constant_panel(labels_active):
    """One trajectory per entry, each constantly in the given state index."""
    q = 2
    space = StateSpace(["A", "B"])
    items = [
        PanelItem(f"s{i}", "c", CategoricalTrajectory([0.0, 1.0], [{j}]))
        for i, j in enumerate(labels_active)
    ]
    return Panel("TDS", space, items)


def field_weights(field, scheme):
    """compute_weights on the mean and variance curves of a reference field."""
    return compute_weights(field.mean, field.variance_diagonal, field.grid, field.space, scheme)


def test_single_sample_has_zero_covariance():
    panel = constant_panel([0])
    field = estimate_field(panel)
    assert np.all(field.cov_matrix == 0.0)
    assert np.array_equal(field.mean, [[1.0], [0.0]])


def test_mirror_panel_kernel_by_hand(mirror):
    field = estimate_field(mirror)
    g11 = field.cov[0, 0]
    assert np.allclose(g11, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
    assert np.allclose(field.cov[0, 1], -g11, atol=1e-15)
    assert np.allclose(field.cov[1, 1], g11, atol=1e-15)
    assert np.allclose(field.mean, 0.5, atol=1e-15)


def test_tds_kernel_rows_sum_to_zero(rng):
    panel = random_panel(rng, "TDS", n=7, q=4)
    field = estimate_field(panel)
    # sum over j of gamma_jl(s, t) vanishes because sum_j X_j = 1
    row_sums = field.cov.sum(axis=0)
    assert np.abs(row_sums).max() <= 1e-12


def test_kernel_symmetry_and_bound(rng):
    for mode in ("TDS", "TCATA"):
        panel = random_panel(rng, mode, n=9, q=3)
        field = estimate_field(panel)
        assert np.array_equal(field.cov_matrix, field.cov_matrix.T)
        sym = field.cov - field.cov.transpose(1, 0, 3, 2)
        assert np.abs(sym).max() == 0.0
        assert np.abs(field.cov_matrix).max() <= 0.25 + 1e-12


def test_diagonal_variance_identity(rng):
    panel = random_panel(rng, "TCATA", n=8, q=3)
    field = estimate_field(panel)
    expected = field.mean * (1.0 - field.mean)
    assert np.abs(field.variance_diagonal - expected).max() <= 1e-15


def test_cov_view_matches_flat_layout(rng):
    panel = random_panel(rng, "TCATA", n=5, q=3)
    field = estimate_field(panel)
    m = field.m
    for j, l, a, b in [(0, 2, 1, 3), (2, 1, 0, 0), (1, 1, 2, 2)]:
        a, b = a % m, b % m
        assert field.cov[j, l, a, b] == field.cov_matrix[j * m + a, l * m + b]


def test_estimate_field_requires_refining_grid(mirror):
    with pytest.raises(GridError):
        estimate_field(mirror, CellGrid.uniform(3), exact=True)


def test_cell_values_reject_mismatched_horizons():
    space = StateSpace(["A", "B"])
    panel = Panel("TDS", space, [
        PanelItem("s1", "c", CategoricalTrajectory([0.0, 2.0], [{0}]))
    ])
    with pytest.raises(GridError, match="horizon"):
        panel_cell_values(panel, CellGrid.uniform(4), exact=None)


def test_cell_values_check_the_panel_without_the_refinement_mask(monkeypatch):
    def no_mask(panel, grid):
        raise AssertionError("the refinement mask is computed only for exact=True")

    monkeypatch.setattr(catfpca.estimation, "_not_refined", no_mask)
    space = StateSpace(["A", "B"])
    with pytest.raises(ValidationError, match="need at least one trajectory"):
        panel_cell_values(Panel("TDS", space, []), CellGrid.uniform(4))
    items = [PanelItem("s1", "c", CategoricalTrajectory([0.0, 0.3, 1.0], [{0}, {1}])),
             PanelItem("s2", "c", CategoricalTrajectory([0.0, 2.0], [{1}]))]
    with pytest.raises(GridError, match="items with horizon != 1.0: s2/c"):
        panel_cell_values(Panel("TDS", space, items), CellGrid.uniform(4))
    # a grid that does not refine the panel gives cell averages: state A holds 0.05 of 0.25
    Z = panel_cell_values(Panel("TDS", space, items[:1]), CellGrid.uniform(4))
    np.testing.assert_allclose(Z[0, 0], [1.0, 0.2, 0.0, 0.0])


def test_oracle_equivalence_on_random_panels(rng):
    for _ in range(10):
        mode = "TDS" if rng.random() < 0.5 else "TCATA"
        panel = random_panel(rng, mode)
        grid = panel.grid()
        fast = estimate_field(panel, grid)
        slow = oracle_covariance(panel, grid)
        assert np.abs(fast.mean - slow.mean).max() <= 1e-12
        assert np.abs(fast.cov_matrix - slow.cov_matrix).max() <= 1e-12


def test_reference_names_live_in_oracles_only():
    import catfpca.oracles

    names = {"ProbabilityField", "estimate_field", "assemble_operator", "mercer_check",
             "oracle_covariance", "naive_operator_matrix", "jacobi_eigenvalues",
             "TwoStateTruth", "consistency_experiment", "median_errors"}
    assert not names & set(dir(catfpca))
    assert names <= set(catfpca.oracles.__all__)
    assert all(hasattr(catfpca.oracles, name) for name in names)


def test_only_the_cli_imports_the_references():
    """Production modules never import ``oracles``; the CLI's oracle-check is its one user."""
    importers = set()
    for path in Path(catfpca.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [part for alias in node.names for part in alias.name.split(".")]
            else:
                continue
            if "oracles" in parts:
                importers.add(path.stem)
    assert importers == {"cli"}


def test_mean_on_grid_matches_estimate(rng):
    panel = random_panel(rng, "TCATA", n=10, q=3)
    grid = panel.grid()
    assert np.abs(mean_on_grid(panel, grid) - estimate_field(panel, grid).mean).max() <= 1e-15


def per_segment_mean_on_grid(panel, grid):
    """Reference: +-1 per segment and state at its boundary nodes, one item at a time."""
    q, m = panel.space.q, grid.m
    diff = np.zeros((q, m + 1))
    for it in panel.items:
        traj = it.trajectory
        idx = np.searchsorted(grid.nodes, traj.breakpoints)
        for k, subset in enumerate(traj.segments):
            for j in subset:
                diff[j, idx[k]] += 1.0
                diff[j, idx[k + 1]] -= 1.0
    return np.cumsum(diff[:, :-1], axis=1) / panel.n


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_mean_on_grid_equals_per_segment_reference(rng, mode):
    for _ in range(30):
        panel = random_panel(rng, mode, n=int(rng.integers(1, 40)), q=int(rng.integers(2, 7)))
        union = panel.grid()
        for grid in (union, CellGrid(np.union1d(union.nodes, rng.random(10)))):
            got = mean_on_grid(panel, grid)
            want = per_segment_mean_on_grid(panel, grid)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_with_another_horizon_is_rejected_everywhere():
    space = StateSpace(["A", "B"])
    traj = CategoricalTrajectory([0.0, 0.2, 0.5], [{0}, {1}])
    panel = Panel("TDS", space, [PanelItem("s", "c", traj)])
    grid = CellGrid([0.0, 0.2, 0.5, 1.0])  # holds every breakpoint, but ends at 1
    for call in (lambda: panel_cell_values(panel, grid),
                 lambda: mean_on_grid(panel, grid)):
        with pytest.raises(GridError, match="items with horizon != 1.0: s/c"):
            call()
    with pytest.raises(GridError, match="breakpoints are not grid nodes"):
        mean_on_grid(panel, CellGrid([0.0, 0.3, 0.5]))


def test_equal_weights_match_reported_table():
    space = StateSpace([f"S{j}" for j in range(8)])
    panel = Panel("TDS", space, [
        PanelItem("s", "c", CategoricalTrajectory([0.0, 1.0], [{0}]))
    ])
    w = field_weights(estimate_field(panel), "equal")
    assert np.allclose(w.weights, 0.125)
    # the published table rounds the normalized equal weights to 0.12
    assert np.allclose(np.round(w.normalized_weights, 2), 0.12)


def test_trace_weights_constant_half_state():
    panel = constant_panel([0, 1])  # p_A = p_B = 0.5 everywhere
    field = estimate_field(panel)
    w = field_weights(field, "trace_normalizing")
    assert np.allclose(w.weights, 4.0)  # integral of 0.25 over [0,1]
    # unit-trace property: w_j * integral p(1-p) = 1 exactly
    integ = (field.mean * (1 - field.mean)) @ field.grid.lengths
    assert np.abs(w.weights * integ - 1.0).max() == 0.0


def test_trace_weights_match_oracle_integrals(rng):
    panel = random_panel(rng, "TCATA", n=9, q=3)
    field = estimate_field(panel)
    try:
        w = field_weights(field, "trace_normalizing")
    except ValidationError:
        return  # degenerate state drawn; covered by the error test below
    integ = (field.mean * (1 - field.mean)) @ field.grid.lengths
    assert np.abs(w.weights * integ - 1.0).max() <= 1e-15


def test_degenerate_state_raises_with_suggestion():
    panel = constant_panel([0, 0])  # state B never observed
    field = estimate_field(panel)
    with pytest.raises(ValidationError, match="B.*equal"):
        field_weights(field, "trace_normalizing")
    with pytest.raises(ValidationError, match="B"):
        field_weights(field, "inverse_mean_probability")
    # equal weights tolerate degenerate states
    assert field_weights(field, "equal").scheme == "equal"


def test_inverse_mean_probability_weights():
    panel = constant_panel([0, 1])
    w = field_weights(estimate_field(panel), "inverse_mean_probability")
    assert np.allclose(w.weights, 2.0)  # 1 / integral of 0.5


def test_weight_scheme_validation():
    field = estimate_field(constant_panel([0, 1]))
    for scheme in WEIGHT_SCHEMES:
        assert field_weights(field, scheme).scheme == scheme
    for scheme in ("bogus", "trace", "Equal"):
        with pytest.raises(ValidationError) as refused:
            field_weights(field, scheme)
        assert str(refused.value) == (f"unknown weight scheme {scheme!r}; choose from "
                                      "('equal', 'trace_normalizing', 'inverse_mean_probability')")
    with pytest.raises(ValidationError):
        WeightScheme("equal", np.array([0.5, -0.5]))


def test_selection_count_tds_is_one(rng):
    panel = random_panel(rng, "TDS", n=6, q=3)
    grid, curve = selection_count_curve(estimate_field(panel))
    assert np.allclose(curve, 1.0, atol=1e-15)
    curve2 = mean_on_grid(panel, panel.grid()).sum(axis=0)
    assert np.allclose(curve2, 1.0, atol=1e-15)


def test_selection_count_empty_cells_are_zero():
    space = StateSpace(["A", "B"])
    traj = CategoricalTrajectory([0.0, 0.4, 0.7, 1.0], [set(), {0, 1}, set()])
    panel = Panel("TCATA", space, [PanelItem("s", "c", traj)])
    grid, curve = selection_count_curve(estimate_field(panel))
    assert np.array_equal(curve, [0.0, 2.0, 0.0])


def test_cell_averages_project_exactly():
    space = StateSpace(["A", "B"])
    traj = CategoricalTrajectory([0.0, 0.25, 1.0], [{0}, {1}])
    panel = Panel("TDS", space, [PanelItem("s", "c", traj)])
    Z = panel_cell_values(panel, CellGrid.uniform(2), exact=None)
    # first half-cell holds state A for 0.25/0.5 of its length
    assert np.allclose(Z[0], [[0.5, 0.0], [0.5, 1.0]])

