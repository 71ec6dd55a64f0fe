import numpy as np
import pytest

from catfpca import (
    ProcessSpec,
    SojournSpec,
    TwoStateTruth,
    ValidationError,
    consistency_experiment,
    mean_on_grid,
    simulate_panel,
    union_grid,
)
from catfpca.oracles import jacobi_eigenvalues
from catfpca.simulate import median_errors


def two_state_spec(rate_a=1.0, rate_b=1.0, p0=1.0, horizon=1.0):
    return ProcessSpec(
        states=("on", "off"),
        horizon=horizon,
        initial=np.array([p0, 1.0 - p0]),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        sojourn=(SojournSpec("exponential", rate=rate_a),
                 SojournSpec("exponential", rate=rate_b)),
    )


def tcata_spec():
    renewal = {"off": SojournSpec("uniform", low=0.05, high=0.4),
               "on": SojournSpec("exponential", rate=3.0)}
    return ProcessSpec(
        states=("A", "B"),
        horizon=1.0,
        initial=np.array([1.0, 0.0]),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        sojourn=(SojournSpec("exponential", rate=1.0),) * 2,
        tcata=(renewal, renewal),
    )


def test_single_state_spec_is_constant():
    spec = ProcessSpec(
        states=("only",), horizon=2.0, initial=np.array([1.0]),
        transition=np.zeros((1, 1)), sojourn=(SojournSpec("exponential", rate=1.0),),
    )
    panel = simulate_panel(spec, 5, seed=3)
    for it in panel.items:
        assert it.trajectory.segments == (frozenset({0}),)
        assert it.trajectory.horizon == 2.0


def test_seeded_determinism():
    spec = two_state_spec()
    p1 = simulate_panel(spec, 20, seed=11)
    p2 = simulate_panel(spec, 20, seed=11)
    for a, b in zip(p1.items, p2.items):
        assert a.trajectory == b.trajectory
    p3 = simulate_panel(spec, 20, seed=12)
    assert any(a.trajectory != b.trajectory for a, b in zip(p1.items, p3.items))


def test_trajectory_seeds_do_not_depend_on_panel_size():
    spec = two_state_spec()
    small = simulate_panel(spec, 3, seed=5)
    large = simulate_panel(spec, 10, seed=5)
    for a, b in zip(small.items, large.items):
        assert a.trajectory == b.trajectory


def test_simulated_tds_satisfies_core_invariants():
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = int(rng.integers(2, 5))
        trans = rng.random((q, q))
        np.fill_diagonal(trans, 0.0)
        trans /= trans.sum(axis=1, keepdims=True)
        init = rng.random(q)
        init /= init.sum()
        spec = ProcessSpec(
            states=tuple(f"S{j}" for j in range(q)),
            horizon=1.0, initial=init, transition=trans,
            sojourn=tuple(SojournSpec("exponential", rate=float(rng.uniform(0.5, 4)))
                          for _ in range(q)),
        )
        panel = simulate_panel(spec, 8, seed=int(rng.integers(0, 2 ** 31)))
        for it in panel.items:
            traj = it.trajectory
            assert traj.is_tds()
            assert traj.breakpoints[0] == 0.0 and traj.breakpoints[-1] == 1.0
            for k in range(1, traj.n_segments):
                assert traj.segments[k] != traj.segments[k - 1]


def test_symmetric_chain_occupancy_near_half():
    spec = two_state_spec(p0=0.5)  # stationary start
    panel = simulate_panel(spec, 10_000, seed=2)
    grid = union_grid(panel.trajectories)
    occupancy = mean_on_grid(panel, grid)[0] @ grid.lengths
    assert abs(occupancy - 0.5) < 0.02


def test_tcata_simulation_modes_and_latency():
    panel = simulate_panel(tcata_spec(), 30, seed=9)
    assert panel.mode == "TCATA"
    assert any(len(s) > 1 for it in panel.items for s in it.trajectory.segments)
    for it in panel.items:
        assert it.trajectory.segments[0] == frozenset()  # renewal starts off


def test_spec_validation():
    with pytest.raises(ValidationError, match="diagonal"):
        ProcessSpec(("A", "B"), 1.0, np.array([1.0, 0.0]),
                    np.array([[0.5, 0.5], [1.0, 0.0]]),
                    (SojournSpec("exponential", rate=1.0),) * 2)
    with pytest.raises(ValidationError, match="sum to 1"):
        ProcessSpec(("A", "B"), 1.0, np.array([0.9, 0.0]),
                    np.array([[0.0, 1.0], [1.0, 0.0]]),
                    (SojournSpec("exponential", rate=1.0),) * 2)
    with pytest.raises(ValidationError, match="rate"):
        SojournSpec("exponential", rate=0.0)
    with pytest.raises(ValidationError, match="low < high"):
        SojournSpec("uniform", low=0.5, high=0.5)
    with pytest.raises(ValidationError):
        simulate_panel(two_state_spec(), 0, seed=1)


def test_spec_json_round_trip():
    for spec in (two_state_spec(1.5, 0.5, 0.25), tcata_spec()):
        again = ProcessSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


def test_two_state_truth_formulas():
    truth = TwoStateTruth(1.0, 1.0, p0=1.0)
    t = np.linspace(0, 1, 7)
    np.testing.assert_allclose(truth.p(0, t), 0.5 * (1 + np.exp(-2 * t)), rtol=1e-14)
    # joint symmetry and the diagonal variance identity
    s, u = 0.3, 0.7
    for j in (0, 1):
        for l in (0, 1):
            assert truth.gamma(j, l, s, u) == pytest.approx(truth.gamma(l, j, u, s), rel=1e-12)
    assert truth.gamma(0, 0, s, s) == pytest.approx(truth.p(0, s) * (1 - truth.p(0, s)), rel=1e-12)
    # joint probabilities over states sum to the marginal
    total = truth.joint(0, 0, s, u) + truth.joint(0, 1, s, u)
    assert total == pytest.approx(truth.p(0, s), rel=1e-12)


def test_stationary_kernel_is_exponential_in_lag():
    # at stationarity the symmetric chain's kernel is 0.25 * exp(-2|s-t|)
    truth = TwoStateTruth(1.0, 1.0, p0=0.5)
    s = np.array([0.1, 0.4, 0.9])
    t = np.array([0.7, 0.2, 0.9])
    want = 0.25 * np.exp(-2.0 * np.abs(s - t))
    np.testing.assert_allclose(truth.gamma(0, 0, s, t), want, rtol=1e-13)
    np.testing.assert_allclose(truth.gamma(0, 1, s, t), -want, rtol=1e-13)


def test_mean_error_sq_against_quadrature():
    truth = TwoStateTruth(1.0, 1.0, p0=1.0)
    from catfpca import CellGrid

    grid = CellGrid([0.0, 0.25, 0.6, 1.0])
    p_hat = np.array([[0.9, 0.5, 0.4], [0.1, 0.5, 0.6]])
    exact = truth.mean_error_sq(grid, p_hat, np.array([0.5, 0.5]))
    # midpoint-rule quadrature oracle on a very fine mesh
    tt = np.linspace(0, 1, 200_001)[:-1] + 0.5 / 200_000
    cells = np.searchsorted(grid.nodes, tt, side="right") - 1
    integrand = 0.5 * (p_hat[0, cells] - truth.p(0, tt)) ** 2 \
        + 0.5 * (p_hat[1, cells] - truth.p(1, tt)) ** 2
    assert exact == pytest.approx(integrand.mean(), abs=1e-9)


def test_empirical_mean_approaches_truth():
    spec = two_state_spec()
    truth = TwoStateTruth.from_spec(spec)
    panel = simulate_panel(spec, 20_000, seed=4)
    grid = union_grid(panel.trajectories)
    p_hat = mean_on_grid(panel, grid)
    err = np.sqrt(truth.mean_error_sq(grid, p_hat, np.array([0.5, 0.5])))
    assert err < 0.02


def test_consistency_errors_decrease():
    rows = consistency_experiment(two_state_spec(), [40, 160], seed=1, replicates=5)
    med = median_errors(rows)
    assert med[160] < med[40]


def test_consistency_kernel_error_column():
    rows = consistency_experiment(
        two_state_spec(), [60], seed=2, replicates=2, kernel_cells=12
    )
    assert all(row["kernel_error"] > 0 for row in rows)


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 17, 40):
        A = rng.standard_normal((k, k))
        A = A @ A.T
        got = jacobi_eigenvalues(A)
        want = np.sort(np.linalg.eigvalsh(A))[::-1]
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-10 * scale
    assert np.array_equal(jacobi_eigenvalues(np.zeros((4, 4))), np.zeros(4))
