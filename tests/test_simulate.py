import numpy as np
import pytest

from catfpca import (
    CategoricalTrajectory,
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
from catfpca.simulate import _draw_categorical, median_errors


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


# --- reference: the per-item TDS draw that the interval overlay replaces ---

def ref_simulate_tds(spec, rng, vanished=None):
    """One TDS trajectory built sojourn by sojourn; ``vanished`` collects the dropped ones."""
    T = spec.horizon
    init_cdf = np.cumsum(spec.initial)
    trans_cdf = np.cumsum(spec.transition, axis=1)
    state = _draw_categorical(rng, init_cdf)
    breaks = [0.0]
    states = []
    t = 0.0
    while True:
        s = spec.sojourn[state].draw(rng)
        t_next = t + s
        if t_next >= T or spec.q == 1:
            breaks.append(T)
            states.append(frozenset([state]))
            break
        if t_next > breaks[-1]:  # guard against zero-length sojourns
            breaks.append(t_next)
            states.append(frozenset([state]))
        elif vanished is not None:
            vanished.append(t_next)
        t = t_next
        state = _draw_categorical(rng, trans_cdf[state])
    return CategoricalTrajectory(np.array(breaks), states)


def three_state_spec(sojourn, horizon=1.0):
    return ProcessSpec(
        states=("A", "B", "C"), horizon=horizon, initial=np.array([0.2, 0.3, 0.5]),
        transition=np.array([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.9, 0.1, 0.0]]),
        sojourn=sojourn,
    )


TDS_SPECS = {
    "two-state": two_state_spec(3.0, 0.7, p0=0.4, horizon=2.0),
    "single-state": ProcessSpec(
        states=("only",), horizon=1.0, initial=np.array([1.0]),
        transition=np.zeros((1, 1)), sojourn=(SojournSpec("exponential", rate=5.0),)),
    "uniform": three_state_spec((SojournSpec("uniform", low=0.01, high=0.3),
                                 SojournSpec("exponential", rate=5.0),
                                 SojournSpec("uniform", low=0.1, high=0.2))),
    # state A blips for about 1e-7 at times of 1e8 to 1e9, where doubles are 1.5e-8 to
    # 1.2e-7 apart: some of its sojourns are too short to move the time at all
    "blips": three_state_spec((SojournSpec("exponential", rate=1e7),
                               SojournSpec("exponential", rate=1e-8),
                               SojournSpec("exponential", rate=3e-9)), horizon=1e9),
}


@pytest.mark.parametrize("name", sorted(TDS_SPECS))
def test_tds_panels_equal_the_per_item_reference(name):
    spec = TDS_SPECS[name]
    for seed in (0, 1, 7, 12345):
        vanished = []
        ref = [ref_simulate_tds(spec, np.random.default_rng(np.random.SeedSequence([seed, i])),
                                vanished) for i in range(200)]
        panel = simulate_panel(spec, 200, seed)
        assert [(t.breakpoints.tobytes(), t.segments) for t in panel.trajectories] == [
            (t.breakpoints.tobytes(), t.segments) for t in ref]
        if name == "blips":
            assert vanished  # zero-length sojourns, and real ones far shorter than the horizon
            assert any(np.diff(t.breakpoints).min() < 1e-6 for t in ref)


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
