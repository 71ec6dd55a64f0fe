import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catfpca import (
    CategoricalTrajectory,
    CellGrid,
    DomainError,
    Panel,
    PanelItem,
    StateSpace,
    ValidationError,
    apply_protocol_normalization,
    panel_cell_values,
    union_grid,
)

from conftest import fuzz, random_tds_trajectory


def test_state_space_rejects_duplicates_and_empty():
    with pytest.raises(ValidationError):
        StateSpace(["A", "A"])
    with pytest.raises(ValidationError):
        StateSpace([])
    with pytest.raises(ValidationError):
        StateSpace(["A", ""])
    sp = StateSpace(["Acid", "Sweet"])
    assert sp.q == 2 and sp.index("Sweet") == 1


def indicator_values(traj, space):
    """(q, m) cell values of ``traj`` as the only item of a panel, on its own breakpoints."""
    panel = Panel("TCATA", space, [PanelItem("s", "c", traj)])
    return panel_cell_values(panel, panel.grid())[0]


def test_constant_trajectory_indicators():
    sp = StateSpace(["S1", "S2"])
    traj = CategoricalTrajectory([0.0, 1.0], [{0}])
    assert np.array_equal(indicator_values(traj, sp), [[1.0], [0.0]])


def test_two_segment_indicators():
    sp = StateSpace(["S1", "S2"])
    traj = CategoricalTrajectory([0.0, 0.5, 1.0], [{0}, {1}])
    assert np.array_equal(indicator_values(traj, sp), [[1.0, 0.0], [0.0, 1.0]])


def test_tcata_subset_indicators():
    sp = StateSpace(["S1", "S2", "S3"])
    traj = CategoricalTrajectory([0.0, 0.3, 1.0], [{0, 1}, set()])
    assert np.array_equal(indicator_values(traj, sp), [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


def test_to_indicators_unknown_state_index():
    # the 0/1 encoding is built from a panel, whose constructor rejects the bad index
    sp = StateSpace(["S1", "S2"])
    traj = CategoricalTrajectory([0.0, 0.4, 1.0], [{0}, {5}])
    with pytest.raises(ValidationError, match="state index out of range"):
        Panel("TDS", sp, [PanelItem("s", "c", traj)])


def test_evaluate_conventions():
    traj = CategoricalTrajectory([0.0, 0.5, 1.0], [{0}, {1}])
    assert traj.evaluate(0.5) == frozenset({1})  # right-continuous at the jump
    assert traj.evaluate(0.0) == frozenset({0})
    assert traj.evaluate(1.0) == frozenset({1})  # horizon takes the last segment
    with pytest.raises(DomainError):
        traj.evaluate(-0.01)
    with pytest.raises(DomainError):
        traj.evaluate(1.01)


def test_canonical_merge_and_zero_length_rejection():
    traj = CategoricalTrajectory([0.0, 0.3, 0.6, 1.0], [{0}, {0}, {1}])
    assert traj.n_segments == 2
    assert np.array_equal(traj.breakpoints, [0.0, 0.6, 1.0])
    with pytest.raises(ValidationError):
        CategoricalTrajectory([0.0, 0.5, 0.5, 1.0], [{0}, {1}, {0}])
    with pytest.raises(ValidationError):
        CategoricalTrajectory([0.1, 1.0], [{0}])  # must start at 0


def normalized(traj, mode="TCATA", report=None):
    """``traj`` normalized to the unit horizon as the only item of a panel, with no tick rounding."""
    panel = Panel(mode, StateSpace(["S0", "S1", "S2"]), [PanelItem("s", "c", traj)])
    return apply_protocol_normalization(panel, tick=0.0, report=report).items[0].trajectory


@pytest.mark.parametrize(
    "breaks,horizon,expected",
    [
        ([0.0, 3.0, 10.0], 10.0, [0.0, 0.3, 1.0]),
        ([0.0, 1.0], 1.0, [0.0, 1.0]),
        ([0.0, 2.5, 5.0], 5.0, [0.0, 0.5, 1.0]),
    ],
)
def test_normalize_time(breaks, horizon, expected):
    segs = [{k % 2} for k in range(len(breaks) - 1)]
    traj = CategoricalTrajectory(breaks, segs)
    assert traj.horizon == horizon
    out = normalized(traj)
    assert out.horizon == 1.0
    assert np.allclose(out.breakpoints, expected, rtol=0, atol=1e-15)
    assert out.segments == traj.segments


def test_union_grid_examples():
    t1 = CategoricalTrajectory([0.0, 0.5, 1.0], [{0}, {1}])
    t2 = CategoricalTrajectory([0.0, 0.3, 1.0], [{1}, {0}])
    g = union_grid([t1, t2])
    assert np.array_equal(g.nodes, [0.0, 0.3, 0.5, 1.0])
    assert np.array_equal(union_grid([t1]).nodes, t1.breakpoints)
    assert np.array_equal(union_grid([t1, t1, t1]).nodes, t1.breakpoints)


@pytest.mark.parametrize("seed", range(5))
def test_union_grid_nodes_are_np_unique_bit_for_bit(seed):
    # off-lattice breakpoints shared between items, and items starting at -0.0 and at 0.0
    rng = np.random.default_rng(seed)
    pool = np.sort(rng.random(12))[1:-1]
    trajectories = []
    for i in range(int(rng.integers(1, 30))):
        interior = np.sort(rng.choice(pool, size=int(rng.integers(0, 6)), replace=False))
        start = -0.0 if rng.random() < 0.5 else 0.0
        breaks = np.concatenate([[start], interior, [1.0]])
        segments = [{k % 2} for k in range(breaks.size - 1)]
        trajectories.append(CategoricalTrajectory(breaks, segments))
    expected = np.unique(np.concatenate([t.breakpoints for t in trajectories]))
    assert union_grid(trajectories).nodes.tobytes() == expected.tobytes()


def test_union_grid_horizon_mismatch():
    t1 = CategoricalTrajectory([0.0, 1.0], [{0}])
    t2 = CategoricalTrajectory([0.0, 2.0], [{0}])
    with pytest.raises(ValidationError, match="horizon"):
        union_grid([t1, t2])


def test_cell_grid():
    g = CellGrid.uniform(4, 2.0)
    assert g.m == 4
    assert np.isclose(g.lengths.sum(), 2.0)
    assert np.allclose(g.midpoints, [0.25, 0.75, 1.25, 1.75])
    with pytest.raises(ValidationError):
        CellGrid([0.0, 0.5, 0.5, 1.0])


def test_shift_origin():
    # TDS normalization restricts to [t0, T] from the first click t0, then rescales by T - t0
    from catfpca import IngestReport

    traj = CategoricalTrajectory([0.0, 2.0, 5.0, 12.0], [set(), {0}, {1}])
    report = IngestReport(mode="TDS")
    shifted = normalized(traj, "TDS", report)
    assert np.allclose(shifted.breakpoints * 10.0, [0.0, 3.0, 10.0])
    assert shifted.segments == (frozenset({0}), frozenset({1}))
    assert report.latency == {"s/c": 2.0 / 12.0}


# -- properties --------------------------------------------------------------

lattice_points = st.sets(st.integers(1, 99), min_size=0, max_size=6)


@st.composite
def tds_trajectories(draw, q=3):
    interior = sorted(draw(lattice_points))
    breaks = [0.0] + [p / 100.0 for p in interior] + [1.0]
    states = [draw(st.integers(0, q - 1)) for _ in range(len(breaks) - 1)]
    return CategoricalTrajectory(breaks, [{s} for s in states]), q


@fuzz(80)
@given(tds_trajectories())
def test_indicator_round_trip_property(case):
    traj, q = case
    sp = StateSpace([f"S{j}" for j in range(q)])
    values = indicator_values(traj, sp)
    assert np.array_equal(values.sum(axis=0), np.ones(traj.n_segments))
    back = CategoricalTrajectory(traj.breakpoints, [{int(j)} for j in values.argmax(axis=0)])
    assert back.segments == traj.segments
    assert np.array_equal(back.breakpoints, traj.breakpoints)


@fuzz(80)
@given(tds_trajectories(), st.floats(0.5, 40.0))
def test_normalize_preserves_proportions(case, scale):
    traj, q = case
    stretched = CategoricalTrajectory(traj.breakpoints * scale, traj.segments)
    out = normalized(stretched, "TDS")
    assert out.horizon == 1.0
    assert out.segments == stretched.segments
    np.testing.assert_allclose(
        np.diff(out.breakpoints),
        np.diff(stretched.breakpoints) / stretched.horizon,
        rtol=1e-12,
    )


@fuzz(50)
@given(st.lists(tds_trajectories(), min_size=1, max_size=6))
def test_union_grid_refines_inputs(cases):
    sp = StateSpace(["S0", "S1", "S2"])
    trajs = [traj for traj, _ in cases]
    grid = union_grid(trajs)
    for traj in trajs:
        assert traj.horizon == grid.horizon
        assert np.isin(traj.breakpoints, grid.nodes).all()
    # on a refining grid the cell values are exactly the 0/1 indicator values
    panel = Panel("TDS", sp, [PanelItem(f"s{i}", "c", traj) for i, traj in enumerate(trajs)])
    indicator_values = np.array([
        [[float(j in traj.evaluate(t)) for t in grid.midpoints] for j in range(sp.q)]
        for traj in trajs
    ])
    np.testing.assert_array_equal(panel_cell_values(panel, panel.grid()), indicator_values)


def test_random_generator_produces_canonical_tds(rng):
    for _ in range(50):
        traj = random_tds_trajectory(rng, q=4)
        assert all(len(s) == 1 for s in traj.segments)
        for k in range(1, traj.n_segments):
            assert traj.segments[k] != traj.segments[k - 1]
        assert traj.breakpoints[0] == 0.0 and traj.breakpoints[-1] == 1.0
