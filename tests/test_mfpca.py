import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catfpca
from catfpca import (
    CategoricalTrajectory,
    CellGrid,
    DomainError,
    NumericalError,
    Panel,
    PanelItem,
    StateSpace,
    compute_weights,
    panel_cell_values,
    reconstruct,
)
from catfpca.estimation import WeightScheme
from catfpca.mfpca import _weight_diag, eigendecompose, importance, run_mfpca
from catfpca.oracles import ProbabilityField, assemble_operator, estimate_field, mercer_check

from conftest import mirror_panel, random_panel, traced_peak


def h_gram(result):
    """Gram matrix of the eigenfunctions under the weighted inner product."""
    R = result.R
    d = _weight_diag(result.weights, result.grid)
    P = result.eigenfunctions.reshape(R, -1)
    return (P * d[None, :]) @ P.T


def mean_residual_sq(panel, result, k):
    """Empirical mean squared H-norm of the rank-k reconstruction residual."""
    Z = panel_cell_values(panel, result.grid)
    d = _weight_diag(result.weights, result.grid)
    total = 0.0
    for i in range(panel.n):
        resid = (reconstruct(result, i, k) - Z[i]).ravel()
        total += float(resid @ (d * resid))
    return total / panel.n


# -- hand-computed fixture ----------------------------------------------------

def test_mirror_panel_full_decomposition(mirror):
    result = run_mfpca(mirror)
    assert result.R == 1
    assert result.eigenvalues[0] == pytest.approx(0.25, abs=1e-14)
    assert np.sort(result.scores[:, 0]) == pytest.approx([-0.5, 0.5], abs=1e-12)
    assert result.importance[0] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert result.variance_proportions[0] == pytest.approx(1.0, abs=1e-12)
    assert mean_residual_sq(mirror, result, 1) <= 1e-20
    assert mercer_check(result, estimate_field(mirror, result.grid, exact=None)) <= 1e-10


def test_zero_kernel_single_sample():
    space = StateSpace(["A", "B"])
    from catfpca import CategoricalTrajectory, Panel, PanelItem

    panel = Panel("TDS", space, [
        PanelItem("s", "c", CategoricalTrajectory([0.0, 0.5, 1.0], [{0}, {1}]))
    ])
    field = estimate_field(panel)
    S = assemble_operator(field, WeightScheme.equal(2))
    assert np.all(S == 0.0)
    result = run_mfpca(panel)
    assert result.R == 0
    assert result.scores.shape == (1, 0)


def test_synthetic_identity_kernel_gives_diagonal_eigenvalues():
    # G = I on a 3-cell grid with q = 2: S = D, eigenvalues are D's entries
    grid = CellGrid([0.0, 0.2, 0.7, 1.0])
    space = StateSpace(["A", "B"])
    qm = 6
    field = ProbabilityField(grid, space, np.full((2, 3), 0.5), np.eye(qm), 4, "TDS")
    weights = WeightScheme("equal", np.array([0.25, 0.75]))
    S = assemble_operator(field, weights)
    d = _weight_diag(weights, grid)
    assert np.allclose(S, np.diag(d), atol=1e-15)
    # the n = 2*q*m centred rows of A = sqrt(q*m) [D^{1/2}; -D^{1/2}] have A^T A / n = S
    A = np.sqrt(qm) * np.vstack([np.diag(np.sqrt(d)), -np.diag(np.sqrt(d))])
    evals, phis, _ = eigendecompose(A, weights, grid)
    assert np.allclose(evals, np.sort(d)[::-1], atol=1e-15)


def test_weight_scaling_equivariance(rng):
    panel = random_panel(rng, "TCATA", n=8, q=3)
    base = run_mfpca(panel)
    scaled_weights = WeightScheme(base.weights.scheme, base.weights.weights * 7.5)
    scaled = run_mfpca(panel, weights=scaled_weights)
    np.testing.assert_allclose(scaled.eigenvalues, 7.5 * base.eigenvalues, rtol=1e-10)
    np.testing.assert_allclose(
        scaled.variance_proportions, base.variance_proportions, atol=1e-10
    )
    np.testing.assert_allclose(scaled.importance, base.importance, atol=1e-10)
    # score rankings along each component are preserved
    for r in range(base.R):
        assert np.array_equal(
            np.argsort(scaled.scores[:, r]), np.argsort(base.scores[:, r])
        )


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_spectral_invariants_random_panels(rng, mode):
    for _ in range(5):
        panel = random_panel(rng, mode)
        result = run_mfpca(panel)
        if result.R == 0:
            continue
        field = estimate_field(panel, result.grid, exact=None)
        assert np.all(np.diff(result.eigenvalues) <= 0) and result.eigenvalues[-1] >= 0
        gram = h_gram(result)
        assert np.abs(gram - np.eye(result.R)).max() <= 1e-8
        # trace identity against the weighted integrated diagonal
        diag = (field.variance_diagonal * field.grid.lengths[None, :]).sum(axis=1)
        trace = float(result.weights.weights @ diag)
        full_sum = result.total_variance
        assert abs(full_sum - trace) <= 1e-8 * max(trace, 1e-30)
        # score variance under the 1/n convention equals the eigenvalues
        var = (result.scores ** 2).mean(axis=0) - result.scores.mean(axis=0) ** 2
        assert np.abs(var - result.eigenvalues).max() <= 1e-8 * max(result.eigenvalues[0], 1e-30)
        assert np.abs(result.scores.mean(axis=0)).max() <= 1e-10
        assert np.abs(result.importance.sum(axis=1) - 1.0).max() <= 1e-10
        if mode == "TDS":
            assert full_sum <= result.weights.weights.max() * field.grid.horizon + 1e-12


def test_svd_eigenvalues_match_dense_operator(rng):
    # eigh of the smaller Gram matrix of the weighted centred cell values
    # (primal or dual) and eigh of the assembled operator S = D^{1/2} G D^{1/2}
    # give the same spectrum
    for mode in ("TDS", "TCATA") * 10:
        panel = random_panel(rng, mode)
        result = run_mfpca(panel)
        field = estimate_field(panel, result.grid, exact=None)
        dense = np.linalg.eigvalsh(assemble_operator(field, result.weights))[::-1]
        svd = np.zeros_like(dense)
        svd[:result.R] = result.eigenvalues
        assert np.abs(svd - dense).max() <= 1e-12 * max(dense[0], 1e-30)


def test_parseval_residuals(rng):
    panel = random_panel(rng, "TCATA", n=6, q=3)
    result = run_mfpca(panel)
    for k in (0, 1, min(3, result.R)):
        expected = result.total_variance - result.eigenvalues[:k].sum()
        got = mean_residual_sq(panel, result, k)
        assert abs(got - expected) <= 1e-8 * max(result.total_variance, 1e-30)


def test_reconstruct_contracts(mirror):
    result = run_mfpca(mirror)
    assert np.array_equal(reconstruct(result, 0, 0), estimate_field(mirror).mean)
    with pytest.raises(DomainError):
        reconstruct(result, 0, result.R + 1)
    with pytest.raises(DomainError):
        reconstruct(result, 99, 0)


def test_mercer_deviation_decreases_with_rank(rng):
    panel = random_panel(rng, "TDS", n=8, q=3)
    full = run_mfpca(panel)
    field = estimate_field(panel, full.grid, exact=None)
    trace = full.total_variance
    assert mercer_check(full, field) <= 1e-8 * max(trace, 1e-30)
    devs = []
    for k in (1, 2, full.R):
        truncated = dataclasses.replace(full, eigenvalues=full.eigenvalues[:k],
                                        eigenfunctions=full.eigenfunctions[:k])
        devs.append(mercer_check(truncated, field))
    assert devs[0] >= devs[1] >= devs[2]


def test_sign_convention_and_determinism(rng):
    panel = random_panel(rng, "TCATA", n=7, q=3)
    r1 = run_mfpca(panel)
    r2 = run_mfpca(panel)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenfunctions, r2.eigenfunctions)
    assert np.array_equal(r1.scores, r2.scores)
    for r in range(r1.R):
        flat = r1.eigenfunctions[r].ravel()
        size = np.abs(flat)
        assert flat[np.argmax(size >= size.max() * (1 - 1e-10))] > 0


def test_sign_of_a_component_with_tied_extremes_survives_last_bit_noise():
    # a rank-1 dual panel: two TCATA paths, three times each; the component's largest
    # |entries| tie, with both signs, on the cells where the two paths differ in one state
    paths = [CategoricalTrajectory([0.0, 0.25, 0.75, 1.0], [{0}, {0, 1}, set()]),
             CategoricalTrajectory([0.0, 0.5, 1.0], [{1}, {0}])]
    panel = Panel("TCATA", StateSpace(["A", "B"]),
                  [PanelItem(f"s{i}", "p", paths[i % 2]) for i in range(6)])
    grid, weights = CellGrid.uniform(64), WeightScheme.equal(2)
    Z = panel_cell_values(panel, grid).reshape(panel.n, -1)
    A = (Z - Z.mean(axis=0)) * np.sqrt(_weight_diag(weights, grid))
    evals, phis, scores = eigendecompose(A, weights, grid)
    size = np.abs(phis[0])
    tied = phis[0][size >= size.max() * (1 - 1e-10)]
    assert evals.size == 1 and tied.min() < 0 < tied.max()
    rng = np.random.default_rng(5)
    for _ in range(16):  # a few ulps on every entry move the tied entries by a few ulps
        nudged = A * (1 + rng.integers(-4, 5, A.shape) * np.finfo(float).eps)
        _, phis2, scores2 = eigendecompose(nudged, weights, grid)
        assert np.abs(phis2 - phis).max() < 1e-12 and np.abs(scores2 - scores).max() < 1e-12


def test_importance_single_state_support():
    grid = CellGrid.uniform(4)
    weights = WeightScheme("equal", np.array([0.5, 0.5]))
    phi = np.zeros((1, 2, 4))
    phi[0, 1, :] = np.sqrt(2.0)  # unit H-norm, supported on state 2 only
    imp = importance(weights, grid, phi)
    assert np.allclose(imp, [[0.0, 1.0]], atol=1e-15)


def test_assemble_operator_error_paths():
    grid = CellGrid.uniform(2)
    space = StateSpace(["A", "B"])
    asym = np.zeros((4, 4))
    asym[0, 1] = 1e-3
    field = ProbabilityField(grid, space, np.full((2, 2), 0.5), asym, 3, "TDS")
    with pytest.raises(NumericalError, match="asymmetry"):
        assemble_operator(field, WeightScheme.equal(2))


def test_retained_count_is_capped_by_sample_size(rng):
    panel = random_panel(rng, "TCATA", n=4, q=3)
    result = run_mfpca(panel)
    assert result.R <= panel.n - 1


def test_components_for_fraction(rng):
    result = dataclasses.replace(run_mfpca(random_panel(rng, "TDS", n=5, q=2)),
                                 eigenvalues=np.array([0.5, 0.25, 0.125]), total_variance=1.0)
    assert [result.components_for_fraction(f) for f in (0.5, 0.75, 0.7501, 0.875)] == [1, 2, 3, 3]
    assert result.components_for_fraction(1.0) == 3  # never reached: every retained component
    assert dataclasses.replace(result, total_variance=0.0).components_for_fraction(0.5) == 0
    for fraction in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(DomainError, match="variance fraction must be in"):
            result.components_for_fraction(fraction)


def spectral_rows(rng, n, q, m, lams):
    """(n, q*m) rows A with A^T A / n = V diag(lams) V^T, V random orthonormal."""
    U, _ = np.linalg.qr(rng.standard_normal((n, len(lams))))
    V, _ = np.linalg.qr(rng.standard_normal((q * m, len(lams))))
    return (U * np.sqrt(n * np.asarray(lams))) @ V.T


@pytest.mark.parametrize("n, q, m", [(12, 2, 3), (6, 3, 4)])  # primal, dual
def test_eigendecompose_keeps_eigenvalues_above_the_relative_cut(rng, n, q, m):
    # 1e-10 of lambda_1 is above the 1e-12 cut and 1e-14 is below it
    A = spectral_rows(rng, n, q, m, [2.0, 2e-3, 2e-10, 2e-14])
    weights = WeightScheme("equal", np.ones(q))
    evals, phis, scores = eigendecompose(A, weights, CellGrid.uniform(m))
    assert evals == pytest.approx([2.0, 2e-3, 2e-10], rel=1e-5)
    assert phis.shape == (3, q, m)
    assert scores.shape == (n, 3)


def test_eigendecompose_keeps_at_most_n_minus_one_components(rng):
    # uncentred rows of full rank n: n positive eigenvalues, n - 1 retained
    n, q, m = 5, 2, 4
    A = spectral_rows(rng, n, q, m, [5.0, 4.0, 3.0, 2.0, 1.0])
    evals, phis, scores = eigendecompose(A, WeightScheme("equal", np.ones(q)),
                                         CellGrid.uniform(m))
    assert evals == pytest.approx([5.0, 4.0, 3.0, 2.0], rel=1e-12)
    assert phis.shape == (n - 1, q, m)
    assert scores.shape == (n, n - 1)


def test_default_grid_is_the_union_grid_past_512_cells(rng):
    panel = random_panel(rng, "TCATA", n=600, q=2, lattice=1000)
    assert panel.grid().m > 512
    assert run_mfpca(panel).grid == panel.grid()


def test_spectral_identities_hold_on_a_coarse_uniform_grid(rng):
    panel = random_panel(rng, "TCATA", n=10, q=3)
    assert panel.grid().m > 8
    result = run_mfpca(panel, grid=CellGrid.uniform(8))
    assert result.grid.m == 8
    # spectral identities survive the projection onto the coarse grid
    var = (result.scores ** 2).mean(axis=0) - result.scores.mean(axis=0) ** 2
    assert np.abs(var - result.eigenvalues).max() <= 1e-10


def test_trace_normalizing_gives_unit_traces_on_a_coarse_grid(rng):
    # 64 uniform cells do not refine the 1/20 lattice, so cell values are averages
    panel = random_panel(rng, "TCATA", n=60, q=4)
    grid = CellGrid.uniform(64)
    result = run_mfpca(panel, grid=grid, scheme="trace_normalizing")
    field = estimate_field(panel, grid, exact=None)
    assert not set(np.unique(panel_cell_values(panel, grid))) <= {0.0, 1.0}
    traces = result.weights.weights * (field.variance_diagonal @ grid.lengths)
    assert np.abs(traces - 1.0).max() <= 1e-12
    assert abs(result.total_variance - panel.space.q) <= 1e-12
    assert abs(result.eigenvalues.sum() - panel.space.q) <= 1e-12
    w = compute_weights(field.mean, field.variance_diagonal, field.grid, panel.space,
                        "trace_normalizing").weights
    assert np.abs(w / result.weights.weights - 1.0).max() <= 1e-12


def test_scores_separate_known_subpopulations(rng):
    # three groups follow distinct state orders; the leading score plane
    # must separate the group centroids far beyond the within-group spread
    from catfpca import Panel, PanelItem, CategoricalTrajectory, StateSpace

    templates = {"g0": (0, 1, 2), "g1": (1, 0, 3), "g2": (2, 3, 1)}
    space = StateSpace(["S0", "S1", "S2", "S3"])
    items = []
    for label, order in templates.items():
        for i in range(20):
            cuts = np.round(np.array([1, 2]) / 3 + rng.uniform(-0.08, 0.08, 2), 2)
            b = np.concatenate([[0.0], np.sort(cuts), [1.0]])
            items.append(PanelItem(f"{label}-{i:02d}", label,
                                   CategoricalTrajectory(b, [{s} for s in order])))
    panel = Panel("TDS", space, items)
    result = run_mfpca(panel)
    assert result.variance_proportions[0] > 0.25

    pcs = result.scores[:, :2]
    groups = np.array([it[1] for it in result.items])
    centroids = {g: pcs[groups == g].mean(axis=0) for g in templates}
    spread = max(np.linalg.norm(pcs[groups == g] - centroids[g], axis=1).mean()
                 for g in templates)
    labels = list(templates)
    for a in range(3):
        for b in range(a + 1, 3):
            dist = np.linalg.norm(centroids[labels[a]] - centroids[labels[b]])
            assert dist > 3 * spread


def test_kl_truncation_beats_alternative_subspaces(rng):
    # top-k eigenspaces minimize the mean squared residual among k-subsets of
    # eigenvectors and among random H-orthonormal frames
    for _ in range(3):
        panel = random_panel(rng, "TDS", n=6, q=3, lattice=10)
        result = run_mfpca(panel)
        Z = panel_cell_values(panel, result.grid)
        d = _weight_diag(result.weights, result.grid)
        Zc = Z.reshape(panel.n, -1) - result.mean.ravel()[None, :]
        Y = Zc * np.sqrt(d)[None, :]  # symmetrized coordinates
        total = (Y ** 2).sum() / panel.n
        V = result.eigenfunctions.reshape(result.R, -1) * np.sqrt(d)[None, :]
        from itertools import combinations

        for k in (1, 2):
            best = total - result.eigenvalues[:k].sum()
            live = [r for r in range(result.R) if result.eigenvalues[r] > 1e-13]
            for subset in combinations(live, k):
                proj = Y @ V[list(subset)].T
                resid = total - (proj ** 2).sum() / panel.n
                assert resid >= best - 1e-10
            for _ in range(40):
                Q, _ = np.linalg.qr(rng.standard_normal((Y.shape[1], k)))
                proj = Y @ Q
                resid = total - (proj ** 2).sum() / panel.n
                assert resid >= best - 1e-10


# -- primal and dual Gram forms -------------------------------------------------

def check_pairs(result, tol):
    """H-orthonormality and score variance = eigenvalue, both within tol (relative to lambda_1)."""
    lam1 = max(result.eigenvalues[0], 1e-30)
    assert np.abs(h_gram(result) - np.eye(result.R)).max() <= tol
    var = (result.scores ** 2).mean(axis=0) - result.scores.mean(axis=0) ** 2
    assert np.abs(var - result.eigenvalues).max() <= tol * lam1


@pytest.mark.parametrize("small", [1e-4, 1e-8, 1e-11])
@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_graded_spectrum_keeps_pairs_orthonormal(rng, mode, small):
    # one state weighted far below the others: in TCATA panels with
    # 2m < n < 3m, the other two states cannot fill the rank, so a block of
    # eigenvalues falls to about `small` times lambda_1, and its
    # eigenfunctions must stay H-orthonormal.  (In TDS the small state's
    # indicator is one minus the others, so the spectrum is not graded, but
    # the identities must hold all the same.)  n = 8 and 40 add a plain dual
    # and a primal panel.
    for n in (8, 22, 26, 29, 40):
        panel = random_panel(rng, mode, n=n, q=3, lattice=10)
        weights = WeightScheme("equal", np.array([1.0, 1.0, small]))
        result = run_mfpca(panel, weights=weights)
        if result.eigenvalues[0] <= 0:
            continue
        check_pairs(result, 1e-10)
        field = estimate_field(panel, result.grid, exact=None)
        diag = (field.variance_diagonal * field.grid.lengths[None, :]).sum(axis=1)
        trace = float(weights.weights @ diag)
        assert abs(result.total_variance - trace) <= 1e-12 * trace
        assert abs(result.eigenvalues.sum() - trace) <= 1e-12 * trace


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_primal_dual_boundary_matches_dense_and_svd(rng, mode, offset):
    # p = q*m = 24 against n = 23 (dual), 24 and 25 (primal)
    q, m = 3, 8
    grid = CellGrid.uniform(m)
    for _ in range(3):
        panel = random_panel(rng, mode, n=q * m + offset, q=q, lattice=m)
        result = run_mfpca(panel, grid=grid)
        lam = result.eigenvalues
        field = estimate_field(panel, grid, exact=True)
        dense = np.linalg.eigvalsh(assemble_operator(field, result.weights))[::-1]
        got = np.zeros_like(dense)
        got[:result.R] = lam
        assert np.abs(got - dense).max() <= 1e-12 * dense[0]
        check_pairs(result, 1e-10)

        # reference: SVD of A = (Z - p) D^{1/2}, the matrix run_mfpca decomposes
        d = _weight_diag(result.weights, grid)
        Z = panel_cell_values(panel, grid).reshape(panel.n, -1)
        _, s, Vt = np.linalg.svd((Z - Z.mean(axis=0)) * np.sqrt(d))
        ref = Vt / np.sqrt(d)
        gap = np.abs(np.subtract.outer(lam, s * s / panel.n))
        np.fill_diagonal(gap, np.inf)
        phis = result.eigenfunctions.reshape(result.R, -1)
        separated = [r for r in range(result.R)
                     if lam[r] > 1e-3 * lam[0] and gap[r].min() > 1e-2 * lam[0]]
        assert separated
        for r in separated:
            sign = np.sign(phis[r] @ (d * ref[r]))
            assert np.abs(phis[r] - sign * ref[r]).max() <= 1e-10


def test_dual_retains_exactly_the_rank_of_a_panel_with_repeats(rng):
    # centring and three repeated trajectories take four off the rank of n = 9 items
    base = random_panel(rng, "TCATA", n=6, q=3)
    items = list(base.items) + [PanelItem(f"dup{i}", "c0", base.items[i].trajectory)
                                for i in range(3)]
    panel = Panel("TCATA", base.space, items)
    result = run_mfpca(panel)
    assert panel.space.q * result.grid.m > panel.n  # the dual form
    assert result.R == panel.n - 4
    assert np.abs(h_gram(result) - np.eye(result.R)).max() <= 1e-11
    assert np.abs(result.importance.sum(axis=1) - 1.0).max() <= 1e-10
    again = run_mfpca(panel)
    for name in ("eigenvalues", "eigenfunctions", "scores", "importance"):
        assert getattr(result, name).tobytes() == getattr(again, name).tobytes()


def test_total_variance_does_not_depend_on_the_blas_thread_count():
    # 50 x 4*64 cell values: large enough for a threaded BLAS dot product to split
    code = """
from catfpca import CellGrid, ProcessSpec, run_mfpca, simulate_panel
spec = ProcessSpec.from_dict({
    "states": ["A", "B", "C", "D"], "horizon": 1.0, "initial": [0.25] * 4,
    "transition": [[0.0 if i == j else 1 / 3 for j in range(4)] for i in range(4)],
    "sojourn": [{"dist": "exponential", "rate": 8.0}] * 4})
panel = simulate_panel(spec, 50, seed=1)
print(repr(run_mfpca(panel, grid=CellGrid.uniform(64), scheme="trace_normalizing").total_variance))
"""
    src = str(Path(catfpca.__file__).resolve().parents[1])
    totals = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        totals.append(proc.stdout.strip())
    assert totals[0] == totals[1]


# -- memory of the decomposition --------------------------------------------------

def simulated_panel(n, q):
    spec = catfpca.ProcessSpec.from_dict({
        "states": [f"S{j}" for j in range(q)], "horizon": 1.0, "initial": [1 / q] * q,
        "transition": [[0.0 if i == j else 1 / (q - 1) for j in range(q)] for i in range(q)],
        "sojourn": [{"dist": "exponential", "rate": 8.0}] * q})
    return catfpca.simulate_panel(spec, n, seed=1)


def blip_panel(n, q, cells):
    """A TDS panel whose spectrum is mostly a tail below 1e-4 of lambda_1.

    Each item switches from S0 to S1 at one of three times and holds S2 for a
    blip of log-uniform length, 1e-6 to 1e-1 of a cell of the uniform grid of
    ``cells``, inside one cell away from the switch.
    """
    rng = np.random.default_rng(1)
    h, items = 1.0 / cells, []
    for i in range(n):
        switch = rng.choice([0.25, 0.5, 0.75])
        cell = rng.choice(np.flatnonzero(np.abs(np.arange(cells) * h - switch) >= 2 * h))
        onset = (cell + 0.25) * h
        offset = onset + h * 10.0 ** rng.uniform(-6, -1)
        breaks = np.sort([0.0, switch, onset, offset, 1.0])
        states = [{2} if b == onset else {0} if b < switch else {1} for b in breaks[:-1]]
        items.append(PanelItem(f"s{i}", "c", CategoricalTrajectory(breaks, states)))
    return Panel("TDS", StateSpace([f"S{j}" for j in range(q)]), items)


@pytest.mark.parametrize(("n", "q", "cells", "tail"),
                         [(200, 4, 1000, False), (1000, 4, 100, False), (300, 3, 1000, True)],
                         ids=["200-4-1000", "1000-4-100", "300-3-1000-tail"])
def test_decomposition_peak_memory_is_bounded(n, q, cells, tail):
    # after eigh only A, the (R, q*m) eigenfunctions and one (n, R) block are held;
    # the (N, N) Gram matrix and eigh's output bound the solve itself, and a dual
    # tail below 1e-4 of lambda_1 is re-orthonormalized a bounded row block at a time
    panel = blip_panel(n, q, cells) if tail else simulated_panel(n, q)
    p = q * cells
    result, peak = traced_peak(run_mfpca, panel, grid=CellGrid.uniform(cells))
    assert (p > n) == (n != 1000)  # two dual panels and one primal one
    R, N = result.R, min(n, p)
    if tail:  # a tail of many row blocks, which stays orthonormal
        lam = result.eigenvalues
        assert np.count_nonzero(lam < 1e-4 * lam[0]) * p > 4 * catfpca.mfpca._BLOCK_VALUES
        check_pairs(result, 1e-10)
    rasterizer = 2 << 20
    assert peak <= 8 * (n * p + R * p + n * R + 2 * N * N) + rasterizer


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
@pytest.mark.parametrize("n", [4, 40])  # dual and primal on four cells
def test_retain_zero_gives_empty_blocks(mode, n):
    # n copies of one trajectory: lambda_1 = 0, so no component is retained
    path = CategoricalTrajectory([0.0, 0.1, 0.3, 0.6, 1.0], [{0}, {1}, {2}, {0}])
    panel = Panel(mode, StateSpace(["A", "B", "C"]),
                  [PanelItem(f"s{i}", "c", path) for i in range(n)])
    result = run_mfpca(panel)
    q, m = panel.space.q, result.grid.m
    assert (q * m > n) == (n == 4)
    assert result.eigenvalues.shape == (0,)
    assert result.eigenfunctions.shape == (0, q, m)
    assert result.scores.shape == (n, 0)
    assert result.importance.shape == (0, q)


@pytest.mark.parametrize("n", [31, 200])  # dual and primal on 40 cells
def test_row_blocks_give_the_same_bits_at_any_block_size(monkeypatch, rng, n):
    panel = random_panel(rng, "TCATA", n=n, q=4)
    grid = CellGrid.uniform(40)
    whole = run_mfpca(panel, grid=grid)
    # seven rows per block: R is not a multiple of it
    monkeypatch.setattr(catfpca.mfpca, "_BLOCK_VALUES", 7 * 4 * 40)
    blocked = run_mfpca(panel, grid=grid)
    assert whole.R % 7
    for name in ("eigenvalues", "eigenfunctions", "scores", "importance"):
        assert getattr(whole, name).tobytes() == getattr(blocked, name).tobytes()
