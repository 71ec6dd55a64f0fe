"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The dataset replication criterion is skipped unless
``CATFPCA_DATASET_DIR`` points at the public sensory dataset exported in the
ingestion schema (tds.csv/tds.json, tcata.csv/tcata.json).
"""
import json
import os
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from catfpca import (
    ProcessSpec,
    SojournSpec,
    panel_cell_values,
    reconstruct,
)
from catfpca.estimation import WeightScheme
from catfpca.mfpca import _weight_diag, run_mfpca
from catfpca.oracles import (
    assemble_operator,
    consistency_experiment,
    estimate_field,
    jacobi_eigenvalues,
    median_errors,
    mercer_check,
    naive_operator_matrix,
    oracle_covariance,
)

from conftest import mirror_panel, random_panel


def report(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


def fail(num, detail):
    print(f"[criterion {num}] FAIL: {detail}")
    pytest.fail(f"criterion {num}: {detail}")


def mean_residual_sq(Zc_sym, frame_sym):
    """Mean squared residual of projecting symmetrized data on a frame."""
    total = float((Zc_sym ** 2).sum()) / Zc_sym.shape[0]
    proj = Zc_sym @ frame_sym.T
    return total - float((proj ** 2).sum()) / Zc_sym.shape[0]


def test_criterion_1_property_suite():
    started = time.time()
    rng = np.random.default_rng(101)
    panels = 0
    while panels < 50:
        mode = "TDS" if panels % 2 == 0 else "TCATA"
        panel = random_panel(rng, mode)
        result = run_mfpca(panel)
        field = estimate_field(panel, result.grid, exact=None)
        trace = result.total_variance
        scale = max(trace, 1e-30)
        R = result.R

        d = _weight_diag(result.weights, field.grid)
        P = result.eigenfunctions.reshape(R, -1)
        gram = (P * d[None, :]) @ P.T
        if np.abs(gram - np.eye(R)).max() > 1e-8:
            fail(1, f"H-Gram deviates by {np.abs(gram - np.eye(R)).max():.2e}")

        diag = (field.variance_diagonal * field.grid.lengths[None, :]).sum(axis=1)
        weighted_trace = float(result.weights.weights @ diag)
        if abs(result.eigenvalues.sum() - weighted_trace) > 1e-8 * scale:
            fail(1, "trace identity broken")

        if mercer_check(result, field) > 1e-8 * scale:
            fail(1, "Mercer expansion deviates at full rank")

        var = (result.scores ** 2).mean(axis=0) - result.scores.mean(axis=0) ** 2
        if np.abs(var - result.eigenvalues).max() > 1e-8 * scale:
            fail(1, "score variance does not match the eigenvalues")

        if mode == "TDS":
            row_sums = field.cov.sum(axis=0)
            if np.abs(row_sums).max() > 1e-12:
                fail(1, "TDS kernel rows do not sum to zero")

        Z = panel_cell_values(panel, field.grid)
        for k in (0, R // 2, R):
            resid = 0.0
            for i in range(panel.n):
                r = (reconstruct(result, i, k) - Z[i]).ravel()
                resid += float(r @ (d * r))
            resid /= panel.n
            expected = trace - result.eigenvalues[:k].sum()
            if abs(resid - expected) > 1e-8 * scale:
                fail(1, f"Parseval identity broken at k={k}")
        panels += 1
    elapsed = time.time() - started
    if elapsed >= 60:
        fail(1, f"property suite took {elapsed:.1f}s (>= 60s)")
    report(1, f"{panels} random panels, all spectral identities hold ({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst_field = 0.0
    worst_eig = 0.0
    worst_run = 0.0  # the path `mfpca` runs against the naive oracles
    for trial in range(100):
        mode = "TDS" if rng.random() < 0.5 else "TCATA"
        panel = random_panel(rng, mode)  # n <= 10, q <= 4, union cells <= 20
        grid = panel.grid()
        fast = estimate_field(panel, grid)
        slow = oracle_covariance(panel, grid)
        worst_field = max(
            worst_field,
            float(np.abs(fast.mean - slow.mean).max()),
            float(np.abs(fast.cov_matrix - slow.cov_matrix).max()),
        )
        weights = WeightScheme.equal(panel.space.q)
        evals = np.sort(np.linalg.eigvalsh(assemble_operator(fast, weights)))[::-1]
        evals_naive = jacobi_eigenvalues(naive_operator_matrix(slow, weights))
        worst_eig = max(worst_eig, float(np.abs(evals - evals_naive).max()))
        result = run_mfpca(panel, grid=grid, weights=weights)
        padded = np.zeros(evals_naive.size)
        padded[:result.R] = result.eigenvalues
        worst_run = max(worst_run, float(np.abs(padded - evals_naive).max()))
        worst_field = max(worst_field, float(np.abs(result.mean - slow.mean).max()))
    if worst_field > 1e-12:
        fail(2, f"field deviation {worst_field:.2e} > 1e-12")
    if worst_eig > 1e-8:
        fail(2, f"eigenvalue deviation {worst_eig:.2e} > 1e-8")
    if worst_run > 1e-8:
        fail(2, f"run_mfpca eigenvalue deviation {worst_run:.2e} > 1e-8")
    report(2, f"100 panels: field dev {worst_field:.1e}, eigenvalue dev {worst_eig:.1e}, "
              f"run_mfpca eigenvalue dev {worst_run:.1e}")


def test_criterion_3_mirror_fixture():
    panel = mirror_panel()
    result = run_mfpca(panel)
    nonzero = result.eigenvalues[result.eigenvalues > 1e-12]
    if nonzero.size != 1 or abs(nonzero[0] - 0.25) > 1e-12:
        fail(3, f"eigenvalues {result.eigenvalues[:3]} != (0.25, 0, ...)")
    if np.abs(np.sort(result.scores[:, 0]) - [-0.5, 0.5]).max() > 1e-12:
        fail(3, f"scores {result.scores[:, 0]} != +-0.5")
    if np.abs(result.importance[0] - 0.5).max() > 1e-12:
        fail(3, f"importance {result.importance[0]} != (0.5, 0.5)")
    Z = panel_cell_values(panel, result.grid)
    d = _weight_diag(result.weights, result.grid)
    for i in range(2):
        r = (reconstruct(result, i, 1) - Z[i]).ravel()
        if np.sqrt(float(r @ (d * r))) > 1e-10:
            fail(3, "k=1 reconstruction does not recover the sample")
    report(3, "eigenvalue 0.25, scores +-0.5, importance (0.5, 0.5), exact k=1 recovery")


def test_criterion_4_kl_optimality():
    rng = np.random.default_rng(404)
    for trial in range(20):
        n = int(rng.integers(3, 9))       # n <= 8
        q = int(rng.integers(2, 4))       # q <= 3
        panel = random_panel(rng, "TDS" if trial % 2 else "TCATA", n=n, q=q, lattice=12)
        result = run_mfpca(panel)
        live = [r for r in range(result.R) if result.eigenvalues[r] > 1e-13]
        if len(live) < 2:
            continue
        d = _weight_diag(result.weights, result.grid)
        sq = np.sqrt(d)
        Z = panel_cell_values(panel, result.grid)
        Y = (Z.reshape(panel.n, -1) - result.mean.ravel()[None, :]) * sq[None, :]
        V = result.eigenfunctions.reshape(result.R, -1) * sq[None, :]
        for k in (1, 2):
            if len(live) < k:
                continue
            best = mean_residual_sq(Y, V[:k])
            for subset in combinations(live, k):
                alt = mean_residual_sq(Y, V[list(subset)])
                if alt < best - 1e-10:
                    fail(4, f"eigen-subset {subset} beats the top-{k} space")
            for _ in range(200):
                Q, _ = np.linalg.qr(rng.standard_normal((Y.shape[1], k)))
                alt = mean_residual_sq(Y, Q.T)
                if alt < best - 1e-10:
                    fail(4, f"a random {k}-frame beats the top-{k} space")
    report(4, "top-k spaces minimal vs eigen-subsets and 200 random frames, k in {1, 2}")


def test_criterion_5_consistency_rate():
    started = time.time()
    spec = ProcessSpec(
        states=("on", "off"),
        horizon=1.0,
        initial=np.array([1.0, 0.0]),   # p_on(t) = (1 + exp(-2t)) / 2
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        sojourn=(SojournSpec("exponential", rate=1.0),
                 SojournSpec("exponential", rate=1.0)),
    )
    rows = consistency_experiment(spec, [250, 1000, 4000], seed=7, replicates=20)
    med = median_errors(rows)
    ratios = (med[1000] / med[250], med[4000] / med[1000])
    for ratio in ratios:
        if not (0.35 <= ratio <= 0.7):
            fail(5, f"error ratio {ratio:.3f} outside [0.35, 0.7]; medians {med}")
    elapsed = time.time() - started
    if elapsed >= 120:
        fail(5, f"experiment took {elapsed:.0f}s (>= 120s)")
    report(5, "medians " + ", ".join(f"n={n}: {e:.4f}" for n, e in med.items())
           + f"; ratios {ratios[0]:.2f}, {ratios[1]:.2f} ({elapsed:.0f}s)")


DATASET_DIR = os.environ.get("CATFPCA_DATASET_DIR", "")


@pytest.mark.skipif(
    not DATASET_DIR or not Path(DATASET_DIR).exists(),
    reason="public sensory dataset not available (set CATFPCA_DATASET_DIR)",
)
def test_criterion_6_dataset_replication():
    from catfpca.io import read_panel
    from catfpca.ingest import apply_protocol_normalization
    from catfpca.estimation import compute_weights, selection_count_curve

    root = Path(DATASET_DIR)

    panel, _, meta = read_panel(root / "tds.csv")
    if not meta.get("normalized"):
        panel = apply_protocol_normalization(panel)
    result = run_mfpca(panel)
    field = estimate_field(panel, result.grid, exact=None)
    props = result.variance_proportions[:4] * 100
    for got, want in zip(props, (23.0, 11.0, 7.0, 6.0)):
        if abs(got - want) > 2.0:
            fail(6, f"TDS variance proportions {props} vs (23, 11, 7, 6)")
    idx = {s: j for j, s in enumerate(result.states)}
    for state, want in (("Sweet", 0.56), ("Salty", 0.22), ("Lemon", 0.10), ("Acid", 0.08)):
        if abs(result.importance[0, idx[state]] - want) > 0.03:
            fail(6, f"TDS dim-1 importance of {state} off the published value")
    w = compute_weights(field.mean, field.variance_diagonal, field.grid, panel.space,
                        "trace_normalizing").normalized_weights
    published = {"Acid": 0.02, "Basil": 0.06, "Bitter": 0.05, "Lemon": 0.02,
                 "Licorice": 0.21, "Mint": 0.60, "Salty": 0.03, "Sweet": 0.01}
    for state, want in published.items():
        if abs(w[idx[state]] - want) > 0.02:
            fail(6, f"trace-normalizing weight of {state} = {w[idx[state]]:.3f} vs {want}")

    panel, _, meta = read_panel(root / "tcata.csv")
    if not meta.get("normalized"):
        panel = apply_protocol_normalization(panel)
    result = run_mfpca(panel)
    props = result.variance_proportions[:2] * 100
    for got, want in zip(props, (19.0, 12.0)):
        if abs(got - want) > 2.0:
            fail(6, f"TCATA variance proportions {props} vs (19, 12)")
    grid, curve = selection_count_curve(result)
    peak = int(np.argmax(curve))
    t_peak = 0.5 * (grid.nodes[peak] + grid.nodes[peak + 1])
    if not (1.3 <= curve[peak] <= 1.7 and 0.5 <= t_peak <= 0.7):
        fail(6, f"selection-count peak {curve[peak]:.2f} at t={t_peak:.2f}")
    report(6, "published proportions, importance, weights and peak reproduced")


def test_criterion_7_byte_identical_cli_runs(tmp_path):
    from catfpca.cli import main

    events = tmp_path / "events.csv"
    events.write_text(
        "subject,product,descriptor,onset,offset\n"
        "s1,p1,A,1.0,3.0\ns1,p1,B,2.0,5.0\ns2,p1,A,2.5,6.0\ns2,p1,B,0.5,1.5\n"
    )
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"mode": "TCATA", "states": ["A", "B"], "end_time": 10.0}))
    ingested = tmp_path / "ingested"
    assert main(["ingest", str(events), "--meta", str(meta), "--out", str(ingested)]) == 0
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["mfpca", str(ingested / "panel.csv"), "--out", str(out1)]) == 0
    assert main(["mfpca", str(ingested / "panel.csv"), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    for name in names:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            fail(7, f"{name} differs between consecutive runs")
    report(7, f"{len(names)} output files byte-identical across consecutive runs")
