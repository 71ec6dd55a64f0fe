"""Correctness checks on the files ``catfpca mfpca`` writes into ``--out``.

Every check is an identity that holds for any correct grid and any correct
solver (primal or dual, capped or exact union grid), so a later change of
algorithm must still pass them unchanged:

- ``result.json`` parses; eigenvalues are non-negative and descending;
- the retained eigenvalues sum to ``total_variance``;
- every importance row sums to one;
- the exported eigenfunctions are orthonormal in the weighted inner product
  ``<f, g>_H = sum_j w_j sum_a len_a f_ja g_ja`` (raw weights, cell lengths
  from ``grid.nodes``);
- scores have mean zero and ``(1/n) sum_i score_ir^2 = lambda_r``;
- every CSV has exactly the rows its sizes imply, each one complete;
- the bands are ``mean +- band_c * sqrt(lambda_r) * phi_r``;
- TDS: the selection count is identically one.

Byte-identity across the operations of one run is checked by the caller.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RTOL = 1e-8  # relative tolerance on the spectral identities


class Invalid(Exception):
    """An output file violates one of the checks."""


def _table(path: Path, header: str, rows: int, cols) -> np.ndarray:
    """Float columns ``cols`` of a CSV with a known header and row count."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise Invalid(f"{path.name}: header {first!r}, expected {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", usecols=cols, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise Invalid(f"{path.name}: unparseable ({exc})") from None
    if data.shape[0] != rows:
        raise Invalid(f"{path.name}: {data.shape[0]} rows, expected {rows}")
    return data


def _close(a, b, scale: float, what: str) -> None:
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))
    if not dev <= RTOL * max(scale, 1e-300):
        raise Invalid(f"{what}: deviation {dev:.3e} exceeds {RTOL:g} x {scale:.3e}")


def check_outputs(results: Path, mode: str) -> dict:
    """Validate one ``mfpca`` output directory; returns the sizes it read.

    Raises :class:`Invalid` naming the first failed check.
    """
    try:
        res = json.loads((results / "result.json").read_text(encoding="utf-8"))
        lam = np.asarray(res["eigenvalues"], dtype=np.float64)
        nodes = np.asarray(res["grid"]["nodes"], dtype=np.float64)
        w = np.asarray(res["weights"]["raw"], dtype=np.float64)
        imp = np.asarray(res["importance"], dtype=np.float64)
        k = int(res["config"]["exported_components"])
        band_c = float(res["config"]["band_c"])
        n, q, total = int(res["n"]), len(res["states"]), float(res["total_variance"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise Invalid(f"result.json: {exc}") from None
    m, R = nodes.size - 1, lam.size
    lengths = np.diff(nodes)
    if res["mode"] != mode:
        raise Invalid(f"result.json: mode {res['mode']!r}, expected {mode!r}")
    if m != res["grid"]["cells"] or np.any(lengths <= 0):
        raise Invalid("result.json: grid nodes are not an increasing partition")
    if w.shape != (q,) or imp.shape != (R, q) or not 0 <= k <= R:
        raise Invalid(f"result.json: inconsistent sizes q={q} R={R} k={k}")
    if np.any(lam < 0) or np.any(np.diff(lam) > 0):
        raise Invalid("eigenvalues are not non-negative and descending")
    _close(lam.sum(), total, total, "sum of eigenvalues vs total_variance")
    _close(imp.sum(axis=1), 1.0, 1.0, "importance row sums")

    phi = _table(results / "eigenfunctions.csv", "state,r,t_left,t_right,value",
                 k * q * m, (1, 2, 3, 4))
    _close(phi[:, 0], np.repeat(np.arange(1, k + 1), q * m), 1.0, "eigenfunctions r column")
    _close(phi[:, 1], np.tile(nodes[:-1], k * q), 1.0, "eigenfunctions t_left column")
    phi = phi[:, 3].reshape(k, q, m)
    gram = np.einsum("rja,j,a,sja->rs", phi, w, lengths, phi, optimize=True)
    _close(gram, np.eye(k), 1.0, "H-orthonormality of eigenfunctions")

    s = _table(results / "scores.csv", "subject,condition,r,value", n * k, (2, 3))
    _close(s[:, 0], np.tile(np.arange(1, k + 1), n), 1.0, "scores r column")
    s = s[:, 1].reshape(n, k)
    top = float(lam[0]) if R else 0.0
    _close(s.mean(axis=0), 0.0, np.sqrt(top), "score means")
    _close((s ** 2).mean(axis=0), lam[:k], top, "score variances vs eigenvalues")

    bands = _table(results / "bands.csv", "state,r,t_left,t_right,mean,lower,upper",
                   k * q * m, (1, 2, 3, 4, 5, 6))
    mean = _table(results / "mean_curves.csv", "state,t_left,t_right,value", q * m, (1, 2, 3))
    _table(results / "variance_curves.csv", "state,t_left,t_right,value", q * m, (1, 2, 3))
    _close(bands[:, 3], np.tile(mean[:, 2], k), 1.0, "bands mean vs mean curves")
    half = band_c * np.sqrt(lam[:k])[:, None] * phi.reshape(k, q * m)
    _close(bands[:, 5] - bands[:, 3], half.ravel(), 1.0, "bands upper half-width")
    _close(bands[:, 3] - bands[:, 4], half.ravel(), 1.0, "bands lower half-width")
    count = _table(results / "selection_count.csv", "t_left,t_right,value", m, (0, 1, 2))
    if mode == "TDS":
        _close(count[:, 2], 1.0, 1.0, "TDS selection count")
    return {"n": n, "q": q, "m": m, "R": R, "k": k}
