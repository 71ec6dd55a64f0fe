"""Command-line front end: ingest, validate, mfpca, simulate, oracle-check.

Exit codes: 0 success, 2 validation/protocol error, 3 numerical failure
(running out of memory included).  Errors are emitted as one JSON object
per line on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import NumericalError, ProtocolError, ValidationError
from .estimation import WEIGHT_SCHEMES
from .ingest import DEFAULT_TICK, apply_protocol_normalization, tick_fault, validate_panel
from .mfpca import _weight_diag, run_mfpca
from .simulate import ProcessSpec, simulate_panel
from .trajectory import CellGrid

__all__ = ["main"]

# the settings of `mfpca`, echoed as the `config` block of result.json
SETTINGS = ("weights", "grid", "cells", "k", "var_frac", "band_c", "tick")


def _load_normalized_panel(args, tick: float):
    panel, report, meta = io.read_panel(args.panel, args.meta)
    if not meta.get("normalized"):
        panel = apply_protocol_normalization(panel, tick=tick, report=report)
    return panel, report, meta


def _analysed_panel(args, tick: float):
    """The normalized panel; ProtocolError naming the first problem ``validate_panel`` finds,
    which only a panel read as normalized can have."""
    panel = _load_normalized_panel(args, tick)[0]
    problems = validate_panel(panel)
    if problems:
        raise ProtocolError(problems[0])
    return panel


def cmd_ingest(args) -> int:
    panel, report, _ = io.read_panel(args.events, args.meta)
    panel = apply_protocol_normalization(panel, tick=args.tick, report=report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_panel(panel, out / "panel.csv", out / "panel.json")
    io._write_text(out / "report.json", io.canonical_json(report.to_dict()))
    print(f"ingested {panel.n} trajectories ({panel.mode}, q={panel.space.q}) "
          f"with {report.total_warnings} warnings -> {out}")
    return 0


def cmd_validate(args) -> int:
    panel, report, _ = _load_normalized_panel(args, DEFAULT_TICK)
    problems = validate_panel(panel)
    print(io.canonical_json({
        "n": panel.n,
        "mode": panel.mode,
        "violations": problems,
        "warnings": report.warnings,
    }), end="")
    if problems:
        raise ValidationError(f"{len(problems)} invariant violation(s), first {problems[0]}")
    return 0


def cmd_mfpca(args) -> int:
    panel = _analysed_panel(args, args.tick)
    union = panel.grid()
    grid = (union if args.grid == "union" and union.m <= args.cells
            else CellGrid.uniform(args.cells, union.horizon))
    result = run_mfpca(panel, scheme=args.weights, grid=grid)

    if args.k is not None:
        k = min(args.k, result.R)
    elif args.var_frac is not None:
        k = result.components_for_fraction(args.var_frac)
    else:
        k = result.R

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {key: getattr(args, key) for key in SETTINGS}
    echo["exported_components"] = k
    io._write_text(out / "result.json", io.canonical_json(io.result_to_dict(result, echo)))
    io.write_scores(result, out / "scores.csv", k)
    io.write_eigenfunctions(result, out / "eigenfunctions.csv", k)
    io.write_bands(result, out / "bands.csv", k, args.band_c)
    io.write_mean_curves(result, out / "mean_curves.csv")
    io.write_variance_curves(result, out / "variance_curves.csv")
    io.write_selection_count(result, out / "selection_count.csv")
    summary = _summary(result, k, union)
    io._write_text(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def _summary(result, k: int, union: CellGrid) -> str:
    if result.grid == union:
        cells = f"cells={result.grid.m} (union)"
    else:
        cells = f"cells={result.grid.m} (uniform; union grid has {union.m})"
    lines = [
        f"mode={result.mode} n={result.n} q={len(result.states)} "
        f"{cells} scheme={result.weights.scheme}",
        "normalized weights: " + " ".join(
            f"{s}={w:.4f}" for s, w in zip(result.states, result.weights.normalized_weights)
        ),
        "",
        "dim  eigenvalue      proportion  cumulative",
    ]
    cum = 0.0
    for r in range(k):
        prop = result.variance_proportions[r]
        cum += prop
        lines.append(f"{r + 1:3d}  {result.eigenvalues[r]:<14.6g}  {prop:10.4f}  {cum:10.4f}")
    lines.append("")
    lines.append("importance (top states per dimension):")
    for r in range(min(k, 4)):
        order = np.argsort(-result.importance[r])
        tops = ", ".join(
            f"{result.states[j]} {result.importance[r, j]:.2f}"
            for j in order[:4]
        )
        lines.append(f"  dim {r + 1}: {tops}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    spec = ProcessSpec.from_dict(io.read_json(args.spec))
    panel = simulate_panel(spec, args.n, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_panel(panel, out / "panel.csv", out / "panel.json")
    print(f"simulated {panel.n} {panel.mode} trajectories (seed={args.seed}) -> {out}")
    return 0


def cmd_oracle_check(args) -> int:
    # only this command runs the oracles, so no other command pays for importing them
    from .oracles import (estimate_field, jacobi_eigenvalues, naive_operator_matrix,
                          oracle_covariance)

    panel = _analysed_panel(args, DEFAULT_TICK)
    grid = panel.grid()
    if panel.space.q * grid.m > 600:
        raise ValidationError(
            f"oracle check is meant for small panels; q*m = {panel.space.q * grid.m} > 600"
        )
    field = estimate_field(panel, grid)
    oracle = oracle_covariance(panel, grid)
    mean_dev = float(np.abs(field.mean - oracle.mean).max())
    cov_dev = float(np.abs(field.cov_matrix - oracle.cov_matrix).max())

    # the retained eigenvalues of the path `mfpca` runs (equal weights), zero-padded to all q*m
    # of the oracle's
    qm = panel.space.q * grid.m
    result = run_mfpca(panel, grid=grid)
    evals = np.zeros(qm)
    evals[:result.R] = result.eigenvalues
    evals_naive = jacobi_eigenvalues(naive_operator_matrix(oracle, result.weights))
    eig_dev = float(np.abs(evals - evals_naive).max())
    # H-Gram of every retained eigenfunction, of which there may be none
    phis = result.eigenfunctions.reshape(result.R, qm)
    gram = (phis * _weight_diag(result.weights, grid)) @ phis.T
    orth_dev = float(np.abs(gram - np.eye(result.R)).max(initial=0.0))

    ok = (mean_dev <= args.tol and cov_dev <= args.tol and eig_dev <= args.eig_tol
          and orth_dev <= args.eig_tol)
    print(io.canonical_json({
        "mean_deviation": mean_dev,
        "cov_deviation": cov_dev,
        "eigenvalue_deviation": eig_dev,
        "orthonormality_deviation": orth_dev,
        "tolerance": args.tol,
        "eig_tolerance": args.eig_tol,
        "ok": ok,
    }), end="")
    if not ok:
        raise NumericalError("optimized and oracle paths disagree beyond tolerance")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValidationError (exit 2, one JSON line)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _number(kind, rule: str, ok):
    """An argparse type: the text as ``kind``, refused unless ``ok`` holds for it (``rule``
    says what ``ok`` asks).  A refusal exits 2 naming the flag, before any input is read."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__  # a ValueError reads "invalid int value: 'abc'"
    return parse


_NONNEGATIVE = _number(float, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)


def _tick(text: str) -> float:
    tick = _NONNEGATIVE(text)
    fault = tick_fault(tick)
    if fault:
        raise argparse.ArgumentTypeError(fault)
    return tick


def _add_settings(p: argparse.ArgumentParser, *, analysis: bool) -> None:
    if analysis:
        p.add_argument("--weights", choices=WEIGHT_SCHEMES, default="equal",
                       help="weight scheme of the inner product (default: %(default)s)")
        p.add_argument("--grid", choices=("union", "uniform"), default="union",
                       help="cell grid (default: %(default)s)")
        p.add_argument("--cells", type=_number(int, ">= 1", lambda v: v >= 1), default=512,
                       help="uniform cell count / cap for union grids (default: %(default)s)")
        export = p.add_mutually_exclusive_group()
        export.add_argument("--k", type=_number(int, ">= 0", lambda v: v >= 0),
                            help="number of components to export (default: all retained)")
        export.add_argument("--var-frac", dest="var_frac",
                            type=_number(float, "in (0, 1]", lambda v: 0 < v <= 1),
                            help="export enough components to reach this variance fraction")
        p.add_argument("--band-c", dest="band_c", type=_NONNEGATIVE, default=1.0,
                       help="band half-width multiplier (default: %(default)s)")
    p.add_argument("--tick", type=_tick, default=DEFAULT_TICK,
                   help="timestamp rounding tick, a fraction of the horizon; 0 turns rounding "
                        "off (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catfpca",
        description="Dimension reduction of categorical trajectory panels "
                    "by weighted multivariate functional PCA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw events into a normalized panel")
    p.add_argument("events", help="events CSV (subject, product, descriptor, onset[, offset])")
    p.add_argument("--meta", required=True, help="sidecar JSON (mode, states, end_time)")
    p.add_argument("--out", required=True)
    _add_settings(p, analysis=False)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="check panel invariants")
    p.add_argument("panel")
    p.add_argument("--meta")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mfpca", help="estimate, decompose and export")
    p.add_argument("panel")
    p.add_argument("--meta")
    p.add_argument("--out", required=True)
    _add_settings(p, analysis=True)
    p.set_defaults(func=cmd_mfpca)

    p = sub.add_parser("simulate", help="draw a synthetic panel")
    p.add_argument("--spec", required=True, help="ProcessSpec JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle-check", help="compare optimized and brute-force paths")
    p.add_argument("panel")
    p.add_argument("--meta")
    p.add_argument("--tol", type=_NONNEGATIVE, default=1e-12,
                   help="mean and covariance tolerance (default: %(default)s)")
    p.add_argument("--eig-tol", dest="eig_tol", type=_NONNEGATIVE, default=1e-8,
                   help="eigenvalue and orthonormality tolerance (default: %(default)s)")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (NumericalError, MemoryError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
