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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import io
from .errors import NumericalError, ValidationError
from .estimation import WeightScheme
from .ingest import DEFAULT_TICK, apply_protocol_normalization, validate_panel
from .mfpca import DEFAULT_MAX_CELLS, _weight_diag, run_mfpca
from .oracles import estimate_field, jacobi_eigenvalues, naive_operator_matrix, oracle_covariance
from .simulate import ProcessSpec, simulate_panel
from .trajectory import CellGrid

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Knobs shared by the analysis subcommands; JSON-loadable with flag overrides."""

    weights: str = "equal"
    grid: str = "union"            # union | uniform
    cells: int = DEFAULT_MAX_CELLS  # uniform cell count, and cap for union grids
    k: Optional[int] = None
    var_frac: Optional[float] = None
    band_c: float = 1.0
    tick: float = DEFAULT_TICK

    @classmethod
    def load(cls, args) -> "RunConfig":
        cfg = cls()
        file_values = {}
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
            if not isinstance(file_values, dict):
                raise ValidationError("config file must hold a JSON object")
            unknown = set(file_values) - set(cfg.__dict__)
            if unknown:
                raise ValidationError(f"unknown config keys: {sorted(unknown)}")
            hints = get_type_hints(cls)
            for key, value in file_values.items():
                _check_config_value(key, value, hints[key])
        for key in cfg.__dict__:
            if key in file_values:
                setattr(cfg, key, file_values[key])
            flag = getattr(args, key, None)
            if flag is not None:
                setattr(cfg, key, flag)
        for key in ("tick", "band_c"):  # tick 0 turns rounding off, band_c 0 gives bare means
            value = getattr(cfg, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"config key {key!r} must be a finite number >= 0, got {value}")
        if cfg.grid not in ("union", "uniform"):
            raise ValidationError(f"grid policy must be 'union' or 'uniform', got {cfg.grid!r}")
        if cfg.k is not None and cfg.var_frac is not None:
            raise ValidationError("give either a truncation order k or a variance fraction, not both")
        if cfg.var_frac is not None and not (0.0 < cfg.var_frac <= 1.0):
            raise ValidationError(f"variance fraction must be in (0, 1], got {cfg.var_frac}")
        if cfg.cells < 1:
            raise ValidationError("cells must be >= 1")
        if cfg.k is not None and cfg.k < 0:
            raise ValidationError(f"k must be >= 0, got {cfg.k}")
        return cfg

    def to_dict(self) -> dict:
        return dict(self.__dict__)


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _check_config_value(key: str, value, hint) -> None:
    """Raise ValidationError unless ``value`` has the type of the field annotated ``hint``.

    A bool is not an int, an int is accepted for a float, and None fits an
    Optional field only.
    """
    args = get_args(hint)  # Optional[X] gives (X, NoneType)
    kind = args[0] if args else hint
    optional = type(None) in args
    if (value is None and optional) or type(value) is kind or (kind is float and type(value) is int):
        return
    wanted = _JSON_TYPES[kind] + (" or null" if optional else "")
    raise ValidationError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")


def _load_normalized_panel(args, tick: float):
    panel, report, meta = io.read_panel(args.panel, getattr(args, "meta", None))
    if not meta.get("normalized"):
        panel = apply_protocol_normalization(panel, tick=tick, report=report)
    return panel, report, meta


def cmd_ingest(args) -> int:
    cfg = RunConfig.load(args)
    panel, report, _ = io.read_panel(args.events, args.meta)
    panel = apply_protocol_normalization(panel, tick=cfg.tick, report=report)
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
        raise ValidationError(f"{len(problems)} invariant violation(s)")
    return 0


def cmd_mfpca(args) -> int:
    cfg = RunConfig.load(args)
    panel, report, meta = _load_normalized_panel(args, cfg.tick)
    union = panel.grid()
    if cfg.grid == "uniform":
        grid = CellGrid.uniform(cfg.cells, union.horizon)
    else:
        grid = union.capped(cfg.cells)
    result = run_mfpca(panel, scheme=cfg.weights, grid=grid)

    if cfg.k is not None:
        k = min(cfg.k, result.R)
    elif cfg.var_frac is not None:
        k = result.components_for_fraction(cfg.var_frac)
    else:
        k = result.R

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = cfg.to_dict()
    echo["exported_components"] = k
    io._write_text(out / "result.json", io.canonical_json(io.result_to_dict(result, echo)))
    io.write_scores(result, out / "scores.csv", k)
    io.write_eigenfunctions(result, out / "eigenfunctions.csv", k)
    io.write_bands(result, out / "bands.csv", k, cfg.band_c)
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
    with open(args.spec, encoding="utf-8") as fh:
        spec = ProcessSpec.from_dict(json.load(fh))
    panel = simulate_panel(spec, args.n, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_panel(panel, out / "panel.csv", out / "panel.json")
    print(f"simulated {panel.n} {panel.mode} trajectories (seed={args.seed}) -> {out}")
    return 0


def cmd_oracle_check(args) -> int:
    panel, report, meta = _load_normalized_panel(args, DEFAULT_TICK)
    grid = panel.grid()
    if panel.space.q * grid.m > 600:
        raise ValidationError(
            f"oracle check is meant for small panels; q*m = {panel.space.q * grid.m} > 600"
        )
    field = estimate_field(panel, grid)
    oracle = oracle_covariance(panel, grid)
    mean_dev = float(np.abs(field.mean - oracle.mean).max())
    cov_dev = float(np.abs(field.cov_matrix - oracle.cov_matrix).max())

    # the eigenvalues of the path `mfpca` runs, zero-padded to all q*m of the oracle's
    weights = WeightScheme.equal(panel.space.q)
    result = run_mfpca(panel, grid=grid, weights=weights, retain="full")
    evals = np.zeros(panel.space.q * grid.m)
    evals[:result.R] = result.eigenvalues
    evals_naive = jacobi_eigenvalues(naive_operator_matrix(oracle, weights))
    eig_dev = float(np.abs(evals - evals_naive).max())
    # H-Gram of every eigenfunction, null completions included
    phis = result.eigenfunctions.reshape(result.R, -1)
    gram = (phis * _weight_diag(weights, grid)) @ phis.T
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


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--weights", help="equal | trace_normalizing | inverse_mean_probability")
    p.add_argument("--grid", help="union | uniform")
    p.add_argument("--cells", type=int, help="uniform cell count / cap for union grids")
    p.add_argument("--k", type=int, help="number of components to export")
    p.add_argument("--var-frac", dest="var_frac", type=float,
                   help="export enough components to reach this variance fraction")
    p.add_argument("--band-c", dest="band_c", type=float, help="band half-width multiplier")
    p.add_argument("--tick", type=float, help="timestamp rounding tick (fraction of horizon)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catfpca",
        description="Dimension reduction of categorical trajectory panels "
                    "by weighted multivariate functional PCA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw events into a normalized panel")
    p.add_argument("events", help="events CSV (subject, product, descriptor, onset[, offset])")
    p.add_argument("--meta", required=True, help="sidecar JSON (mode, states, end_time)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="check panel invariants")
    p.add_argument("panel")
    p.add_argument("--meta")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mfpca", help="estimate, decompose and export")
    p.add_argument("panel")
    p.add_argument("--meta")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
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
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--eig-tol", dest="eig_tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
