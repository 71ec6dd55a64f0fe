"""File formats: events CSV + JSON sidecar for panels, CSV/JSON exports.

All floats are written with 17 significant digits (exact double round-trip)
and all JSON objects with sorted keys, so identical inputs produce
byte-identical output files.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import SchemaError, ValidationError
from .estimation import selection_count_curve
from .ingest import EventRecord, IngestReport, Panel, parse_events
from .mfpca import MfpcaResult
from .trajectory import StateSpace

__all__ = [
    "fmt",
    "canonical_json",
    "read_events_csv",
    "read_meta",
    "sidecar_path",
    "write_panel",
    "read_panel",
    "write_mean_curves",
    "write_variance_curves",
    "write_selection_count",
    "write_scores",
    "write_eigenfunctions",
    "write_bands",
    "result_to_dict",
]

EVENT_COLUMNS = ("subject", "product", "descriptor", "onset", "offset")


def fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if not np.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x}")
    return f"{float(x):.17g}"


def _json_value(obj) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in items) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    return _json_value(obj) + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_events_csv(path) -> list[EventRecord]:
    """Rows of (subject, product, descriptor, onset[, offset]); 1-based row numbers."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        missing = [c for c in EVENT_COLUMNS[:4] if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        has_offset = "offset" in reader.fieldnames
        for lineno, row in enumerate(reader, start=2):
            try:
                onset = float(row["onset"])
            except (TypeError, ValueError):
                raise SchemaError(f"{path} row {lineno}: bad onset {row.get('onset')!r}") from None
            offset = None
            if has_offset and row.get("offset") not in (None, ""):
                try:
                    offset = float(row["offset"])
                except ValueError:
                    raise SchemaError(f"{path} row {lineno}: bad offset {row['offset']!r}") from None
            records.append(EventRecord(
                subject=row["subject"], condition=row["product"],
                state=row["descriptor"], onset=onset, offset=offset, row=lineno,
            ))
    return records


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".json") if p.suffix == ".csv" else Path(str(p) + ".json")


def read_meta(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    for key in ("mode", "states"):
        if key not in meta:
            raise SchemaError(f"{path}: sidecar missing {key!r}")
    if "end_time" not in meta:
        raise SchemaError(f"{path}: sidecar missing 'end_time'")
    return meta


def write_panel(panel: Panel, csv_path, meta_path=None) -> None:
    """Serialize a panel in the ingestion schema (events CSV + sidecar)."""
    meta_path = meta_path or sidecar_path(csv_path)
    rows = []
    for it in panel.items:
        traj = it.trajectory
        if panel.mode == "TDS":
            for k, subset in enumerate(traj.segments):
                if not subset:
                    continue  # latency; reconstructed by the parser from the first onset
                (j,) = subset
                rows.append((it.subject, it.condition, panel.space.states[j],
                             fmt(traj.breakpoints[k]), ""))
        else:
            for j in range(panel.space.q):
                active = [j in s for s in traj.segments]
                k = 0
                while k < len(active):
                    if active[k]:
                        start = traj.breakpoints[k]
                        while k < len(active) and active[k]:
                            k += 1
                        rows.append((it.subject, it.condition, panel.space.states[j],
                                     fmt(start), fmt(traj.breakpoints[k])))
                    else:
                        k += 1
    _write_csv(csv_path, EVENT_COLUMNS, rows)

    horizons = sorted({it.trajectory.horizon for it in panel.items})
    end_time: Union[float, dict] = horizons[0] if len(horizons) == 1 else {
        it.key: it.trajectory.horizon for it in panel.items
    }
    meta = {
        "mode": panel.mode,
        "states": list(panel.space.states),
        "end_time": end_time,
        "items": [[it.subject, it.condition] for it in panel.items],
        "normalized": horizons == [1.0],
    }
    _write_text(meta_path, canonical_json(meta))


def read_panel(csv_path, meta_path=None) -> tuple[Panel, IngestReport, dict]:
    """Parse a serialized panel; normalization is left to the caller."""
    meta_path = meta_path or sidecar_path(csv_path)
    meta = read_meta(meta_path)
    records = read_events_csv(csv_path)
    space = StateSpace(meta["states"])
    items = [tuple(x) for x in meta["items"]] if "items" in meta else None
    panel, report = parse_events(records, space, meta["mode"], meta["end_time"], items=items)
    return panel, report, meta


# ---------------------------------------------------------------------------
# analysis exports
# ---------------------------------------------------------------------------

def _curve_rows(states, nodes, values):
    rows = []
    for j, label in enumerate(states):
        for a in range(len(nodes) - 1):
            rows.append((label, fmt(nodes[a]), fmt(nodes[a + 1]), fmt(values[j, a])))
    return rows


def write_mean_curves(result: MfpcaResult, path) -> None:
    _write_csv(path, ("state", "t_left", "t_right", "value"),
               _curve_rows(result.states, result.grid.nodes, result.mean))


def write_variance_curves(result: MfpcaResult, path) -> None:
    _write_csv(path, ("state", "t_left", "t_right", "value"),
               _curve_rows(result.states, result.grid.nodes, result.variance))


def write_selection_count(result: MfpcaResult, path) -> None:
    grid, curve = selection_count_curve(result)
    rows = [(fmt(grid.nodes[a]), fmt(grid.nodes[a + 1]), fmt(curve[a]))
            for a in range(grid.m)]
    _write_csv(path, ("t_left", "t_right", "value"), rows)


def write_scores(result: MfpcaResult, path, k: Optional[int] = None) -> None:
    k = result.R if k is None else k
    rows = []
    for i, (subject, condition) in enumerate(result.items):
        for r in range(k):
            rows.append((subject, condition, r + 1, fmt(result.scores[i, r])))
    _write_csv(path, ("subject", "condition", "r", "value"), rows)


def write_eigenfunctions(result: MfpcaResult, path, k: Optional[int] = None) -> None:
    k = result.R if k is None else k
    nodes = result.grid.nodes
    rows = []
    for r in range(k):
        for j, label in enumerate(result.states):
            for a in range(result.grid.m):
                rows.append((label, r + 1, fmt(nodes[a]), fmt(nodes[a + 1]),
                             fmt(result.eigenfunctions[r, j, a])))
    _write_csv(path, ("state", "r", "t_left", "t_right", "value"), rows)


def write_bands(result: MfpcaResult, path, k: Optional[int] = None, c: float = 1.0) -> None:
    """Variation bands p_j(t) +- c * sqrt(lambda_r) * phi_rj(t) for plotting."""
    k = result.R if k is None else k
    nodes = result.grid.nodes
    rows = []
    for r in range(k):
        amp = c * np.sqrt(result.eigenvalues[r])
        for j, label in enumerate(result.states):
            for a in range(result.grid.m):
                mu = result.mean[j, a]
                dev = amp * result.eigenfunctions[r, j, a]
                rows.append((label, r + 1, fmt(nodes[a]), fmt(nodes[a + 1]),
                             fmt(mu), fmt(mu - dev), fmt(mu + dev)))
    _write_csv(path, ("state", "r", "t_left", "t_right", "mean", "lower", "upper"), rows)


def result_to_dict(result: MfpcaResult, config_echo: Optional[dict] = None) -> dict:
    d = {
        "mode": result.mode,
        "n": result.n,
        "states": list(result.states),
        "grid": {
            "cells": result.grid.m,
            "horizon": result.grid.horizon,
            "nodes": result.grid.nodes.tolist(),
        },
        "weights": {
            "scheme": result.weights.scheme,
            "raw": result.weights.weights.tolist(),
            "normalized": result.weights.normalized_weights.tolist(),
        },
        "total_variance": result.total_variance,
        "eigenvalues": result.eigenvalues.tolist(),
        "variance_proportions": result.variance_proportions.tolist(),
        "importance": result.importance.tolist(),
    }
    if config_echo is not None:
        d["config"] = config_echo
    return d
