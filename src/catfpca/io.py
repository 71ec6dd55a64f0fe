"""File formats: events CSV + JSON sidecar for panels, CSV/JSON exports.

Export contract: every float is written with 17 significant digits (an exact
double round-trip) and a non-finite value raises ValidationError before its
file is opened; JSON objects have sorted keys; CSV text fields are quoted as
csv.writer quotes them.  CSV files are streamed in blocks of rows, so no file's
whole text is held in memory.  Identical inputs give byte-identical files.

Each CSV block is formatted as bytes by one %-template: the rows' fixed text,
with every ``%`` doubled, and a ``%s`` slot per float, filled by a single
``template % texts`` call (see _fill).  The texts of a block's floats, and of
every float array in a JSON file, come from one exact integer pass over the
array (``_digits.format17``), with Python's own conversion as the fallback
outside the range that pass covers; each text is that of ``"%.17g" % x``,
which is fmt(x), so the bytes are those of one fmt call per value.
"""
from __future__ import annotations

import csv
import json
from io import StringIO
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ._digits import format17
from .errors import DomainError, SchemaError, ValidationError
from .estimation import selection_count_curve
from .ingest import EVENT_COLUMNS, EventTable, IngestReport, Panel, parse_events
from .mfpca import MfpcaResult
from .trajectory import StateSpace

__all__ = [
    "fmt",
    "canonical_json",
    "read_events_csv",
    "read_json",
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

_SLOT = b"%s"  # a template slot, filled with format17's text of one float
_BLOCK_ROWS = 8192  # rows formatted and written at a time
# write_panel's blocks are smaller: its rows hold several Python objects each, and 8192 of
# them at once leave partly used allocator arenas that raise the process's later peak RSS
_PANEL_BLOCK_ROWS = 1024
_FORMAT_BLOCKS = 4  # write_panel's blocks whose floats one format17 call formats


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
        if obj.dtype.kind != "f" or obj.ndim == 0:
            return _json_value(obj.tolist())
        _check_finite(obj)
        return _json_array(format17(obj).reshape(obj.shape)).decode("ascii")
    if isinstance(obj, (list, tuple)):
        if _all_strings(obj):  # the same text as element by element, in one encoder call
            return json.dumps(obj)
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in items) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def _all_strings(seq) -> bool:
    """True when every leaf of the nested lists and tuples ``seq`` is a str."""
    return all(isinstance(v, str) or isinstance(v, (list, tuple)) and _all_strings(v) for v in seq)


def _json_array(texts: np.ndarray) -> bytes:
    """An array of number texts as nested JSON arrays."""
    if texts.ndim == 1:
        return b"[" + b", ".join(texts.tolist()) + b"]"
    return b"[" + b", ".join([_json_array(row) for row in texts]) + b"]"


def canonical_json(obj) -> str:
    return _json_value(obj) + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _csv_fields(*fields) -> bytes:
    """``fields`` quoted as csv.writer quotes them inside a row, each followed by a comma."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow((*fields, ""))
    return buf.getvalue()[:-1].encode("utf-8")


def _write_csv(path, header, blocks) -> None:
    """The header line, then each block's bytes of rows as soon as they are made."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for block in blocks:
            fh.write(block)


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValidationError(f"cannot serialize non-finite value {a[~np.isfinite(a)][0]}")


def _fixed(text: bytes) -> bytes:
    """``text`` as the fixed text of a %-template: every ``%`` doubled."""
    return text.replace(b"%", b"%%")


def _fill(template: bytes, values: np.ndarray) -> bytes:
    """``template`` with its _SLOTs filled by the texts of ``values`` in C order, by one ``%``."""
    return template % tuple(_texts(values))


def _texts(values: np.ndarray) -> list[bytes]:
    """fmt's text of each of the (finite) ``values``, in C order, as bytes."""
    return format17(values).tolist()


def _table_blocks(prefixes: list[bytes], keys: list[list[bytes]], *columns):
    """Blocks of rows ``prefix + key + "," + values``; prefix i takes each key of keys[i % len(keys)].

    The key lists have equal lengths and ``columns`` hold one float per row
    each, in row order.  All are checked before the first block; a block
    formats about _BLOCK_ROWS rows.  Prefixes and keys are escaped once: a
    prefix's rows are the template ``prefix.join(["", *tails])``, where each
    key's tail holds its slots.
    """
    width = len(keys[0])
    cols = [np.reshape(col, (len(prefixes), width)) for col in columns]
    _check_finite(*cols)
    step = max(1, _BLOCK_ROWS // max(1, width))
    slots = b",".join([_SLOT] * len(cols))
    tails = [[b"", *(_fixed(key) + b"," + slots + b"\n" for key in ks)] for ks in keys]
    prefixes = list(map(_fixed, prefixes))

    def block(g):
        template = b"".join([p.join(tails[i % len(tails)])
                            for i, p in enumerate(prefixes[g:g + step], start=g)])
        return _fill(template, np.stack([col[g:g + step] for col in cols], axis=-1))

    return map(block, range(0, len(prefixes), step))


def read_events_csv(path) -> EventTable:
    """Rows of (subject, product, descriptor, onset[, offset]) as an EventTable.

    Rows are streamed from the file into the table's columns.  Row numbers are
    1-based with the header as row 1; blank lines are skipped and not counted.
    A timestamp that does not parse, or parses to NaN, raises SchemaError
    naming its row; so does text that is not UTF-8 CSV.  A leading UTF-8 byte
    order mark is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            missing = [c for c in EVENT_COLUMNS[:4] if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            return EventTable.from_rows(filter(None, reader), f"{path} ", header=header)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: unreadable after line {reader.line_num}: {exc}") from None


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".json") if p.suffix == ".csv" else Path(str(p) + ".json")


def read_json(path):
    """The JSON value of a UTF-8 file; SchemaError naming the file for an integer too long to read."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits() allows
            raise SchemaError(f"{path}: {exc}") from None


def read_meta(path) -> dict:
    """The sidecar's JSON object; SchemaError naming the first key that is missing or ill-typed."""
    meta = read_json(path)
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}: sidecar must hold a JSON object, got {type(meta).__name__}")
    for key in ("mode", "states", "end_time"):
        if key not in meta:
            raise SchemaError(f"{path}: sidecar missing {key!r}")
    if not _strings(meta["states"]):
        raise SchemaError(f"{path}: sidecar 'states' must be a list of strings")
    items = meta.get("items", [])
    if not (isinstance(items, list) and all(_strings(x) and len(x) == 2 for x in items)):
        raise SchemaError(f"{path}: sidecar 'items' must list [subject, product] pairs of strings")
    if not isinstance(meta.get("normalized", False), bool):
        raise SchemaError(f"{path}: sidecar 'normalized' must be true or false")
    return meta


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _event_rows(panel: Panel):
    """Blocks of _PANEL_BLOCK_ROWS event rows, as written by write_panel, from the panel's arrays.

    TDS: one onset row per (segment, state) pair of ``active``, in panel
    order; an empty segment is the latency, which the parser restores from
    the first onset.  TCATA: one onset/offset row per run of ``Panel.runs``,
    ordered by item, state and onset.  The times of _FORMAT_BLOCKS blocks are
    formatted by one format17 call; each block's row objects are made alone.
    """
    if panel.mode == "TCATA":
        item, states, onset, offset = panel.runs()
        times = np.stack([onset, offset], axis=-1)
        slots = _SLOT + b"," + _SLOT
    else:
        # segment s of item i starts at breakpoint s + i
        segment, states = np.nonzero(panel.active)
        item = np.repeat(np.arange(panel.n), panel.counts)[segment]
        times = panel.breakpoints[segment + item]
        slots = _SLOT + b","
    prefixes = [_fixed(_csv_fields(subject, condition)) for subject, condition in panel.keys]
    tails = [_fixed(_csv_fields(s)) + slots + b"\n" for s in panel.space.states]
    step = _FORMAT_BLOCKS * _PANEL_BLOCK_ROWS

    def blocks():
        for lo in range(0, item.size, step):
            chunk = times[lo:lo + step]
            texts = format17(chunk).reshape(chunk.shape)  # a row of texts per event row
            for a in range(0, len(chunk), _PANEL_BLOCK_ROWS):
                rows = slice(lo + a, lo + a + _PANEL_BLOCK_ROWS)
                template = b"".join([prefixes[i] + tails[j]
                                    for i, j in zip(item[rows].tolist(), states[rows].tolist())])
                yield template % tuple(texts[a:a + _PANEL_BLOCK_ROWS].ravel().tolist())

    return blocks()


def write_panel(panel: Panel, csv_path, meta_path=None) -> None:
    """Serialize a panel in the ingestion schema (events CSV + sidecar)."""
    meta_path = meta_path or sidecar_path(csv_path)
    _write_csv(csv_path, EVENT_COLUMNS, _event_rows(panel))

    horizons = panel.horizons.tolist()
    distinct = sorted(set(horizons))
    end_time: Union[float, dict] = distinct[0] if len(distinct) == 1 else dict(
        zip(map(panel.key, range(panel.n)), horizons))
    meta = {
        "mode": panel.mode,
        "states": list(panel.space.states),
        "end_time": end_time,
        "items": [list(key) for key in panel.keys],
        "normalized": distinct == [1.0],
    }
    _write_text(meta_path, canonical_json(meta))


def read_panel(csv_path, meta_path=None) -> tuple[Panel, IngestReport, dict]:
    """Parse a serialized panel; normalization is left to the caller."""
    meta_path = meta_path or sidecar_path(csv_path)
    meta = read_meta(meta_path)
    events = read_events_csv(csv_path)
    space = StateSpace(meta["states"])
    items = [tuple(x) for x in meta["items"]] if "items" in meta else None
    panel, report = parse_events(events, space, meta["mode"], meta["end_time"], items=items)
    return panel, report, meta


# ---------------------------------------------------------------------------
# analysis exports
# ---------------------------------------------------------------------------

def _components(result: MfpcaResult, k: Optional[int]) -> tuple[int, list[bytes]]:
    """k (all retained when None) and the "state,r," prefix of each exported curve."""
    k = result.R if k is None else k
    if not 0 <= k <= result.R:
        raise DomainError(f"cannot export {k} components; the result has {result.R}")
    labels = [_csv_fields(s) for s in result.states]
    return k, [b"%s%d," % (label, r) for r in range(1, k + 1) for label in labels]


def _cells(grid) -> list[bytes]:
    """The "t_left,t_right" text of every cell, each node formatted once."""
    nodes = _texts(grid.nodes)
    return [b"%s,%s" % cell for cell in zip(nodes[:-1], nodes[1:])]


def write_mean_curves(result: MfpcaResult, path) -> None:
    _write_csv(path, ("state", "t_left", "t_right", "value"), _table_blocks(
        [_csv_fields(s) for s in result.states], [_cells(result.grid)], result.mean))


def write_variance_curves(result: MfpcaResult, path) -> None:
    _write_csv(path, ("state", "t_left", "t_right", "value"), _table_blocks(
        [_csv_fields(s) for s in result.states], [_cells(result.grid)], result.variance))


def write_selection_count(result: MfpcaResult, path) -> None:
    grid, curve = selection_count_curve(result)
    _write_csv(path, ("t_left", "t_right", "value"), _table_blocks([b""], [_cells(grid)], curve))


def write_scores(result: MfpcaResult, path, k: Optional[int] = None) -> None:
    k, _ = _components(result, k)
    _write_csv(path, ("subject", "condition", "r", "value"), _table_blocks(
        [_csv_fields(subject, condition) for subject, condition in result.items],
        [[b"%d" % r for r in range(1, k + 1)]], result.scores[:, :k]))


def write_eigenfunctions(result: MfpcaResult, path, k: Optional[int] = None) -> None:
    k, prefixes = _components(result, k)
    _write_csv(path, ("state", "r", "t_left", "t_right", "value"), _table_blocks(
        prefixes, [_cells(result.grid)], result.eigenfunctions[:k]))


def write_bands(result: MfpcaResult, path, k: Optional[int] = None, c: float = 1.0) -> None:
    """Variation bands p_j(t) +- c * sqrt(lambda_r) * phi_rj(t) for plotting.

    The mean column repeats for every component, so each (state, cell) mean is
    formatted once, into the key that follows the state's prefixes.
    """
    k, prefixes = _components(result, k)
    dev = (c * np.sqrt(result.eigenvalues[:k]))[:, None, None] * result.eigenfunctions[:k]
    lower = result.mean - dev
    upper = np.add(result.mean, dev, out=dev)
    _check_finite(np.broadcast_to(result.mean, dev.shape))  # the mean as its rows repeat it
    cells = _cells(result.grid)
    means = _texts(result.mean)
    keys = [[b"%s,%s" % key for key in zip(cells, means[lo:lo + len(cells)])]
            for lo in range(0, len(means), len(cells))]
    _write_csv(path, ("state", "r", "t_left", "t_right", "mean", "lower", "upper"), _table_blocks(
        prefixes, keys, lower, upper))


def result_to_dict(result: MfpcaResult, config_echo: Optional[dict] = None) -> dict:
    d = {
        "mode": result.mode,
        "n": result.n,
        "states": list(result.states),
        "grid": {
            "cells": result.grid.m,
            "horizon": result.grid.horizon,
            "nodes": result.grid.nodes,
        },
        "weights": {
            "scheme": result.weights.scheme,
            "raw": result.weights.weights,
            "normalized": result.weights.normalized_weights,
        },
        "total_variance": result.total_variance,
        "eigenvalues": result.eigenvalues,
        "variance_proportions": result.variance_proportions,
        "importance": result.importance,
    }
    if config_echo is not None:
        d["config"] = config_echo
    return d
