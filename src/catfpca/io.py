"""File formats: events CSV + JSON sidecar for panels, CSV/JSON exports.

Export contract: every float is written with 17 significant digits (an exact
double round-trip) and a non-finite value raises ValidationError before its
file is opened; JSON objects have sorted keys; CSV text fields are quoted as
csv.writer quotes them.  Identical inputs give byte-identical files.

Every CSV writer streams its rows through one engine, _write_rows, which
checks, then formats the floats a batch of rows at a time, sliced from flat
views of the result's arrays.  So a writer's transient memory is a fixed
budget, whatever n, k, q and m are, plus a short text per item, state, cell
(per state and cell for the bands) and scores component; write_panel also
holds a few numbers per event row.  The cell texts of the last grid written
are kept, so the five grid writers of one result format its nodes once.  A block of rows is one %-template, its
fixed text with every ``%`` doubled and a ``%s`` slot per float, filled by
one ``%``; the texts of its floats, and of every float array in a JSON file,
come from ``_digits.format17``, each that of ``"%.17g" % x``, which is fmt(x).
"""
from __future__ import annotations

import csv
import functools
import json
from io import StringIO
from itertools import accumulate
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._digits import format17
from .errors import DomainError, SchemaError, ValidationError
from .estimation import selection_count_curve
from .ingest import (EVENT_COLUMNS, EventTable, IngestReport, Panel, _order, parse_events,
                     validate_panel)
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
# rows one template fills: rows hold several Python objects each, and many more of them at
# once leave partly used allocator arenas that raise the process's later peak RSS
_BLOCK_ROWS = 1024
_FORMAT_BLOCKS = 4  # blocks whose floats one format17 call formats


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


def _csv_fields(rows) -> list[bytes]:
    """Each row of fields as fixed template text: quoted as csv.writer quotes them inside a
    row, each field followed by a comma, every ``%`` doubled.

    One writer writes all rows; each row's text is sliced off by the length
    ``writerow`` returns.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    ends = list(accumulate(writer.writerow((*fields, "")) for fields in rows))
    text = buf.getvalue()
    return [_fixed(text[a:b - 1].encode("utf-8")) for a, b in zip([0, *ends], ends)]


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"cannot serialize non-finite value {a[~np.isfinite(a)][0]}")


def _fixed(text: bytes) -> bytes:
    """``text`` as the fixed text of a %-template: every ``%`` doubled."""
    return text.replace(b"%", b"%%")


def _write_rows(path, header, count: int, template, values) -> None:
    """The header line, then ``count`` rows: ``template(lo, hi)`` is the fixed
    %-template of rows lo:hi, a _SLOT per float, and ``values(lo, hi)`` their
    floats, a row per row.  Each batch of _FORMAT_BLOCKS blocks of at most
    _BLOCK_ROWS rows is checked before the file is opened, then formatted by
    one format17 call.
    """
    step = _FORMAT_BLOCKS * _BLOCK_ROWS
    for lo in range(0, count, step):
        _check_finite(values(lo, min(lo + step, count)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            texts = format17(values(lo, hi)).reshape(hi - lo, -1)  # a row of texts per row
            for a in range(lo, hi, _BLOCK_ROWS):
                b = min(a + _BLOCK_ROWS, hi)
                fh.write(template(a, b) % tuple(texts[a - lo:b - lo].ravel().tolist()))


def _write_table(path, header, count: int, prefix, keys: list[Sequence[bytes]], values,
                 columns: int = 1) -> None:
    """Rows ``prefix(i) + key + "," + floats`` for i < count and each key of keys[i % len(keys)].

    ``prefix(i)`` is fixed template text, the key lists have equal lengths
    and ``values`` gives ``columns`` floats per row, as for _write_rows.  The
    rows of prefix p are the template ``p.join(tails)``: each key's tail
    holds its slots.
    """
    width = len(keys[0])
    slots = b",".join([_SLOT] * columns)
    tails = [[b"", *(_fixed(key) + b"," + slots + b"\n" for key in ks)] for ks in keys]

    def template(lo, hi):
        parts = []
        for i in range(lo // width, (hi - 1) // width + 1):  # rows a:b of prefix i
            a, b = max(lo - i * width, 0), min(hi - i * width, width)
            own = tails[i % len(tails)]
            parts.append(prefix(i).join(own if b - a == width else [b"", *own[a + 1:b + 1]]))
        return b"".join(parts)

    _write_rows(path, header, count * width, template, values)


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


def write_panel(panel: Panel, csv_path, meta_path=None) -> None:
    """Serialize a panel in the ingestion schema (events CSV + sidecar).

    Rows are the runs of ``Panel.runs``.  TDS: one onset row per run, by
    item and onset; the stretch before an item's first run is the latency,
    which the parser restores from the first onset.  TCATA: one
    onset/offset row per run, by item, state and onset.  The sidecar says
    ``"normalized": true`` when the panel has items and ``validate_panel``
    finds no violation.
    """
    meta_path = meta_path or sidecar_path(csv_path)
    item, states, onset, offset = panel.runs()
    if panel.mode == "TCATA":
        times = np.stack([onset, offset], axis=-1)
        slots = _SLOT + b"," + _SLOT
    else:
        order = _order(item, onset)
        item, states, times = item[order], states[order], onset[order]
        slots = _SLOT + b","
    prefixes = _csv_fields(panel.keys)
    tails = [label + slots + b"\n" for label in _csv_fields((s,) for s in panel.space.states)]
    _write_rows(csv_path, EVENT_COLUMNS, item.size, lambda lo, hi: b"".join(
        [prefixes[i] + tails[j] for i, j in zip(item[lo:hi].tolist(), states[lo:hi].tolist())]),
        lambda lo, hi: times[lo:hi])

    horizons = panel.horizons.tolist()
    distinct = sorted(set(horizons))
    end_time: Union[float, dict] = distinct[0] if len(distinct) == 1 else dict(
        zip(map(panel.key, range(panel.n)), horizons))
    meta = {
        "mode": panel.mode,
        "states": list(panel.space.states),
        "end_time": end_time,
        "items": [list(key) for key in panel.keys],
        "normalized": panel.n > 0 and not validate_panel(panel),
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

def _components(result: MfpcaResult, k: Optional[int]) -> tuple[int, Callable[[int], bytes]]:
    """k (all retained when None) and the "state,r," prefix of curve i = (r - 1) * q + state."""
    k = result.R if k is None else k
    if not 0 <= k <= result.R:
        raise DomainError(f"cannot export {k} components; the result has {result.R}")
    labels = _csv_fields((s,) for s in result.states)
    return k, lambda i: b"%s%d," % (labels[i % len(labels)], i // len(labels) + 1)


@functools.lru_cache(maxsize=1)  # the grid writers of one result share one tuple
def _cells(grid) -> tuple[bytes, ...]:
    """The "t_left,t_right" text of every cell, each node formatted once."""
    nodes = format17(grid.nodes).tolist()
    return tuple(b"%s,%s" % cell for cell in zip(nodes[:-1], nodes[1:]))


def _write_curves(result: MfpcaResult, path, curves: np.ndarray) -> None:
    _write_table(path, ("state", "t_left", "t_right", "value"), len(result.states),
                 _csv_fields((s,) for s in result.states).__getitem__,
                 [_cells(result.grid)], lambda lo, hi: np.reshape(curves, -1)[lo:hi])


def write_mean_curves(result: MfpcaResult, path) -> None:
    _write_curves(result, path, result.mean)


def write_variance_curves(result: MfpcaResult, path) -> None:
    _write_curves(result, path, result.variance)


def write_selection_count(result: MfpcaResult, path) -> None:
    grid, curve = selection_count_curve(result)
    _write_table(path, ("t_left", "t_right", "value"), 1, lambda i: b"", [_cells(grid)],
                 lambda lo, hi: curve[lo:hi])


def write_scores(result: MfpcaResult, path, k: Optional[int] = None) -> None:
    k, _ = _components(result, k)
    scores = result.scores[:, :k]  # maybe strided: rows lo:hi come from the items they cover
    _write_table(path, ("subject", "condition", "r", "value"), result.n,
                 _csv_fields(result.items).__getitem__,
                 [[b"%d" % r for r in range(1, k + 1)]],
                 lambda lo, hi: scores[lo // k:(hi - 1) // k + 1].ravel()[lo % k:][:hi - lo])


def write_eigenfunctions(result: MfpcaResult, path, k: Optional[int] = None) -> None:
    (k, curve), phis = _components(result, k), np.reshape(result.eigenfunctions, -1)
    _write_table(path, ("state", "r", "t_left", "t_right", "value"), k * len(result.states),
                 curve, [_cells(result.grid)], lambda lo, hi: phis[lo:hi])


def write_bands(result: MfpcaResult, path, k: Optional[int] = None, c: float = 1.0) -> None:
    """Variation bands p_j(t) +- c * sqrt(lambda_r) * phi_rj(t) for plotting.

    The mean column repeats for every component, so each (state, cell) mean is
    formatted once, into the key that follows the state's prefixes.
    """
    (k, curve), phis = _components(result, k), np.reshape(result.eigenfunctions, -1)
    means, q = np.reshape(result.mean, -1), len(result.states)
    texts = format17(means).reshape(q, -1).tolist()
    keys = [[b"%s,%s" % key for key in zip(_cells(result.grid), row)] for row in texts]

    def bands(lo, hi):  # a batch of rows; a non-finite mean makes its bands non-finite
        r, a = np.divmod(np.arange(lo, hi), means.size)  # component r, (state, cell) a
        mean, dev = means[a], amp[r] * phis[lo:hi]
        return np.stack([mean - dev, mean + dev], axis=-1)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the finiteness check
        amp = c * np.sqrt(result.eigenvalues[:k])
        _write_table(path, ("state", "r", "t_left", "t_right", "mean", "lower", "upper"), k * q,
                     curve, keys, bands, columns=2)


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
