"""Spans around calls into catfpca's public functions, recorded from outside.

No file of the package changes: :func:`install` replaces every module
attribute of ``catfpca`` that refers to a traced function with a wrapper, so
calls made through any import path (``cli`` calling ``io.read_panel``,
``io.read_panel`` calling ``parse_events``, ``Panel.grid`` calling
``union_grid``) are all seen.  Spans stay in memory until the caller writes
them out.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute, optional count taken from the result)
TRACED = {
    "cli.main": ("catfpca.cli", "main", None),
    "io.read_events_csv": ("catfpca.io", "read_events_csv", len),
    "io.read_panel": ("catfpca.io", "read_panel", None),
    "io.write_panel": ("catfpca.io", "write_panel", None),
    "io.write_scores": ("catfpca.io", "write_scores", None),
    "io.write_eigenfunctions": ("catfpca.io", "write_eigenfunctions", None),
    "io.write_bands": ("catfpca.io", "write_bands", None),
    "io.write_mean_curves": ("catfpca.io", "write_mean_curves", None),
    "io.write_variance_curves": ("catfpca.io", "write_variance_curves", None),
    "io.write_selection_count": ("catfpca.io", "write_selection_count", None),
    "io.write_text": ("catfpca.io", "_write_text", None),
    "io.canonical_json": ("catfpca.io", "canonical_json", None),
    "io.result_to_dict": ("catfpca.io", "result_to_dict", None),
    "ingest.parse_events": ("catfpca.ingest", "parse_events", lambda r: r[0].n),
    "ingest.normalize": ("catfpca.ingest", "apply_protocol_normalization", None),
    "trajectory.union_grid": ("catfpca.trajectory", "union_grid", lambda g: g.m),
    "trajectory.to_indicators": ("catfpca.trajectory", "to_indicators", None),
    "estimation.estimate_field": ("catfpca.estimation", "estimate_field", None),
    "estimation.estimate_field_from_cells":
        ("catfpca.estimation", "estimate_field_from_cells", None),
    "estimation.panel_cell_values": ("catfpca.estimation", "panel_cell_values", None),
    "estimation.compute_weights": ("catfpca.estimation", "compute_weights", None),
    "kernels.cross_moment": ("catfpca._kernels", "cross_moment", None),
    "kernels.batch_cell_averages": ("catfpca._kernels", "batch_cell_averages", None),
    "mfpca.run_mfpca": ("catfpca.mfpca", "run_mfpca", None),
    "mfpca.assemble_operator": ("catfpca.mfpca", "assemble_operator", None),
    "mfpca.eigendecompose": ("catfpca.mfpca", "eigendecompose", None),
    "mfpca.scores": ("catfpca.mfpca", "scores", None),
    "simulate.simulate_panel": ("catfpca.simulate", "simulate_panel",
                                lambda p: sum(t.n_segments for t in p.trajectories)),
}


class Tracer:
    """Collects spans (name, start, end, parent, run id) of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run_id": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under every catfpca module attribute naming it.

        A function missing from the package is listed in ``absent`` instead
        of failing, so the benchmark runs against commits that deleted it.
        """
        importlib.import_module("catfpca")
        found = {}
        for name, (module_name, attr, _) in TRACED.items():
            try:
                found[name] = getattr(importlib.import_module(module_name), attr, None)
            except ImportError:
                found[name] = None
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "catfpca" or key.startswith("catfpca."))]
        for name, (module_name, attr, count) in TRACED.items():
            original = found[name]
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
