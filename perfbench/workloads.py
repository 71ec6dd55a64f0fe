"""Seeded inputs and CLI operations of the three benchmark workloads.

The generator belongs to the benchmark, not to ``catfpca``: it writes raw
click logs in the README event schema (subject, product, descriptor,
onset[, offset]; millisecond timestamps; a 40 s tasting) and a TCATA
``ProcessSpec``.  The program under test only ever sees these files.

Each workload loads one layer heavily and the others lightly:

- ``tds-decomp``: TDS onset-only logs whose union grid exceeds the
  400-cell cap set by ``--cells 400``, so ``mfpca`` decomposes a dense
  (q*400)^2 operator.
- ``tcata-ingest``: many TCATA onset/offset logs analysed on a 64-cell
  uniform grid, so parsing and rasterization dominate and the operator is
  tiny (q*m much smaller than n).
- ``tcata-sim-export``: ``catfpca simulate`` from a q=4 TCATA spec, then
  ``mfpca`` with no flags, which exports every retained component.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

END_TIME = 40.0  # seconds, the tasting length written into every sidecar


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str              # TDS | TCATA
    first_stage: str       # ingest | simulate
    n: int                 # items (subjects x products) or simulated trajectories
    q: int
    products: int = 4
    mfpca_flags: tuple = ()
    # generator shape: mean seconds per TDS dominance, or TCATA off/on means
    tds_mean_sojourn: float = 4.8
    tcata_off_on: tuple = (7.0, 4.0)
    # (first stage, mfpca): slope of log(stage time) on log(speed factor), see speed.py
    speed_exponents: tuple = (1.0, 1.0)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tds-decomp",
            why="TDS logs past a 400-cell cap: the dense eigensolve and moments "
                "dominate, ingest and exports are light",
            mode="TDS", first_stage="ingest", n=600, q=5,
            mfpca_flags=("--k", "5", "--cells", "400"),
            speed_exponents=(1.0, 0.6),  # the BLAS eigensolve slows down less
        ),
        Workload(
            name="tcata-ingest",
            why="many TCATA onset/offset logs on a 64-cell grid: CSV parsing and "
                "rasterization dominate, the operator is tiny",
            mode="TCATA", first_stage="ingest", n=1000, q=6,
            mfpca_flags=("--grid", "uniform", "--cells", "64",
                         "--weights", "trace_normalizing", "--var-frac", "0.9"),
        ),
        Workload(
            name="tcata-sim-export",
            why="simulate then mfpca with no flags: every retained component is "
                "exported, so the CSV writers dominate",
            mode="TCATA", first_stage="simulate", n=40, q=4,
            speed_exponents=(1.0, 0.7),  # the eigensolve is about 40% of mfpca here
        ),
    )
}


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _ms(t: float) -> str:
    return f"{t:.3f}"


def _labels(q: int) -> list[str]:
    return [f"D{j + 1}" for j in range(q)]


def _items(w: Workload):
    subjects = w.n // w.products
    return [(f"S{s + 1:04d}", f"P{p + 1}") for s in range(subjects) for p in range(w.products)]


def _tds_rows(w: Workload, rng: np.random.Generator):
    labels = _labels(w.q)
    rows = []
    for subject, product in _items(w):
        t = rng.uniform(0.5, 4.0)  # pre-click latency
        state = int(rng.integers(w.q))
        last = None
        while t < END_TIME:
            onset = _ms(t)
            if onset != last and float(onset) < END_TIME:
                rows.append((subject, product, labels[state], onset))
                last = onset
            t += rng.exponential(w.tds_mean_sojourn)
            state = (state + 1 + int(rng.integers(w.q - 1))) % w.q
    return rows


def _tcata_rows(w: Workload, rng: np.random.Generator):
    labels = _labels(w.q)
    off_mean, on_mean = w.tcata_off_on
    rows = []
    for subject, product in _items(w):
        for j in range(w.q):
            t = 0.0
            while True:
                on = t + rng.exponential(off_mean)
                if on >= END_TIME - 0.001:
                    break
                off = min(on + max(rng.exponential(on_mean), 0.001), END_TIME)
                onset, offset = _ms(on), _ms(off)
                if float(offset) > float(onset):
                    rows.append((subject, product, labels[j], onset, offset))
                t = float(offset)
                if t >= END_TIME:
                    break
    return rows


def _spec(w: Workload, rng: np.random.Generator) -> dict:
    q = w.q
    rates = rng.uniform(12.0, 24.0, size=(q, 2))
    return {
        "states": _labels(q),
        "horizon": 1.0,
        "initial": [1.0 / q] * q,
        "transition": [[0.0 if i == j else 1.0 / (q - 1) for j in range(q)] for i in range(q)],
        "sojourn": [{"dist": "exponential", "rate": 1.0}] * q,
        "tcata": [
            {"off": {"dist": "exponential", "rate": round(float(off), 6)},
             "on": {"dist": "exponential", "rate": round(float(on), 6)}}
            for off, on in rates
        ],
    }


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out``; returns {file name: sha256}."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, w.name)
    if w.first_stage == "simulate":
        (out / "spec.json").write_text(json.dumps(_spec(w, rng), indent=1, sort_keys=True) + "\n")
        names = ["spec.json"]
    else:
        if w.mode == "TDS":
            header, rows = "subject,product,descriptor,onset\n", _tds_rows(w, rng)
        else:
            header, rows = "subject,product,descriptor,onset,offset\n", _tcata_rows(w, rng)
        with open(out / "events.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            fh.writelines(",".join(r) + "\n" for r in rows)
        meta = {"mode": w.mode, "states": _labels(w.q), "end_time": END_TIME}
        (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
        names = ["events.csv", "meta.json"]
    return {name: sha256_file(out / name) for name in names}


def operation(w: Workload, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The CLI calls of one operation, as (stage, argv) pairs in order."""
    if w.first_stage == "simulate":
        stage_dir = out / "sim"
        first = ["simulate", "--spec", str(inputs / "spec.json"), "--n", str(w.n),
                 "--seed", str(seed), "--out", str(stage_dir)]
    else:
        stage_dir = out / "ingested"
        first = ["ingest", str(inputs / "events.csv"), "--meta", str(inputs / "meta.json"),
                 "--out", str(stage_dir)]
    mfpca = ["mfpca", str(stage_dir / "panel.csv"), "--out", str(out / "results"),
             *w.mfpca_flags]
    return [(w.first_stage, first), ("mfpca", mfpca)]


def run_stages(w: Workload, seed: int, inputs: Path, out: Path, stages=None, log=None) -> dict:
    """Run the operation's CLI calls in this process through ``catfpca.cli.main``.

    Runs the stages named in ``stages`` (all by default) in order, sends the
    CLI's stdout to ``log`` (discarded when None) and stops at the first
    nonzero exit.  Returns {stage: (exit code, wall seconds of the call)}.
    """
    from catfpca import cli

    done = {}
    with contextlib.redirect_stdout(io.StringIO() if log is None else log):
        for stage, argv in operation(w, seed, inputs, out):
            if stages is not None and stage not in stages:
                continue
            t0 = time.perf_counter()
            code = cli.main(argv)
            done[stage] = (code, time.perf_counter() - t0)
            if code != 0:
                break
    return done
