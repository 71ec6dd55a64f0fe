"""Synthetic panels from (semi-)Markov specifications.

Determinism contract: trajectory i of a run seeded with ``seed`` is drawn
from ``numpy.random.Generator(PCG64(SeedSequence([seed, i])))`` using
``random()`` as the only primitive (inverse-transform sampling for
sojourns and transitions), so panels are reproducible across platforms
and independent of any parallel scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import SchemaError, ValidationError
from .estimation import WeightScheme, mean_on_grid
from .ingest import Panel, PanelItem, _overlay
from .oracles import ProbabilityField, assemble_operator, estimate_field
from .trajectory import CellGrid, StateSpace, union_grid

__all__ = [
    "SojournSpec",
    "ProcessSpec",
    "TwoStateTruth",
    "simulate_panel",
    "consistency_experiment",
    "median_errors",
]

_ROW_TOL = 1e-12


def _field(d, key: str, kind, what: str = "spec"):
    """``kind(d[key])``; SchemaError if ``d`` is no JSON object, lacks ``key``, or kind fails."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise SchemaError(f"{what} missing {key!r}")
    try:
        return kind(d[key])
    except (TypeError, ValueError):
        raise SchemaError(f"{what} {key!r} has an ill-typed value {d[key]!r}") from None


def _labels(value) -> tuple:
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise TypeError("state labels must be a list of strings")
    return tuple(value)


@dataclass(frozen=True)
class SojournSpec:
    """Sojourn-time distribution: exponential(rate) or uniform(low, high)."""

    dist: str
    rate: float = 0.0
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self):
        if self.dist == "exponential":
            if self.rate <= 0:
                raise ValidationError(f"exponential rate must be positive, got {self.rate}")
        elif self.dist == "uniform":
            if not (0 < self.low < self.high):
                raise ValidationError(
                    f"uniform bounds must satisfy 0 < low < high, got ({self.low}, {self.high})"
                )
        else:
            raise ValidationError(f"unknown sojourn distribution {self.dist!r}")

    def draw(self, rng: np.random.Generator) -> float:
        u = rng.random()
        if self.dist == "exponential":
            return -math.log1p(-u) / self.rate
        return self.low + (self.high - self.low) * u

    def to_dict(self) -> dict:
        if self.dist == "exponential":
            return {"dist": "exponential", "rate": self.rate}
        return {"dist": "uniform", "low": self.low, "high": self.high}

    @classmethod
    def from_dict(cls, d: dict) -> "SojournSpec":
        dist = _field(d, "dist", str, "sojourn")
        if dist == "exponential":
            return cls(dist, rate=_field(d, "rate", float, "sojourn"))
        if dist == "uniform":
            return cls(dist, low=_field(d, "low", float, "sojourn"),
                       high=_field(d, "high", float, "sojourn"))
        raise ValidationError(f"bad sojourn spec {d!r}")


@dataclass(frozen=True)
class ProcessSpec:
    """Semi-Markov generator; an on/off overlay per state switches to TCATA mode."""

    states: tuple
    horizon: float
    initial: np.ndarray
    transition: np.ndarray
    sojourn: tuple
    tcata: Optional[tuple] = None  # per state: {"off": SojournSpec, "on": SojournSpec}

    def __post_init__(self):
        space = StateSpace(self.states)
        object.__setattr__(self, "states", space.states)
        q = space.q
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        init = np.asarray(self.initial, dtype=np.float64)
        trans = np.asarray(self.transition, dtype=np.float64)
        if init.shape != (q,) or np.any(init < 0) or abs(init.sum() - 1.0) > _ROW_TOL:
            raise ValidationError("initial distribution must be nonnegative and sum to 1")
        if trans.shape != (q, q) or np.any(trans < 0):
            raise ValidationError(f"transition matrix must be nonnegative with shape ({q}, {q})")
        if np.any(np.diag(trans) != 0):
            raise ValidationError("transition matrix must have a zero diagonal")
        rows = trans.sum(axis=1)
        if q == 1:
            if rows[0] != 0:
                raise ValidationError("single-state chain cannot transition")
        elif np.any(np.abs(rows - 1.0) > _ROW_TOL):
            raise ValidationError("transition rows must sum to 1")
        if len(self.sojourn) != q:
            raise ValidationError(f"need one sojourn spec per state, got {len(self.sojourn)}")
        if self.tcata is not None and len(self.tcata) != q:
            raise ValidationError("TCATA overlay needs one on/off pair per state")
        init.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "sojourn", tuple(self.sojourn))
        if self.tcata is not None:
            object.__setattr__(self, "tcata", tuple(self.tcata))

    @property
    def q(self) -> int:
        return len(self.states)

    @property
    def mode(self) -> str:
        return "TCATA" if self.tcata is not None else "TDS"

    def to_dict(self) -> dict:
        d = {
            "states": list(self.states),
            "horizon": self.horizon,
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "sojourn": [s.to_dict() for s in self.sojourn],
        }
        if self.tcata is not None:
            d["tcata"] = [
                {"off": pair["off"].to_dict(), "on": pair["on"].to_dict()}
                for pair in self.tcata
            ]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        """The spec of a JSON object; SchemaError for a missing key or an ill-typed value."""
        return cls(  # keyword arguments are evaluated in order: "states" checks d first
            states=_field(d, "states", _labels),
            horizon=_field(d, "horizon", float),
            initial=_field(d, "initial", partial(np.asarray, dtype=np.float64)),
            transition=_field(d, "transition", partial(np.asarray, dtype=np.float64)),
            sojourn=_field(d, "sojourn", lambda v: tuple(map(SojournSpec.from_dict, v))),
            tcata=None if d.get("tcata") is None else _field(d, "tcata", lambda v: tuple(
                {key: _field(p, key, SojournSpec.from_dict, "tcata pair") for key in ("off", "on")}
                for p in v)),
        )


def _draw_categorical(rng: np.random.Generator, cdf: np.ndarray) -> int:
    u = rng.random()
    return min(int(np.searchsorted(cdf, u, side="right")), cdf.size - 1)


def _tds_intervals(spec: ProcessSpec, rng: np.random.Generator) -> list[tuple]:
    """One trajectory's (on, off, state) sojourns; one too short to move the time vanishes."""
    T = spec.horizon
    trans_cdf = np.cumsum(spec.transition, axis=1)
    state = _draw_categorical(rng, np.cumsum(spec.initial))
    intervals = []
    t = 0.0
    while True:
        t_next = t + spec.sojourn[state].draw(rng)
        if t_next >= T or spec.q == 1:
            intervals.append((t, T, state))
            return intervals
        if t_next > t:
            intervals.append((t, t_next, state))
        t = t_next
        state = _draw_categorical(rng, trans_cdf[state])


def _tcata_intervals(spec: ProcessSpec, rng: np.random.Generator) -> list[tuple]:
    """One trajectory's (on, off, state) intervals."""
    # states drawn in index order, each state's whole renewal sequence at once
    T = spec.horizon
    intervals = []
    for j in range(spec.q):
        off_spec = spec.tcata[j]["off"]
        on_spec = spec.tcata[j]["on"]
        t = 0.0
        while True:
            t_on = t + off_spec.draw(rng)
            if t_on >= T:
                break
            t_off = min(t_on + on_spec.draw(rng), T)
            if t_off > t_on:
                intervals.append((t_on, t_off, j))
            if t_off >= T:
                break
            t = t_off
    return intervals


def simulate_panel(spec: ProcessSpec, n: int, seed: int) -> Panel:
    """Draw n independent trajectories; deterministic given (spec, n, seed).

    Both modes draw (on, off, state) intervals, built into trajectories by ``_overlay``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    space = StateSpace(spec.states)
    rngs = (np.random.default_rng(np.random.SeedSequence(entropy=[seed, i])) for i in range(n))
    draw = _tcata_intervals if spec.mode == "TCATA" else _tds_intervals
    drawn = [draw(spec, rng) for rng in rngs]
    item = np.repeat(np.arange(n), [len(d) for d in drawn])
    intervals = np.array([iv for d in drawn for iv in d], dtype=np.float64).reshape(-1, 3)
    on, off, state = intervals.T
    trajectories = _overlay(item, on, off, state.astype(np.int64), np.full(n, spec.horizon), spec.q)
    items = [PanelItem(f"sim{i:06d}", "sim", traj) for i, traj in enumerate(trajectories)]
    return Panel(spec.mode, space, items)


class TwoStateTruth:
    """Closed-form occupancy and joint probabilities of a two-state Markov chain.

    With jump rates a (state 0 -> 1) and b (1 -> 0) and P[Y(0)=0] = p0:
    p_0(t) = pi + (p0 - pi) exp(-rho t) with rho = a + b, pi = b / rho.
    """

    def __init__(self, rate_01: float, rate_10: float, p0: float):
        if rate_01 <= 0 or rate_10 <= 0:
            raise ValidationError("rates must be positive")
        if not (0.0 <= p0 <= 1.0):
            raise ValidationError("p0 must be a probability")
        self.rho = rate_01 + rate_10
        self.pi0 = rate_10 / self.rho
        self.beta = p0 - self.pi0

    @classmethod
    def from_spec(cls, spec: ProcessSpec) -> "TwoStateTruth":
        if spec.q != 2 or spec.mode != "TDS":
            raise ValidationError("analytic truth requires a two-state TDS chain")
        for s in spec.sojourn:
            if s.dist != "exponential":
                raise ValidationError("analytic truth requires exponential sojourns")
        return cls(spec.sojourn[0].rate, spec.sojourn[1].rate, float(spec.initial[0]))

    def p(self, j: int, t) -> np.ndarray:
        p0 = self.pi0 + self.beta * np.exp(-self.rho * np.asarray(t, dtype=np.float64))
        return p0 if j == 0 else 1.0 - p0

    def _transition(self, j: int, l: int, tau) -> np.ndarray:
        """P[Y(s + tau) = l | Y(s) = j] for the stationary jump structure."""
        pi_l = self.pi0 if l == 0 else 1.0 - self.pi0
        delta = 1.0 if j == l else 0.0
        return pi_l + (delta - pi_l) * np.exp(-self.rho * np.asarray(tau, dtype=np.float64))

    def joint(self, j: int, l: int, s, t) -> np.ndarray:
        """p_jl(s, t) elementwise; handles either ordering of s and t."""
        s = np.asarray(s, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        fwd = self.p(j, s) * self._transition(j, l, np.abs(t - s))
        bwd = self.p(l, t) * self._transition(l, j, np.abs(s - t))
        return np.where(s <= t, fwd, bwd)

    def gamma(self, j: int, l: int, s, t) -> np.ndarray:
        return self.joint(j, l, s, t) - self.p(j, np.asarray(s)) * self.p(l, np.asarray(t))

    def _int_p0(self, u0: float, u1: float) -> float:
        pi, b, r = self.pi0, self.beta, self.rho
        return pi * (u1 - u0) + b / r * (math.exp(-r * u0) - math.exp(-r * u1))

    def _int_p0_sq(self, u0: float, u1: float) -> float:
        pi, b, r = self.pi0, self.beta, self.rho
        return (
            pi * pi * (u1 - u0)
            + 2 * pi * b / r * (math.exp(-r * u0) - math.exp(-r * u1))
            + b * b / (2 * r) * (math.exp(-2 * r * u0) - math.exp(-2 * r * u1))
        )

    def mean_error_sq(self, grid: CellGrid, p_hat: np.ndarray, weights: np.ndarray) -> float:
        """Exact ||p_hat - p||_H^2 for a step-function estimate on the grid."""
        total = 0.0
        nodes = grid.nodes
        for a in range(grid.m):
            u0, u1 = nodes[a], nodes[a + 1]
            ip = self._int_p0(u0, u1)
            ip2 = self._int_p0_sq(u0, u1)
            dlt = u1 - u0
            c0 = p_hat[0, a]
            c1 = p_hat[1, a]
            # state 1 curve is 1 - p_0, integrals follow by expansion
            total += weights[0] * (c0 * c0 * dlt - 2 * c0 * ip + ip2)
            total += weights[1] * (c1 * c1 * dlt - 2 * c1 * (dlt - ip) + (dlt - 2 * ip + ip2))
        return total


def _replicate_seed(seed: int, block: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=[seed, block, rep])
    return int(ss.generate_state(1, np.uint64)[0])


def consistency_experiment(
    spec: ProcessSpec,
    n_values: Sequence[int],
    seed: int,
    *,
    replicates: int = 20,
    truth: Optional[TwoStateTruth] = None,
    kernel_cells: int = 0,
) -> list[dict]:
    """Estimation errors against the analytic truth for growing sample sizes.

    Returns one row per (n, replicate) with the exact H-norm error of the
    mean curve and, when ``kernel_cells > 0``, the spectral-norm error of
    the assembled covariance matrices on a uniform grid of that many cells
    (truth kernel evaluated at cell midpoints).
    """
    if truth is None:
        truth = TwoStateTruth.from_spec(spec)
    w = np.full(2, 0.5)
    rows = []
    for block, n in enumerate(n_values):
        for rep in range(replicates):
            panel = simulate_panel(spec, n, _replicate_seed(seed, block, rep))
            grid = union_grid(panel.trajectories)
            p_hat = mean_on_grid(panel, grid)
            err = math.sqrt(max(truth.mean_error_sq(grid, p_hat, w), 0.0))
            row = {"n": n, "replicate": rep, "mean_error": err}
            if kernel_cells > 0:
                row["kernel_error"] = _kernel_error(panel, truth, kernel_cells, w)
            rows.append(row)
    return rows


def _kernel_error(panel: Panel, truth: TwoStateTruth, cells: int, w: np.ndarray) -> float:
    grid = CellGrid.uniform(cells, panel.trajectories[0].horizon)
    field_hat = estimate_field(panel, grid, exact=False)
    mid = grid.midpoints
    ss, tt = np.meshgrid(mid, mid, indexing="ij")
    q, m = 2, grid.m
    cov = np.empty((q * m, q * m))
    for j in range(q):
        for l in range(q):
            cov[j * m:(j + 1) * m, l * m:(l + 1) * m] = truth.gamma(j, l, ss, tt)
    field_true = ProbabilityField(
        grid, panel.space,
        np.vstack([truth.p(0, mid), truth.p(1, mid)]),
        0.5 * (cov + cov.T), panel.n, panel.mode,
    )
    scheme = WeightScheme("equal", w)
    diff = assemble_operator(field_hat, scheme) - assemble_operator(field_true, scheme)
    return float(np.abs(np.linalg.eigvalsh(diff)).max())


def median_errors(rows: list[dict], key: str = "mean_error") -> dict[int, float]:
    """Median error per sample size, for rate checks."""
    by_n: dict[int, list[float]] = {}
    for row in rows:
        by_n.setdefault(row["n"], []).append(row[key])
    return {n: float(np.median(v)) for n, v in sorted(by_n.items())}
