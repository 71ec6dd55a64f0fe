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
from typing import Optional

import numpy as np

from .errors import SchemaError, ValidationError
from .ingest import Panel, _number
from .trajectory import StateSpace

__all__ = [
    "SojournSpec",
    "ProcessSpec",
    "simulate_panel",
]

_ROW_TOL = 1e-12
# sojourns one trajectory may draw (TCATA: off/on cycles over all its states); a
# finite rate far above 1 / horizon would otherwise keep drawing for ever
_MAX_SOJOURNS = 10 ** 5


def _field(d, key: str, kind, what: str = "spec"):
    """``kind(d[key])``; SchemaError if ``d`` is no JSON object, lacks ``key``, or kind fails."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise SchemaError(f"{what} missing {key!r}")
    try:
        return kind(d[key])
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{what} {key!r} has an ill-typed value {d[key]!r}") from None


def _numbers(value) -> np.ndarray:
    """A number, or nested lists of numbers, as a float array; TypeError for any other entry."""
    entries = np.asarray(value, dtype=object)
    return np.array([_number(v) for v in entries.flat]).reshape(entries.shape)


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
            if not 0 < self.rate < math.inf:  # NaN and inf would never end a trajectory
                raise ValidationError(
                    f"exponential rate must be positive and finite, got {self.rate}")
        elif self.dist == "uniform":
            if not 0 < self.low < self.high < math.inf:
                raise ValidationError("uniform bounds must satisfy 0 < low < high < inf, "
                                      f"got ({self.low}, {self.high})")
        else:
            raise ValidationError(f"unknown sojourn distribution {self.dist!r}")

    def draw(self, rng: np.random.Generator) -> float:
        u = rng.random()
        if self.dist == "exponential":
            return -math.log1p(-u) / self.rate
        return self.low + (self.high - self.low) * u

    @classmethod
    def from_dict(cls, d: dict) -> "SojournSpec":
        dist = _field(d, "dist", str, "sojourn")
        if dist == "exponential":
            return cls(dist, rate=_field(d, "rate", _number, "sojourn"))
        if dist == "uniform":
            return cls(dist, low=_field(d, "low", _number, "sojourn"),
                       high=_field(d, "high", _number, "sojourn"))
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
        if not 0 < self.horizon < math.inf:
            raise ValidationError(f"horizon must be positive and finite, got {self.horizon}")
        init = np.asarray(self.initial, dtype=np.float64)
        trans = np.asarray(self.transition, dtype=np.float64)
        # each check is the condition a valid value meets, which NaN fails
        if not (init.shape == (q,) and np.all(init >= 0) and abs(init.sum() - 1) <= _ROW_TOL):
            raise ValidationError("initial distribution must be nonnegative and sum to 1")
        if not (trans.shape == (q, q) and np.all(trans >= 0)):
            raise ValidationError(f"transition matrix must be nonnegative with shape ({q}, {q})")
        if not np.all(np.diag(trans) == 0):
            raise ValidationError("transition matrix must have a zero diagonal")
        rows = trans.sum(axis=1)
        if q == 1:
            if not rows[0] == 0:
                raise ValidationError("single-state chain cannot transition")
        elif not np.all(np.abs(rows - 1.0) <= _ROW_TOL):
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

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        """The spec of a JSON object; SchemaError for a missing key or an ill-typed value."""
        return cls(  # keyword arguments are evaluated in order: "states" checks d first
            states=_field(d, "states", _labels),
            horizon=_field(d, "horizon", _number),
            initial=_field(d, "initial", _numbers),
            transition=_field(d, "transition", _numbers),
            sojourn=_field(d, "sojourn", lambda v: tuple(map(SojournSpec.from_dict, v))),
            tcata=None if d.get("tcata") is None else _field(d, "tcata", lambda v: tuple(
                {key: _field(p, key, SojournSpec.from_dict, "tcata pair") for key in ("off", "on")}
                for p in v)),
        )


def _draw_categorical(rng: np.random.Generator, cdf: np.ndarray) -> int:
    u = rng.random()
    return min(int(np.searchsorted(cdf, u, side="right")), cdf.size - 1)


def _too_many_sojourns(key: str) -> ValidationError:
    return ValidationError(f"{key}: more than {_MAX_SOJOURNS} sojourns before the horizon; "
                           "lower the rates or the horizon")


def _tds_intervals(spec: ProcessSpec, rng: np.random.Generator, key: str) -> list[tuple]:
    """One trajectory's (on, off, state) sojourns, a zero-length one included."""
    T = spec.horizon
    trans_cdf = np.cumsum(spec.transition, axis=1)
    state = _draw_categorical(rng, np.cumsum(spec.initial))
    intervals = []
    t = 0.0
    for _ in range(_MAX_SOJOURNS):
        t_next = t + spec.sojourn[state].draw(rng)
        if t_next >= T or spec.q == 1:
            intervals.append((t, T, state))
            return intervals
        intervals.append((t, t_next, state))
        t = t_next
        state = _draw_categorical(rng, trans_cdf[state])
    raise _too_many_sojourns(key)


def _tcata_intervals(spec: ProcessSpec, rng: np.random.Generator, key: str) -> list[tuple]:
    """One trajectory's (on, off, state) intervals."""
    # states drawn in index order, each state's whole renewal sequence at once
    T = spec.horizon
    intervals = []
    cycles = iter(range(_MAX_SOJOURNS))  # shared by all states
    for j in range(spec.q):
        off_spec = spec.tcata[j]["off"]
        on_spec = spec.tcata[j]["on"]
        t = 0.0
        for _ in cycles:
            t_on = t + off_spec.draw(rng)
            if t_on >= T:
                break
            t_off = min(t_on + on_spec.draw(rng), T)
            intervals.append((t_on, t_off, j))
            if t_off >= T:
                break
            t = t_off
        else:
            raise _too_many_sojourns(key)
    return intervals


def simulate_panel(spec: ProcessSpec, n: int, seed: int) -> Panel:
    """Draw n independent trajectories; deterministic given (spec, n, seed).

    Both modes draw (on, off, state) intervals, which ``Panel._of`` merges into runs.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    space = StateSpace(spec.states)
    rngs = (np.random.default_rng(np.random.SeedSequence(entropy=[seed, i])) for i in range(n))
    draw = _tcata_intervals if spec.mode == "TCATA" else _tds_intervals
    keys = [(f"sim{i:06d}", "sim") for i in range(n)]
    drawn = [draw(spec, rng, "%s/%s" % key) for rng, key in zip(rngs, keys)]
    item = np.repeat(np.arange(n), [len(d) for d in drawn])
    intervals = np.array([iv for d in drawn for iv in d], dtype=np.float64).reshape(-1, 3)
    on, off, state = intervals.T
    return Panel._of(spec.mode, space, keys, np.full(n, spec.horizon), item,
                     state.astype(np.int64), on, off)
