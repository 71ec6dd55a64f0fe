"""Piecewise-constant categorical trajectories on [0, T], and cell grids.

Segments follow the right-continuous convention: the value on [t_k, t_{k+1})
is segments[k], and the value at the horizon T is the last segment's value.
State j of a trajectory is the 0/1 step function that is 1 on the segments
whose subset holds j, and so on finitely many maximal on-runs.  A
``Panel`` stores those runs of all its items as flat arrays and builds
trajectories from them only when asked.  All types are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from operator import eq
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "StateSpace",
    "CategoricalTrajectory",
    "CellGrid",
    "union_grid",
]


class StateSpace:
    """Ordered list of q distinct state labels with stable indices."""

    __slots__ = ("states", "_index")

    def __init__(self, states: Sequence[str]):
        states = tuple(str(s) for s in states)
        if len(states) == 0:
            raise ValidationError("state space must contain at least one state")
        if any(s == "" for s in states):
            raise ValidationError("state labels must be non-empty")
        if len(set(states)) != len(states):
            raise ValidationError(f"state labels must be unique, got {states}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_index", {s: j for j, s in enumerate(states)})

    def __setattr__(self, name, value):
        raise AttributeError("StateSpace is immutable")

    @property
    def q(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown state label {label!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, StateSpace) and self.states == other.states

    def __hash__(self) -> int:
        return hash(self.states)

    def __repr__(self) -> str:
        return f"StateSpace({list(self.states)!r})"


def _as_breakpoints(breakpoints) -> np.ndarray:
    b = np.asarray(breakpoints, dtype=np.float64)
    if b.ndim != 1 or b.size < 2:
        raise ValidationError("breakpoints must be a 1-d array with at least two entries")
    if not np.isfinite(b).all():
        raise ValidationError("breakpoints must be finite")
    if b[0] != 0.0:
        raise ValidationError(f"first breakpoint must be 0, got {b[0]}")
    if (b[1:] <= b[:-1]).any():
        raise ValidationError("breakpoints must be strictly increasing (zero-length segments are rejected)")
    b.setflags(write=False)
    return b


class CategoricalTrajectory:
    """A map [0, T] -> subset of state indices, constant on m segments.

    Canonical form: adjacent segments always carry different subsets
    (equal neighbours are merged on construction).  TDS trajectories carry
    singleton subsets; TCATA trajectories carry arbitrary subsets
    (the empty set included).
    """

    __slots__ = ("breakpoints", "segments")

    def __init__(self, breakpoints, segments: Iterable[Iterable[int]]):
        b = _as_breakpoints(breakpoints)
        segs = list(map(frozenset, segments))
        states = frozenset().union(*segs)
        if any(type(j) is not int for j in states):  # every state index becomes an int
            segs = [frozenset(map(int, s)) for s in segs]
            states = frozenset().union(*segs)
        if len(segs) != b.size - 1:
            raise ValidationError(
                f"got {len(segs)} segments for {b.size - 1} intervals"
            )
        if min(states, default=0) < 0:
            s = next(s for s in segs if min(s, default=0) < 0)
            raise ValidationError(f"negative state index in segment subset {sorted(s)}")
        # merge adjacent equal subsets so the representation is canonical
        if any(map(eq, segs[1:], segs)):
            keep = [0] + [k for k in range(1, len(segs)) if segs[k] != segs[k - 1]]
            b = np.concatenate([b[keep], b[-1:]])
            b.setflags(write=False)
            segs = [segs[k] for k in keep]
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "segments", tuple(segs))

    def __setattr__(self, name, value):
        raise AttributeError("CategoricalTrajectory is immutable")

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def evaluate(self, t: float) -> frozenset[int]:
        """Subset active at time t (right-continuous; t == T gives the last segment)."""
        b = self.breakpoints
        if not (b[0] <= t <= b[-1]):
            raise DomainError(f"t={t} outside [0, {b[-1]}]")
        k = int(np.searchsorted(b, t, side="right")) - 1
        if k >= len(self.segments):  # t == T
            k = len(self.segments) - 1
        return self.segments[k]

    def max_state_index(self) -> int:
        return max(frozenset().union(*self.segments), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CategoricalTrajectory)
            and self.segments == other.segments
            and np.array_equal(self.breakpoints, other.breakpoints)
        )

    def __hash__(self) -> int:
        return hash((self.segments, self.breakpoints.tobytes()))

    def __repr__(self) -> str:
        return (
            f"CategoricalTrajectory(T={self.horizon:g}, "
            f"{self.n_segments} segments)"
        )


class CellGrid:
    """Strictly increasing nodes 0 = u_0 < ... < u_m = T defining m quadrature cells."""

    __slots__ = ("nodes", "lengths")

    def __init__(self, nodes):
        u = _as_breakpoints(nodes)
        object.__setattr__(self, "nodes", u)
        d = np.diff(u)
        d.setflags(write=False)
        object.__setattr__(self, "lengths", d)

    def __setattr__(self, name, value):
        raise AttributeError("CellGrid is immutable")

    @classmethod
    def uniform(cls, m: int, horizon: float = 1.0) -> "CellGrid":
        if not 1 <= m < np.iinfo(np.intp).max:
            raise ValidationError(f"cell count must be >= 1 and fit an array length, got {m}")
        return cls(np.linspace(0.0, horizon, m + 1))

    @property
    def m(self) -> int:
        return self.lengths.size

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, CellGrid) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self) -> int:
        return hash(self.nodes.tobytes())

    def __repr__(self) -> str:
        return f"CellGrid(m={self.m}, T={self.horizon:g})"


def union_grid(trajectories: Sequence) -> CellGrid:
    """Sorted, deduplicated union of all breakpoints.

    Every input trajectory is constant on every cell of the result, which
    makes all time integrals downstream exact sums.
    """
    return _union(np.concatenate([t.breakpoints for t in trajectories] or [np.empty(0)]),
                  np.array([t.horizon for t in trajectories]))


def _union(breakpoints: np.ndarray, horizons: np.ndarray) -> CellGrid:
    """The union grid of trajectories with these breakpoints, one after another, and horizons."""
    if horizons.size == 0:
        raise ValidationError("union_grid needs at least one trajectory")
    if np.any(horizons != horizons[0]):
        bad = np.flatnonzero(horizons != horizons[0]).tolist()
        raise ValidationError(
            f"trajectories {bad} have horizon != {horizons[0]}; normalize first"
        )
    # np.unique's own sort-and-compare, without its lazy import of numpy.ma
    nodes = np.sort(breakpoints)
    keep = np.ones(nodes.size, dtype=bool)
    keep[1:] = nodes[1:] != nodes[:-1]
    return CellGrid(nodes[keep])
