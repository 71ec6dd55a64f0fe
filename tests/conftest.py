"""Shared panel generators and a memory probe for the test suite.

Random panels place their breakpoints on a 1/20 lattice so that union grids
stay small enough for the brute-force oracles.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from catfpca import CategoricalTrajectory, Panel, PanelItem, StateSpace

LATTICE = 20


def fuzz(max_examples):
    """Hypothesis settings that draw the same examples on every run and keep no database."""
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


def traced_peak(fn, *args, **kwargs):
    """fn's result and its peak memory by tracemalloc, to which numpy reports its buffers."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_tds_trajectory(rng, q, lattice=LATTICE):
    k = int(rng.integers(0, 5))
    if k:
        interior = np.sort(rng.choice(np.arange(1, lattice), size=k, replace=False))
        breaks = np.concatenate([[0.0], interior / lattice, [1.0]])
    else:
        breaks = np.array([0.0, 1.0])
    states = [int(rng.integers(0, q))]
    for _ in range(len(breaks) - 2):
        step = int(rng.integers(1, q))
        states.append((states[-1] + step) % q)
    return CategoricalTrajectory(breaks, [{s} for s in states])


def random_tcata_trajectory(rng, q, lattice=LATTICE):
    k = int(rng.integers(0, 6))
    if k:
        interior = np.sort(rng.choice(np.arange(1, lattice), size=k, replace=False))
        breaks = np.concatenate([[0.0], interior / lattice, [1.0]])
    else:
        breaks = np.array([0.0, 1.0])
    subsets = []
    for _ in range(len(breaks) - 1):
        mask = rng.random(q) < 0.4
        subsets.append(set(np.nonzero(mask)[0].tolist()))
    return CategoricalTrajectory(breaks, subsets)


def random_panel(rng, mode="TDS", n=None, q=None, lattice=LATTICE):
    q = q if q is not None else int(rng.integers(2, 5))
    n = n if n is not None else int(rng.integers(2, 11))
    gen = random_tds_trajectory if mode == "TDS" else random_tcata_trajectory
    items = [
        PanelItem(f"s{i:02d}", "c0", gen(rng, q, lattice)) for i in range(n)
    ]
    space = StateSpace([f"S{j}" for j in range(q)])
    return Panel(mode, space, items)


def mirror_panel():
    """Two-sample fixture with hand-computed decomposition (lambda_1 = 1/4)."""
    space = StateSpace(["S1", "S2"])
    t1 = CategoricalTrajectory([0.0, 0.5, 1.0], [{0}, {1}])
    t2 = CategoricalTrajectory([0.0, 0.5, 1.0], [{1}, {0}])
    return Panel("TDS", space, [PanelItem("a", "x", t1), PanelItem("b", "x", t2)])


@pytest.fixture
def mirror():
    return mirror_panel()


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
