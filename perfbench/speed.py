"""Host speed reference: a low-priority process on the same core as the program.

On a small shared host the speed of a core drifts by up to 1.8x within
seconds to minutes, because other tenants share its caches and memory.
The drift, not the program, then decides which run is fast.  A reference
on another core does not follow it (the cores drift apart), and neither
does a compute-only loop (it does not touch the caches the program
misses in), so the reference here allocates and groups small objects the
way the ingest and export code does, and it runs on the program's own
core, time-sliced with it.

:class:`Speedometer` starts this file as a child process at nice
:data:`NICE`, so the scheduler gives it about a tenth of the core.  The
child repeats :func:`chunk` and records, for each repetition, its end time
(``perf_counter``, the same clock in every process) and its CPU time, which
does not count the time the child waits for the core.
:meth:`Speedometer.factor` turns the chunks of an interval into a speed
factor: their median CPU time divided by :data:`NOMINAL_S`.  A wall time
divided by the factor of its interval is the time at nominal speed.

On a 2-vCPU KVM guest, a pure-Python CSV grouping loop timed this way
varied by 0.58x to 1.30x of its median from one 5 s block to the next; its
normalized time stayed within 0.96x to 1.04x.

Usage as a child (started by :class:`Speedometer`): python3 speed.py OUT
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

NOMINAL_S = 0.0008  # CPU seconds of one chunk on an idle core of a 2-vCPU Xeon KVM guest
NICE = 10           # CFS weight 110 against 1024: about 10% of the core
MIN_SAMPLES = 50    # fewer chunks in an interval: take the nearest ones instead


def chunk(n: int = 2000) -> int:
    """A fixed piece of object churn: build rows of tuples, group them in a dict."""
    rows = [(i, float(i) * 0.5, str(i)) for i in range(n)]
    groups: dict[int, list[float]] = {}
    for key, value, _ in rows:
        groups.setdefault(key & 255, []).append(value)
    return len(groups)


class Speedometer:
    """Runs the reference child for the lifetime of a ``with`` block.

    The child inherits the CPU affinity of the caller, so the caller pins
    itself (and with it every process it starts) to one core first.
    """

    def __init__(self, out: Path, env: dict):
        self.out = out
        self.env = env
        self.t = self.cpu = None

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out)], env=self.env,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode == 0 and self.out.exists():
            import numpy as np

            data = np.fromfile(self.out, dtype=np.float64).reshape(-1, 2)
            self.t, self.cpu = data[:, 0], data[:, 1]
        return False

    def factor(self, start: float, end: float) -> float:
        """Median chunk CPU time over [start, end], in units of NOMINAL_S (nan if none)."""
        import numpy as np

        if self.t is None or self.t.size == 0:
            return float("nan")
        inside = (self.t >= start) & (self.t <= end)
        if inside.sum() >= MIN_SAMPLES:
            cpu = self.cpu[inside]
        else:
            mid = 0.5 * (start + end)
            cpu = self.cpu[np.argsort(np.abs(self.t - mid))[:MIN_SAMPLES]]
        return float(np.median(cpu)) / NOMINAL_S


def _child(out: Path) -> int:
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    samples = array("d")
    while not stop:
        c0 = time.thread_time()
        chunk()
        samples.append(time.perf_counter())
        samples.append(time.thread_time() - c0)
    with open(out, "wb") as fh:
        samples.tofile(fh)
    return 0


if __name__ == "__main__":
    sys.exit(_child(Path(sys.argv[1])))
