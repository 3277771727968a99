"""How fast the host runs: a fixed reference loop, and a probe that times it
while an invocation runs.

The benchmark host is a shared VM whose speed swings by up to 2x within a
minute, so timings are divided by the reference loop's time measured
alongside them.  The loop shares no code with synchrolens, so no change to
the program can move it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np

REFERENCE_ITERS = 100_000    # one reference unit, "ref"
# seconds one reference unit takes on this host when nothing slows it
# (Xeon, 2 vCPUs, numpy 2.4); set-up times are scaled to this speed
NOMINAL_REF_S = 0.25
PROBE_ITERS = 400
PROBE_PERIOD_S = 0.25


def reference_loop(iters):
    """Seconds for `iters` passes of a loop of small numpy operations."""
    z = np.linspace(0.1, 1.0, 16) + 0j
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(iters):
        z = z * (1 + 1e-9j)
        acc += float(np.abs(z).max())
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed while an invocation runs.

    Every PROBE_PERIOD_S a SIGALRM handler times a short reference chunk.
    Python runs signal handlers in the main thread, so the chunk shares the
    core, and whatever slows it, with the work it interrupts.  Processes the
    invocation forks (the sweep pool) start the same timer and add their
    chunks to shared memory; where they exist, they stand for the host's
    speed, since the forking process then only waits.
    """

    MAX_CHILDREN = 64

    def __init__(self):
        self.owner_pid = os.getpid()
        self.active = False
        self.chunks = []
        self.forks = 0
        self.slot = 0
        self.shared = multiprocessing.RawArray("d", 2 * self.MAX_CHILDREN)
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._after_fork_in_child)

    def _before_fork(self):
        self.forks += 1

    def _after_fork_in_child(self):
        if self.active:
            self.slot = (self.forks - 1) % self.MAX_CHILDREN
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _tick(self, signum, frame):
        chunk = reference_loop(PROBE_ITERS)
        if os.getpid() == self.owner_pid:
            self.chunks.append(chunk)
        else:
            self.shared[2 * self.slot] += chunk
            self.shared[2 * self.slot + 1] += 1

    def __enter__(self):
        self.chunks = []
        self.shared[:] = [0.0] * len(self.shared)
        self.active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False

    def reference_s(self):
        """Seconds one reference unit took, on average, during the probe."""
        child_s, child_n = sum(self.shared[0::2]), sum(self.shared[1::2])
        if child_n:
            mean = child_s / child_n
        else:
            chunks = self.chunks or [reference_loop(PROBE_ITERS)]
            mean = sum(chunks) / len(chunks)
        return mean * REFERENCE_ITERS / PROBE_ITERS
