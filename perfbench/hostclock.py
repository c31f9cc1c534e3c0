"""Host-speed trace for normalizing task times on a machine whose speed drifts.

The shared VM the benchmark was written on runs the same code up to 2x
faster or slower from one half-minute to the next (neighbour load on the
host), and that drift moves every wall time of a run together.  A timer
signal runs a fixed calibration kernel five times a second; the kernel's
timings trace the host's speed through the run, also inside long
Python-level tasks such as the L = 3 chiral VQE.  A task's normalized time
is its wall time divided by the host's slowdown around it, that is by the
harmonic mean of the kernel times near the task over ``REFERENCE_KERNEL_S``.
The samples are evenly spaced in wall time, so the harmonic mean weights
each spell of the host by the work a task gets done in it: over nine runs
of the L = 3 chiral VQE it left a coefficient of variation of 1.9%, against
4.4% for the median and 7.8% raw.  The kernel touches nothing in the
package, so a change to the package cannot move it.

The kernel runs in the main thread, from the signal handler, because it
must run where the tasks run: on the reference host, the same kernel timed
from a background thread (which the OS may place on the other vCPU)
correlated -0.17 with a ring VQE task's time over 2 s windows, against
0.95 when timed in the task's own thread.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.optimize import minimize

PERIOD_S = 0.2
# Typical kernel time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11.7, scipy 1.17.1), so normalized times read as times on that host.
REFERENCE_KERNEL_S = 2.0e-3
# Samples this close to a task's interval count towards its slowdown.
MARGIN_S = 1.0

_Q = np.diag([1.0, 2.0, 3.0, 4.0])


def _objective(x):
    return float(x @ _Q @ x + np.sin(x).sum())


def kernel() -> float:
    """Five SLSQP iterations on a fixed 4-parameter function: the same mix
    of scipy call overhead, small numpy arrays and Python callbacks as a
    VQE task.  Timed back to back with a ring and a chiral VQE task on the
    reference host while its speed swung by 25% (coefficient of variation
    over 2 s windows), the tasks' time over this kernel's varied by 8%;
    over a pure-Python integer loop's, by 13-14%.  scipy's SLSQP keeps its
    state in the call, so the handler may interrupt another SLSQP run."""
    return minimize(_objective, np.ones(4), method="SLSQP", options={"maxiter": 5}).fun


class HostClock:
    """Context manager that samples the kernel from ``SIGALRM``.

    ``spent`` is the handler's total time, which callers subtract from the
    wall time of whatever ran while it fired.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Harmonic mean of the kernel times within ``MARGIN_S`` of
        [start, end] over the reference; that of the whole run when no
        sample is that close."""
        near = [dt for t, dt in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        pool = near or [dt for _, dt in self.samples]
        if not pool:
            return 1.0
        return statistics.harmonic_mean(pool) / REFERENCE_KERNEL_S
