"""Machine-speed samples for scaling timings to a reference speed.

The benchmark's host is a shared VM whose speed drifts by a factor of 1.3 to 2
for stretches of seconds to minutes.  The drift shows in user CPU time as well
as in wall time, and it moved the median op time of 30-second runs by up to
30 %.  To see the program's own cost through it, the benchmark times a fixed
numpy kernel alongside the timed work and scales the work's wall time by
``REF_S`` / (mean kernel time), which gives "seconds at reference speed".
The kernel does not use the qbounce package, so a change to the package
cannot move it.  It mixes the two kinds of work the workloads do: small
complex matrix products stepped from Python, as in the pulse stepper, and
masked arithmetic on 20000-element vectors, as in the classical ensemble.
"""

import signal
import time

import numpy as np

# kernel time at the fastest speed seen on a 2-core x86_64 VM (Xeon, 2.1 GHz);
# it only sets the unit, so it stays fixed across machines and commits
REF_S = 0.0120

_rng = np.random.default_rng(0)
_A = _rng.random((50, 50))
_C = _rng.random((50, 50)) + 1j * _rng.random((50, 50))
_X = _rng.random(20000)
_Y = _rng.random(20000)


def kernel():
    """Time one run of the fixed kernel."""
    start = time.perf_counter()
    c = _C
    for k in range(100):
        c = 0.5 * (_A @ (np.exp(-0.01j * k * _X[:50])[:, None] * (_A.T @ c)))
    for _ in range(60):
        z = _X + 0.01 * _Y
        idx = np.nonzero(z > 0.5)[0]
        z[idx] = np.sqrt(z[idx] + _Y[idx])
    return time.perf_counter() - start


def at_reference(wall_s, samples):
    """``wall_s`` scaled by the reference over the mean kernel sample."""
    return wall_s * REF_S * len(samples) / sum(samples)


class Meter:
    """Samples the kernel every ``interval`` seconds while a block runs.

    A SIGALRM handler runs the kernel in the main thread between bytecodes,
    so the samples see the speed of the same core during the timed work.
    One more sample is taken right before and one right after the block.
    ``wall_s`` is the block's wall time without the time spent sampling, and
    ``ref_s`` is that time at reference speed.
    """

    interval = 0.5

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self.wall_s = self.ref_s = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.paused_s += time.perf_counter() - start

    def clock(self):
        """`time.perf_counter` without the time spent sampling so far."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if self.paused_s == paused:  # no sample between the two reads
                return now - paused

    def __enter__(self):
        self.samples.append(kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())
        self.wall_s = elapsed - self.paused_s
        self.ref_s = at_reference(self.wall_s, self.samples)
        return False
