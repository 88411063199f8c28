"""How fast the machine runs right now, and times scaled to a fixed speed.

The benchmark shares a few cores of a host with other tenants, and the
host's speed for the same work swings by 1.5x or more over tens of seconds
(measured: one capacity-symmetric pass took 18.3 s and the identical next
one 12.7 s).
A ``Sampler`` runs a small fixed reference kernel, which uses no symcap
code, from a SIGALRM handler every ``INTERVAL_S`` of wall time while a
measured stretch of the program runs.  The kernel's mean time over the
stretch says how slow the machine was during it, and turns the
stretch's time into seconds at the reference speed:

    scaled = (elapsed - time spent in the kernel) * REF_SECONDS / mean kernel time

Over six identical capacity-symmetric passes, the raw times had a
coefficient of variation of 7% and the scaled ones 3% (6% when sampling
every 50 ms).  The handler runs between bytecodes of the main thread, so it needs
no locking; it adds about 4% to the elapsed time, which is taken off again.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
# Roughly the kernel's mean time on an idle 2-vCPU Intel Xeon host, so that
# scaled seconds read within ~15% of wall seconds there.  It is the scale of
# every scaled time: results are comparable only under the same value.
REF_SECONDS = 3.5e-4

_X = np.linspace(0.0, 1.0, 256).reshape(64, 4)
_EYE = np.eye(4)


def reference_kernel() -> float:
    """Fixed work in the program's style: small-array numpy calls from a
    Python loop, then plain integer arithmetic."""
    total = 0.0
    for _ in range(12):
        edges = np.roll(_X, -1, axis=0) - _X
        total += float(np.abs(edges @ _EYE).max(axis=1).sum())
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return total + acc


class Sampler:
    """Times one measured stretch, the ``with`` block, and the reference
    kernel once at its start and then every ``INTERVAL_S`` within it.

    Afterwards ``wall`` and ``cpu`` are the stretch's elapsed and process
    CPU seconds, ``durations`` the kernel's times, and ``scaled_wall`` and
    ``scaled_cpu`` the stretch's seconds at the reference speed.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.wall = self.cpu = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        reference_kernel()  # warm, unmeasured
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        """Mean kernel time over ``REF_SECONDS``: how many times slower than
        the reference the machine ran during the stretch."""
        return statistics.fmean(self.durations) / REF_SECONDS

    def scaled_wall(self) -> float:
        return (self.wall - sum(self.durations)) / self.slowdown()

    def scaled_cpu(self) -> float:
        return (self.cpu - sum(self.durations)) / self.slowdown()
