"""Machine-speed probe: corrects timings for contention from outside the process.

On a shared virtual machine the same code can run up to 2x slower for seconds
to minutes at a time, and thread CPU time swings with wall time, so this is
contention for the core rather than preemption.  No statistic inside one run
removes a slow phase that lasts the whole run.  So a fixed kernel owned by the
benchmark (numpy leapfrog steps on a fixed 42-DOF system and small GEMMs,
never resonet) is timed every PERIOD_S from a SIGALRM handler on the main
thread, during the timed body.  The probe time tracks the machine's speed at
that moment.

An interval's normalized duration is its measured duration times the mean of
NOMINAL_PROBE_S / probe time over the probes around it: the time it would have
taken on a machine where the probe takes NOMINAL_PROBE_S.  Averaging the speed
(not the probe time) weights each stretch of a long interval by the work done
in it.  ``clock`` excludes the time spent in the handler, so raw durations do
not include the probe.  Set-up is not probed: it is mostly imports, which
this kernel does not track (run.py scales it by numpy's import time instead).
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
NOMINAL_PROBE_S = 3e-3
WINDOW_S = 0.15        # probes this far either side of an interval count for it
_STEPS = 300
_B = np.random.default_rng(20240601).standard_normal((42, 42))
_A = 0.02 * np.eye(42) + 2e-4 * (_B @ _B.T)    # eigenvalues in (0, 4): stable
_DRIVE = np.zeros(42)
_DRIVE[0] = 1e-3
_BUF = np.zeros((3, 42))
# 18 GEMMs of 42x42x140, each below OpenBLAS's threading threshold of
# 4 * 65536 multiply-adds, so that the probe never wakes the BLAS worker
# threads: a worker spinning on the second vCPU after a probe slows the
# workload's own thread.
_WIDE = np.ones((2, 18, 42, 140))
_GRAM = np.zeros((42, 42))
CAPACITY = 8192           # probes kept: over ten minutes at PERIOD_S


def _kernel() -> None:
    """Leapfrog steps and single-threaded GEMMs, in preallocated buffers.

    The workloads mix per-step Python dispatch of small numpy operations with
    BLAS work, so the probe samples both.  It interrupts the workload at
    arbitrary points, so it must not allocate (that would change the
    workload's heap and its peak RSS) and keeps its data small (so that it
    does not evict the workload's working set).
    """
    for a, b in zip(_WIDE[0], _WIDE[1]):
        np.matmul(a, b.T, out=_GRAM)
    u, u_prev, a_u = _BUF
    u.fill(0.0)
    u_prev.fill(0.0)
    for _ in range(_STEPS):
        np.matmul(_A, u, out=a_u)
        np.subtract(a_u, _DRIVE, out=a_u)
        np.subtract(u, u_prev, out=u_prev)
        np.add(u_prev, u, out=u_prev)
        np.subtract(u_prev, a_u, out=u_prev)    # u_prev now holds u[t+1]
        u, u_prev = u_prev, u


class SpeedProbe:
    def __init__(self):
        self._times = np.zeros(CAPACITY)    # clock() at each probe
        self._probe_s = np.zeros(CAPACITY)  # duration of each probe
        self.count = 0
        self.spent = 0.0                    # total seconds inside the handler

    @property
    def times(self) -> np.ndarray:
        return self._times[:self.count]

    @property
    def probe_s(self) -> np.ndarray:
        return self._probe_s[:self.count]

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if self.count < CAPACITY:
            self._times[self.count] = t0 - self.spent
            self._probe_s[self.count] = t1 - t0
            self.count += 1
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter minus the time spent probing."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self) -> None:
        _kernel()
        self._handler(None, None)   # so that every interval has a probe near it
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, start: float, end: float) -> float:
        """Duration of [start, end] (clock units) at the nominal probe speed."""
        times = self.times
        lo, hi = np.searchsorted(times, [start - WINDOW_S, end + WINDOW_S])
        if hi > lo:
            probes = self.probe_s[lo:hi]
        else:
            probes = self.probe_s[[np.argmin(np.abs(times - 0.5 * (start + end)))]]
        return (end - start) * NOMINAL_PROBE_S * float(np.mean(1.0 / probes))
