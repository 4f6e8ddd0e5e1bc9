"""A fixed speed probe that takes the host's momentary speed out of the
end-to-end timings.

The baseline machine is a shared VM whose speed wanders: a fixed
numpy kernel took 9.5 to 18 ms over two minutes, on both CPUs at once
and in CPU time as much as in wall time, in phases of seconds to
minutes. No run length averages that out. So every timed operation
runs under ``Paced``: the probe runs right before the operation, every
``INTERVAL_S`` during it (from a timer signal, so the program is not
touched) and right after it. Each stretch of the operation between two
probes is scaled by ``NOMINAL_S`` over the mean of those two probes,
and the probes' own time is left out. The result is the operation's
time at the speed where the probe takes ``NOMINAL_S``. The probe is
benchmark code and shares nothing with the program, so a change to the
program moves the scaled time as it moves the wall time; the wall
times are recorded next to it.

The probe has two kernels, because the host slows compute and memory
traffic by different amounts: one shaped like the program's recurrent
inner loop (a small matrix-vector product and a tanh per step, in a
Python loop) and one shaped like the bag-of-words fit (a matrix-vector
product and its transpose over a matrix larger than the L2 cache).
Over a seven-minute record on the baseline machine, the median over
36 s of a bag-of-words fit scaled by the sum of both kernels spread
0.033 (as a share of its median), against 0.055 unscaled and 0.057
scaled by the first kernel alone; for a ``predict`` call the figures
were 0.023, 0.122 and 0.028.
"""

import signal
import time

import numpy as np

DIM = 64
STEPS = 600
ROWS, COLS = 160, 4096  # 5 MB: past the L2 cache, like a bag-of-words matrix
PASSES = 3
REPEATS = 2
# about the probe's time on the baseline machine (a shared 2-core Intel
# Xeon VM); only the scale of the reported times depends on it
NOMINAL_S = 4e-3
INTERVAL_S = 0.5

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((DIM, DIM)) / np.sqrt(DIM)
_B = _rng.standard_normal(DIM)
_M = _rng.random((ROWS, COLS))
_U = _rng.random(COLS)


def _recurrent() -> float:
    x = np.zeros(DIM)
    t0 = time.perf_counter()
    for _ in range(STEPS):
        x = np.tanh(_W @ x + _B)
    return time.perf_counter() - t0


def _streaming() -> float:
    t0 = time.perf_counter()
    for _ in range(PASSES):
        _M.T @ (_M @ _U)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of one pass of both kernels, each the fastest of a few
    back to back (so an interrupt does not scale a whole stretch)."""
    return min(_recurrent() for _ in range(REPEATS)) + min(_streaming() for _ in range(REPEATS))


class Paced:
    """Context manager that probes the speed before, during and after
    its body; afterwards ``wall`` is the body's wall time without the
    probes and ``scaled`` the same time at nominal speed."""

    def __enter__(self):
        self.marks: list[tuple[float, float, float]] = []  # (probe start, probe end, probe seconds)
        self._probing = False
        self._mark()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._probing or self._mark())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        self.wall = self.scaled = 0.0
        for (_, end, before), (start, _, after) in zip(self.marks, self.marks[1:]):
            self.wall += start - end
            self.scaled += (start - end) * NOMINAL_S / ((before + after) / 2)
        return False

    def _mark(self):
        self._probing = True  # a timer signal during a probe is dropped, not nested
        t0 = time.perf_counter()
        seconds = probe()
        self.marks.append((t0, time.perf_counter(), seconds))
        self._probing = False
