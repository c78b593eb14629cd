"""A wall clock corrected for the machine's momentary speed.

On a machine shared with other tenants, the same single-threaded job can
take 40% longer from one minute to the next while the process is never
descheduled: the core itself runs slower.  While started, `Clock` times a
fixed probe every PERIOD seconds of wall time (from a SIGALRM handler, so
in the measured thread) and reports an interval as

    (wall time - time spent sampling) * mean(NOMINAL / sample duration),

the time the interval's work would take at the nominal speed, in seconds.
The probe does what homhopf spends its time on, Fraction arithmetic into a
dict, because its slow-down tracks the jobs' closer than a bare integer
loop's does.
"""

import gc
import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

PERIOD = 0.01
# a fixed reference duration for the probe, close to its median duration on
# the machine that recorded the baseline (2 vCPU x86-64, CPython 3.11)
NOMINAL = 60e-6


def _probe():
    acc = {}
    for i in range(30):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, 3)


class Clock:
    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        # a collection the probe's allocations would trigger belongs to the
        # measured work, not to the sampling time subtracted from it
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _probe()
        d = perf_counter() - t0
        if enabled:
            gc.enable()
        self.speeds.append(NOMINAL / d)
        self.spent += d

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return perf_counter(), len(self.speeds), self.spent

    def since(self, mark):
        """(corrected seconds, raw seconds) since `mark`; an interval too
        short to hold a sample uses the latest one."""
        t0, i0, spent0 = mark
        raw = perf_counter() - t0 - (self.spent - spent0)
        window = self.speeds[i0:] or self.speeds[-1:]
        return raw * fmean(window), raw
