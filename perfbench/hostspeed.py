"""The shared host's speed, sampled while the timed work runs.

On a shared host the same work takes up to 70% longer in a slow phase
than in a fast one, and the phases last from under a second to many
minutes.  ``probe`` times a fixed piece of pure-Python work of the
kinds dirconv does: random reads from a 4 MiB buffer, larger than a
core's L2 cache, as its tables are; ``Fraction`` arithmetic on small
integers, as in exact sweeps; and on integers of 100 to 200 bits, as
exact values grow.  It belongs to the benchmark, so no change to dirconv
changes it.

``Sampler`` runs the probe from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds of wall time while the timed work runs, so the
samples see the same phases as the work.  A time divided by the mean
probe time of its interval and multiplied by ``PROBE_REF_S`` is that
time at a fixed host speed: the speed at which one probe takes
``PROBE_REF_S`` seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from fractions import Fraction

PROBE_REF_S = 0.0014       # about one probe on a 2-vCPU shared x86-64 host
INTERVAL_S = 0.1           # probes take 1 to 2% of the timed work

_BUFFER = array("d", [0.0]) * (1 << 19)   # 4 MiB, every page written
_MASK = len(_BUFFER) - 1
_SMALL = [Fraction(i * 7919 + 1, i + 3) for i in range(90)]
_LARGE = [Fraction(3 ** (60 + i) + i, 2 ** (70 + i) + 1) for i in range(40)]


def probe() -> float:
    """Seconds for the fixed probe work at this moment."""
    t0 = time.perf_counter()
    x, acc = 12345, 0.0
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & _MASK
        acc += _BUFFER[x]
    for fractions in (_SMALL, _LARGE):
        q = Fraction(0)
        for a in fractions:
            q += a * a
    return time.perf_counter() - t0


def adjust(seconds: float, samples) -> float:
    """``seconds`` at the reference host speed, given the probes of its interval."""
    return seconds * PROBE_REF_S / statistics.fmean(samples)


class Sampler:
    """Probes the host at the start, every ``INTERVAL_S`` seconds, and at the end.

    ``spent`` is the time the timer's probes took; a caller that times
    the work inside the ``with`` block subtracts it.  The start and end
    probes lie outside that block's timing.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._saved = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(probe())
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.samples.append(probe())
        return False
