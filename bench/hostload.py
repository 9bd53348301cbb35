"""Times measured against a reference probe, to cancel load from the host.

On a shared host the same request can take up to 1.9 times longer for
seconds at a time while a neighbour loads the machine.  The slowdown shows
in wall and in thread CPU time alike, so it is not time spent descheduled,
and a whole 20-second run can sit inside it: on a 2-vCPU VM, 20-second runs
of one workload spread by 10 to 30% between their quartiles, and by how much
depended on the hour.

A fixed probe of standard-library Fraction and dict work, which never
touches the package, slows down with the package's own code.  While a run
measures, a timer runs the probe every PERIOD_S in the main thread.  An
interval's time, less the probe time spent inside it, is scaled by
REFERENCE_PROBE_S over the median probe around the interval: it reads as the
time the interval would take on a host where the probe takes
REFERENCE_PROBE_S, about this VM's probe time when its host is quiet.  The
same recorded runs spread by about 3% when scaled so.

The scaling treats the parent and the child of a comparison alike; a change
that makes the package itself faster moves the scaled figures as much as the
raw ones.  The raw figures and the median probe go to the run's metadata.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.002


class HostLoad:
    """Probe samples taken on a timer while the context is open."""

    def __init__(self):
        rng = random.Random(0x10AD)
        self._keys = [tuple(sorted(rng.sample(range(1, 9), 4))) for _ in range(30)]
        self._values = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                        for _ in range(30)]
        self.samples = []  # (start, seconds) per probe
        self.spent = 0.0  # seconds of probing so far
        self._previous_handler = None

    def probe(self, *_signal_args):
        start = time.perf_counter()
        acc = {}
        for k1, v1 in zip(self._keys, self._values):
            for k2, v2 in zip(self._keys[:20], self._values[:20]):
                k = k1 + k2
                acc[k] = acc.get(k, 0) + v1 * v2
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def median_probe_s(self):
        return statistics.median(s for _, s in self.samples) if self.samples else None

    def scaled(self, start: float, end: float, spent: float) -> float:
        """Seconds of [start, end], less ``spent`` probing, at the reference probe."""
        net = end - start - spent
        around = [s for t, s in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        return net * REFERENCE_PROBE_S / statistics.median(around) if around else net
