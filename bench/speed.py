"""Machine-speed calibration for the timed sections.

On a shared virtual machine the speed of one core drifts, over seconds to
minutes, by up to 1.7x for the same instructions, which swamps the run-to-run
differences the benchmark must resolve. Each timed call is therefore also
reported scaled to a reference speed:

    scaled = elapsed * REFERENCE_PROBE_S / median probe time

where a short fixed probe loop runs PROBES times right before and right
after the call. Probes run outside the call: taken inside it, they measured
the cache state the call left rather than the machine's speed. The probe
mixes what fragsim's hot paths do (interpreted float arithmetic, tuple
building, sorting, numpy scalar calls), so both slow down together. The
probes draw no random numbers and touch no fragsim state. Raw times are
kept in the run record.
"""

import math
import statistics
import time

import numpy as np

# The probe's time on an uncontended core of the 2-core 2.1 GHz Xeon
# virtual machine the benchmark was defined on; it fixes the unit, not the
# ratios.
REFERENCE_PROBE_S = 0.0008
PROBES = 5


def _loop():
    acc = 0.0
    parts = []
    for i in range(1200):
        x = math.sqrt(i + 1.5) * 0.5
        parts.append(x)
        acc += x ** 0.3
    parts.sort(reverse=True)
    ranked = tuple(parts[:200])
    half = np.asarray(0.5)
    for i in range(120):
        acc += float(np.where(half > 0.25, half ** -0.5, 0.0)) + i
    return acc + len(ranked)


def probe():
    """Seconds the probe loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Meter:
    """Accumulates raw seconds and seconds at the reference speed over calls."""

    def __init__(self):
        self.raw = self.scaled = 0.0

    def time(self, fn):
        samples = [probe() for _ in range(PROBES)]
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            samples.extend(probe() for _ in range(PROBES))
            self.raw += elapsed
            self.scaled += (elapsed * REFERENCE_PROBE_S
                            / statistics.median(samples))
