"""Host-speed calibration: rescale host times to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts: the same pure-Python
loop takes up to twice as long in some seconds as in others, and process CPU
time follows wall time, so the slowdown is the core's own speed, not waiting
for it.  A raw solve time then measures the neighbours as much as the
program.

On the 2-core VM the benchmark was tuned on, the speed flips between two
levels about 1.7x apart, each held for a second or so.  A *probe* times a
fixed kernel that does not touch the library: a pure-Python loop, small
dense numpy operations and a small scipy CSR matrix-vector product, the
three kinds of work a simulated rank does.  The benchmark probes right
before and right after every timed step and rescales the step's time by
``REFERENCE_PROBE_S / probe``, the mean of the two probes.  Requests to
the service overlap, so there the generator times single kernels while the
service is idle, and each request uses the ones taken nearest to it
(:func:`nearest`).  The result is in host seconds at the reference speed: a
change to the library moves it, a change in host speed mostly cancels.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

#: Probe time on the 2-core VM the benchmark was tuned on, at the faster of
#: its two speeds; rescaled times are host seconds at that speed.
REFERENCE_PROBE_S = 0.005
#: Kernel repetitions per probe; the probe is their median.
ROUNDS = 3
#: Kernel samples :func:`nearest` takes the median of.
NEAREST = 4

_X = np.linspace(0.0, 1.0, 64)
_Y = np.ones(64)
_A = sp.random(256, 256, density=0.04, random_state=1, format="csr")
_V = np.ones(256)


def _kernel() -> float:
    total = 0
    table = {}
    for i in range(12000):
        total += i * i % 7
        table[i & 63] = total
    acc = 0.0
    for _ in range(800):
        acc += float(np.dot(_X, _Y))
        _Y[:] = 0.5 * _X + _Y
    for _ in range(300):
        acc += float((_A @ _V)[0])
    _Y[:] = 1.0
    return acc + table[0]


def kernel_s() -> float:
    """Host seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def probe() -> float:
    """Host seconds of the calibration kernel (median of :data:`ROUNDS`)."""
    return statistics.median(kernel_s() for _ in range(ROUNDS))


def rescale(elapsed: float, *probes: float) -> float:
    """*elapsed* host seconds at the reference speed, given the probe times
    taken around it."""
    return elapsed * REFERENCE_PROBE_S / statistics.fmean(probes)


def nearest(samples: List[Tuple[float, float]], start: float, end: float
            ) -> float:
    """Median kernel time of the :data:`NEAREST` ``(time, kernel seconds)``
    samples taken nearest to the interval ``[start, end]``."""
    def distance(sample):
        return max(start - sample[0], sample[0] - end, 0.0)
    return statistics.median(k for _, k in sorted(samples, key=distance)[:NEAREST])
