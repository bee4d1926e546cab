"""Host speed, measured with a fixed reference unit of work.

The benchmark runs on shared virtual machines whose speed moves by up to
about 2x for minutes to hours, on every workload at once (see the
README).  Longer runs do not average such a state out, so the timed
end-to-end metrics are reported *at reference host speed*: each timing
is multiplied by the host's speed relative to a fixed reference, which
is measured between passes with two small kernels that never touch the
library:

* ``python`` — exact rational arithmetic in the interpreter
  (``fractions.Fraction`` on random integers), the kind of work the
  exact discrete-Gaussian sampler and the service's Python layers do;
* ``numpy`` — passes over a half-million-element array (compare, widen,
  prefix sum, uniform draws), the kind of work the synthetic stores and
  the figure experiments do.

Speed is the geometric mean over the kernels of nominal over measured
duration (each a median of repeated calls), so ``1.0`` means "as fast
as the reference host", and a pass that ran while the host was slow
(speed below 1) has its times shortened in proportion.  A workload whose
timed work is nearly all of one kind is referred to that kernel alone:
a host state does not slow every kind of code alike.  A change to
the library moves the metrics; a change of host state moves mostly the
speed, which every run prints (the README gives how closely each
workload's metrics follow it).
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

#: Duration of one call of each kernel on the reference host (an Intel
#: Xeon vCPU at 2.1 GHz nominal, in its faster state), in seconds.
NOMINAL_S = {"python": 0.0075, "numpy": 0.0090}

#: Timed calls per kernel in one speed sample (the sample is their median).
CALLS = 9

#: Wall seconds of passes between two speed samples.
EVERY_S = 2.0

#: Elements of the numpy kernel's arrays, and its passes over them per call.
NUMPY_SIZE, NUMPY_REPEATS = 500_000, 4


def python_kernel(draws: int = 4000) -> int:
    """Rational arithmetic on seeded random integers, in the interpreter."""
    rng = random.Random(12345)
    bound = Fraction(7, 3)
    total = Fraction(0)
    digest = 0
    for i in range(draws):
        x = Fraction(rng.getrandbits(30), (1 << 20) + i)
        if x < bound:
            total += x
        digest += int(x * 3) % 7
    return digest + total.numerator % 11


class NumpyKernel:
    """Array passes over a fixed int8 array.

    Every buffer is allocated once, before the benchmark's post-input
    resident-set baseline, so sampling the speed between passes neither
    allocates nor leaves freed heap behind to inflate ``peak_rss_mib``.
    """

    def __init__(self):
        self.codes = np.random.default_rng(1).integers(0, 3, size=NUMPY_SIZE, dtype=np.int8)
        self.wide = np.empty(NUMPY_SIZE, dtype=np.int64)
        self.uniform = np.empty(NUMPY_SIZE, dtype=np.float64)
        self.mask = np.empty(NUMPY_SIZE, dtype=bool)

    def __call__(self) -> int:
        generator = np.random.default_rng(7)
        np.equal(self.codes, 1, out=self.mask)
        digest = int(np.count_nonzero(self.mask))
        for _ in range(NUMPY_REPEATS):
            np.copyto(self.wide, self.codes)
            np.cumsum(self.wide, out=self.wide)
            generator.random(out=self.uniform)
            np.less(self.uniform, 0.5, out=self.mask)
            digest += int(self.wide[-1]) + int(np.count_nonzero(self.mask))
        return digest


def _median_call_s(kernel) -> float:
    durations = []
    for _ in range(CALLS):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class HostSpeed:
    """Samples the host's speed relative to the reference host.

    A sample costs about 0.15 s, so a run samples at most every
    ``EVERY_S`` seconds: the passes of one stretch share the speed of
    the two samples around it.
    """

    def __init__(self, kernels=("python", "numpy")):
        makers = {"python": lambda: python_kernel, "numpy": NumpyKernel}
        self.kernels = {name: makers[name]() for name in kernels}
        self.samples: list[float] = []
        self._sampled_at = -math.inf
        for kernel in self.kernels.values():  # warm-up: first calls pay for imports and caches
            kernel()

    def sample(self) -> float:
        """Measure the speed now: 1.0 is the reference host, 0.5 half as fast."""
        logs = [
            math.log(NOMINAL_S[name] / _median_call_s(kernel))
            for name, kernel in self.kernels.items()
        ]
        speed = math.exp(sum(logs) / len(logs))
        self.samples.append(speed)
        self._sampled_at = time.perf_counter()
        return speed

    def due(self) -> bool:
        """Whether the current stretch is long enough to close."""
        return time.perf_counter() - self._sampled_at >= EVERY_S

    def close_stretch(self, pending: list) -> float:
        """Sample, rescale the passes run since the last sample, and forget them.

        Returns the speed of the stretch.
        """
        before = self.samples[-1]
        speed = between(before, self.sample())
        for result in pending:
            result.at_speed(speed)
        pending.clear()
        return speed


def between(before: float, after: float) -> float:
    """Speed over a stretch bracketed by two samples (their geometric mean)."""
    return math.sqrt(before * after)
