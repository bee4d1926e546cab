"""The naive stream counter: fresh noise on every prefix sum.

Changing one stream element by 1 shifts every subsequent prefix sum by 1, so
releasing all ``T`` prefix sums with independent noise costs ``T`` Gaussian
releases of sensitivity 1: ``sigma^2 = T / (2 rho)`` for ``rho``-zCDP in
total.  The per-step error is therefore ``Theta(sqrt(T / rho))`` — the
``sqrt(T)`` baseline that the tree-based mechanism improves to polylog.
Included as the baseline for the counter ablation (`abl-counter`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.dp.discrete_gaussian import DiscreteGaussianSampler, calibrate_sigma_sq
from repro.streams.base import StreamCounter

__all__ = ["SimpleCounter"]


class SimpleCounter(StreamCounter):
    """Independent discrete Gaussian noise on each prefix sum."""

    def __init__(self, horizon, rho, seed=None):
        super().__init__(horizon, rho, seed=seed)
        if self.noiseless:
            self._sigma_sq = Fraction(0)
        else:
            self._sigma_sq = calibrate_sigma_sq(self.horizon, self.rho)
        self._sampler = DiscreteGaussianSampler(self._sigma_sq, seed=self._generator)

    @property
    def sigma_sq(self) -> Fraction:
        """Noise variance used for every prefix-sum release."""
        return self._sigma_sq

    def _feed(self, z: int) -> float:
        return float(self._true_sum + self._sampler.sample())

    def error_stddev(self, t: int) -> float:
        return math.sqrt(float(self._sigma_sq))
