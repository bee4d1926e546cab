"""Tree-based aggregation — Algorithm 3 of the paper.

The stream is laid over the leaves of a complete binary tree; each internal
node holds the sum of the leaves below it and receives fresh discrete
Gaussian noise ``N_Z(0, L / (2 rho))``, where ``L`` is the number of dyadic
levels.  Every stream element is folded into at most ``L`` noisy nodes, so
the whole output sequence is ``rho``-zCDP by composition (Theorem A.1), and
every prefix sum is the sum of at most ``O(log t)`` noisy nodes, giving
error ``O(sqrt(log T * log t / rho))`` (Theorem A.2).

The paper writes the noise scale as ``log T / (2 rho)``; we instantiate the
logarithm as ``L = T.bit_length() = floor(log2 T) + 1``, the exact number of
dyadic levels that can complete within horizon ``T``, so the zCDP ledger is
tight for every ``T``, not only powers of two.

The implementation follows Algorithm 3's streaming form: ``alpha_j`` buffers
accumulate partial sums per level, a completed level folds all lower levels,
and the prefix estimate sums the noisy buffers selected by the binary
representation of ``t``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.dp.discrete_gaussian import DiscreteGaussianSampler, calibrate_sigma_sq
from repro.streams.base import StreamCounter

__all__ = ["BinaryTreeCounter"]


def _lowest_set_bit(t: int) -> int:
    """Index of the least-significant 1 bit of ``t >= 1``."""
    return (t & -t).bit_length() - 1


class BinaryTreeCounter(StreamCounter):
    """The classic binary-tree (dyadic interval) counter.

    Attributes
    ----------
    levels:
        Number of dyadic levels ``L = floor(log2 T) + 1``.
    sigma_sq:
        Per-node noise variance ``L / (2 rho)``.
    """

    def __init__(self, horizon, rho, seed=None):
        super().__init__(horizon, rho, seed=seed)
        self.levels = max(int(self.horizon).bit_length(), 1)
        if self.noiseless:
            self.sigma_sq = Fraction(0)
        else:
            self.sigma_sq = calibrate_sigma_sq(self.levels, self.rho)
        self._sampler = DiscreteGaussianSampler(self.sigma_sq, seed=self._generator)
        # alpha[j]: exact sum buffered at level j; alpha_noisy[j]: its noisy
        # release.  Both live until a higher level folds them.
        self._alpha = [0] * self.levels
        self._alpha_noisy = [0] * self.levels

    def _feed(self, z: int) -> float:
        t = self._t
        i = _lowest_set_bit(t)
        # Fold all lower levels plus the new element into level i.
        self._alpha[i] = sum(self._alpha[:i]) + z
        for j in range(i):
            self._alpha[j] = 0
            self._alpha_noisy[j] = 0
        self._alpha_noisy[i] = self._alpha[i] + self._sampler.sample()
        # The dyadic decomposition of [1, t] is exactly the set bits of t.
        estimate = 0
        for j in range(self.levels):
            if t >> j & 1:
                estimate += self._alpha_noisy[j]
        return float(estimate)

    def _state_payload(self) -> dict:
        return {
            "alpha": [int(a) for a in self._alpha],
            "alpha_noisy": [int(a) for a in self._alpha_noisy],
        }

    def _load_payload(self, payload: dict) -> None:
        self._alpha = [int(a) for a in payload["alpha"]]
        self._alpha_noisy = [int(a) for a in payload["alpha_noisy"]]

    def nodes_in_estimate(self, t: int) -> int:
        """Number of noisy nodes summed into the estimate at time ``t``."""
        if t <= 0:
            return 0
        return bin(t).count("1")

    def error_stddev(self, t: int) -> float:
        """Stddev of the estimate at ``t``: ``sqrt(popcount(t) * sigma^2)``."""
        return math.sqrt(self.nodes_in_estimate(t) * float(self.sigma_sq))
