"""Tree counter with Honaker's variance-optimal bottom-up refinement.

Honaker (2015, "Efficient Use of Differentially Private Binary Trees")
observed that the noisy binary tree is redundant: an internal node's value is
measured directly *and* implied by the sum of its children.  Combining the
two estimators with inverse-variance weights strictly reduces the variance of
every node estimate, and the refinement is pure post-processing of the noisy
node values, so privacy is unchanged.

Unlike :class:`~repro.streams.binary_tree.BinaryTreeCounter`, which only
measures a node when it completes (folding unfinished levels without their
own noise), this counter measures **every** dyadic node — leaves included —
when its interval completes.  Each stream element then appears in exactly one
node per level, so the per-node variance is the same ``L / (2 rho)`` as the
plain tree, while the refined prefix estimates are strictly better.  This is
the first of the "improved stream counters" the paper's §1.1 suggests
plugging into Algorithm 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.dp.discrete_gaussian import DiscreteGaussianSampler, calibrate_sigma_sq
from repro.streams.base import StreamCounter
from repro.streams.binary_tree import _lowest_set_bit

__all__ = ["HonakerCounter"]


@dataclass
class _Node:
    """A completed dyadic node awaiting its parent."""

    true_sum: int
    estimate: float
    variance: float


class HonakerCounter(StreamCounter):
    """Binary tree counter with bottom-up inverse-variance refinement.

    The ``pending`` buffer holds, per level, the refined estimate of the
    completed node whose parent has not completed yet.  At any time ``t``
    the non-empty buffers tile ``[1, t]`` exactly (they are the dyadic
    decomposition of the prefix), so the prefix estimate is simply their
    sum.
    """

    def __init__(self, horizon, rho, seed=None, noise_method="exact"):
        super().__init__(horizon, rho, seed=seed, noise_method=noise_method)
        self.levels = max(int(self.horizon).bit_length(), 1)
        if self.noiseless:
            self.sigma_sq = Fraction(0)
        else:
            self.sigma_sq = calibrate_sigma_sq(self.levels, self.rho)
        self._sampler = DiscreteGaussianSampler(
            self.sigma_sq, seed=self._generator, method=self.noise_method
        )
        self._pending: list[_Node | None] = [None] * (self.levels + 1)

    def _measure(self, true_sum: int) -> float:
        return float(true_sum + self._sampler.sample())

    def _feed(self, z: int) -> float:
        t = self._t
        sigma_sq = float(self.sigma_sq)
        # Leaf node for time t: its own fresh measurement.
        cur = _Node(true_sum=z, estimate=self._measure(z), variance=sigma_sq)
        # Every level j <= lowest_set_bit(t) completes at time t; combine the
        # stored left sibling with the freshly refined right child, measure
        # the parent directly, and fuse the two estimators.
        for j in range(_lowest_set_bit(t)):
            left = self._pending[j]
            assert left is not None, "dyadic bookkeeping out of sync"
            self._pending[j] = None
            node_true = left.true_sum + cur.true_sum
            direct = self._measure(node_true)
            bottom_est = left.estimate + cur.estimate
            bottom_var = left.variance + cur.variance
            if sigma_sq == 0:
                fused_est, fused_var = float(node_true), 0.0
            else:
                weight_direct = (1.0 / sigma_sq) / (1.0 / sigma_sq + 1.0 / bottom_var)
                fused_est = weight_direct * direct + (1.0 - weight_direct) * bottom_est
                fused_var = 1.0 / (1.0 / sigma_sq + 1.0 / bottom_var)
            cur = _Node(true_sum=node_true, estimate=fused_est, variance=fused_var)
        self._pending[_lowest_set_bit(t)] = cur
        return math.fsum(node.estimate for node in self._pending if node is not None)

    def _state_payload(self) -> dict:
        return {
            "pending": [
                None
                if node is None
                else [int(node.true_sum), float(node.estimate), float(node.variance)]
                for node in self._pending
            ],
        }

    def _load_payload(self, payload: dict) -> None:
        self._pending = [
            None if entry is None else _Node(int(entry[0]), float(entry[1]), float(entry[2]))
            for entry in payload["pending"]
        ]

    def node_variance(self, level: int) -> float:
        """Refined variance of a completed node at the given level.

        Level-0 nodes keep the raw variance ``sigma^2``; every level above
        satisfies ``v_j = 1 / (1/sigma^2 + 1/(2 v_{j-1}))``, which converges
        to ``sigma^2 * (sqrt(2) - 1) * ...`` — strictly below ``sigma^2``.
        """
        sigma_sq = float(self.sigma_sq)
        if sigma_sq == 0:
            return 0.0
        variance = sigma_sq
        for _ in range(level):
            variance = 1.0 / (1.0 / sigma_sq + 1.0 / (2.0 * variance))
        return variance

    def error_stddev(self, t: int) -> float:
        """Stddev of the prefix estimate: sum of refined node variances."""
        if t <= 0:
            return 0.0
        total = 0.0
        for j in range(self.levels + 1):
            if t >> j & 1:
                total += self.node_variance(j)
        return math.sqrt(total)
