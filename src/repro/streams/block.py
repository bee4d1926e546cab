"""Two-level square-root-decomposition stream counter.

Splits the horizon into blocks of ``ceil(sqrt(T))`` steps.  Each element is
measured twice: once as a per-step singleton inside its block, and once in
the completed block total — so per-node variance ``1 / rho`` suffices for
``rho``-zCDP.  The prefix estimate sums the completed noisy block totals
plus the noisy singletons of the open block: at most
``t / B + B ≈ 2 sqrt(T)`` noise terms, giving error ``O(T^(1/4) / sqrt(rho))``.

Asymptotically this sits between :class:`SimpleCounter` (``sqrt(T)``) and
the tree counter (``polylog T``), but its constants win for very small
horizons — exactly the regime of the paper's monthly surveys (``T = 12``) —
which is why the counter ablation (`abl-counter`) includes it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.dp.discrete_gaussian import DiscreteGaussianSampler, calibrate_sigma_sq
from repro.streams.base import StreamCounter

__all__ = ["BlockCounter"]


class BlockCounter(StreamCounter):
    """Square-root block decomposition with discrete Gaussian noise."""

    def __init__(self, horizon, rho, seed=None, block_size=None):
        super().__init__(horizon, rho, seed=seed)
        if block_size is None:
            block_size = max(1, math.isqrt(self.horizon - 1) + 1)
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = int(block_size)
        if self.noiseless:
            self.sigma_sq = Fraction(0)
        else:
            # Each element sits in exactly 2 noisy nodes (its singleton and
            # its block total): 2 * 1/(2 sigma^2) = rho.
            self.sigma_sq = calibrate_sigma_sq(2, self.rho)
        self._sampler = DiscreteGaussianSampler(self.sigma_sq, seed=self._generator)
        self._closed_blocks_noisy = 0  # sum of noisy totals of completed blocks
        self._open_block_true = 0  # exact sum of the open block
        self._open_singletons_noisy = 0  # sum of noisy singletons in open block

    def _feed(self, z: int) -> float:
        self._open_block_true += z
        self._open_singletons_noisy += z + self._sampler.sample()
        estimate = self._closed_blocks_noisy + self._open_singletons_noisy
        if self._t % self.block_size == 0:
            # Block boundary: release the block total and reset the open block.
            self._closed_blocks_noisy += self._open_block_true + self._sampler.sample()
            self._open_block_true = 0
            self._open_singletons_noisy = 0
        return float(estimate)

    def _state_payload(self) -> dict:
        return {
            "closed_blocks_noisy": int(self._closed_blocks_noisy),
            "open_block_true": int(self._open_block_true),
            "open_singletons_noisy": int(self._open_singletons_noisy),
        }

    def _load_payload(self, payload: dict) -> None:
        self._closed_blocks_noisy = int(payload["closed_blocks_noisy"])
        self._open_block_true = int(payload["open_block_true"])
        self._open_singletons_noisy = int(payload["open_singletons_noisy"])

    def error_stddev(self, t: int) -> float:
        if t <= 0:
            return 0.0
        closed = t // self.block_size
        open_steps = t % self.block_size
        if open_steps == 0 and closed > 0:
            # At a block boundary the estimate was produced from the block's
            # singletons (the boundary release happens after reporting).
            closed -= 1
            open_steps = self.block_size
        n_terms = closed + open_steps
        return math.sqrt(n_terms * float(self.sigma_sq))
