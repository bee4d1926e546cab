"""Naive clamping baseline — what goes wrong without padding (§3.1).

"One possible way to address [negative noisy counts] is clamping the noisy
counts to be non-negative, but this will break the consistency guarantee
when continually releasing the synthetic data."

This baseline runs Algorithm 1's pipeline with ``n_pad = 0`` and, whenever
a pair target goes negative, clamps it — exactly the fallback the paper
warns about.  Two measurable consequences, exercised by the padding
ablation (`abl-npad`):

* zero counts cannot be resurrected at later rounds within a pair whose
  total collapsed, so small bins get stuck at 0 (upward bias on the
  complement);
* the clamp events themselves (counted in ``negative_count_events``) are
  frequent, whereas Algorithm 1's padding keeps them away with probability
  ``1 - beta``.
"""

from __future__ import annotations

from repro.core.fixed_window import FixedWindowSynthesizer
from repro.rng import SeedLike

__all__ = ["ClampingBaseline"]


class ClampingBaseline(FixedWindowSynthesizer):
    """Algorithm 1 with no padding and silent clamping of negative counts.

    A thin configuration of :class:`FixedWindowSynthesizer`: ``n_pad = 0``
    and ``on_negative="redistribute"`` (the clamp), so every other behaviour
    — privacy accounting, consistency projection, record persistence — is
    identical and differences in the benchmarks are attributable to the
    padding alone.
    """

    def __init__(
        self,
        horizon: int,
        window: int,
        rho: float,
        *,
        seed: SeedLike = None,
        sensitivity: float = 1.0,
    ):
        super().__init__(
            horizon,
            window,
            rho,
            n_pad=0,
            on_negative="redistribute",
            seed=seed,
            sensitivity=sensitivity,
        )
