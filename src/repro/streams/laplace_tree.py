"""Pure-DP tree counter with discrete Laplace noise.

The paper's Appendix A notes: "the tree-based aggregation algorithm was
initially described using Laplace noise, resulting [in] a pure (eps, 0)-DP
algorithm [21, 15]."  This counter reproduces that variant: per-node
discrete Laplace noise with scale ``L / eps`` gives ``eps``-DP for the whole
output sequence (each element touches at most ``L`` noisy nodes, each a
sensitivity-1 release at ``eps / L``).

To slot into Algorithm 2's zCDP accounting, the constructor takes ``rho``
like every other counter and converts via the standard implication
``eps``-DP ⟹ ``(eps^2 / 2)``-zCDP, i.e. ``eps = sqrt(2 rho)``; the counter
then satisfies *both* ``sqrt(2 rho)``-pure-DP and ``rho``-zCDP, because
:func:`~repro.dp.discrete_laplace.calibrate_laplace_scale` rounds the scale
up.  Use :meth:`from_epsilon` to parameterize by the pure-DP budget
directly.

Laplace noise has heavier tails than the discrete Gaussian at the same zCDP
level, so this counter generally loses the accuracy comparison
(`abl-counter` quantifies by how much) — the price of the stronger pure-DP
guarantee.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.dp.discrete_laplace import DiscreteLaplaceSampler, calibrate_laplace_scale
from repro.exceptions import ConfigurationError
from repro.streams.base import StreamCounter
from repro.streams.binary_tree import _lowest_set_bit

__all__ = ["LaplaceTreeCounter"]


class LaplaceTreeCounter(StreamCounter):
    """Binary-tree counter with per-node discrete Laplace noise (pure DP).

    Attributes
    ----------
    epsilon:
        The pure-DP guarantee of the whole output sequence
        (``sqrt(2 rho)`` when constructed from a zCDP budget).
    levels:
        Number of dyadic levels ``L``.
    scale:
        Per-node Laplace scale ``L / epsilon``.
    """

    def __init__(self, horizon, rho, seed=None):
        super().__init__(horizon, rho, seed=seed)
        self.levels = max(int(self.horizon).bit_length(), 1)
        if self.noiseless:
            self.epsilon = math.inf
            self.scale = Fraction(0)
        else:
            self.epsilon = math.sqrt(2.0 * self.rho)
            self.scale = calibrate_laplace_scale(self.levels, self.rho)
        self._sampler = (
            None
            if self.scale == 0
            else DiscreteLaplaceSampler(self.scale, seed=self._generator)
        )
        self._alpha = [0] * self.levels
        self._alpha_noisy = [0] * self.levels

    @classmethod
    def from_epsilon(cls, horizon: int, epsilon: float, seed=None) -> "LaplaceTreeCounter":
        """Construct from a pure-DP budget ``epsilon`` directly."""
        if not epsilon > 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        return cls(horizon, epsilon**2 / 2.0, seed=seed)

    def _noise(self) -> int:
        return 0 if self._sampler is None else self._sampler.sample()

    def _feed(self, z: int) -> float:
        t = self._t
        i = _lowest_set_bit(t)
        self._alpha[i] = sum(self._alpha[:i]) + z
        for j in range(i):
            self._alpha[j] = 0
            self._alpha_noisy[j] = 0
        self._alpha_noisy[i] = self._alpha[i] + self._noise()
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

    def error_stddev(self, t: int) -> float:
        """``sqrt(popcount(t) * Var(Lap_Z(scale)))``."""
        if t <= 0 or self._sampler is None:
            return 0.0
        nodes = bin(t).count("1")
        return math.sqrt(nodes * self._sampler.variance)
