"""Square-root matrix-factorization counter (Fichtenberger et al. 2022).

Continual counting releases ``A z`` where ``A`` is the ``T x T`` lower-
triangular all-ones matrix.  Any factorization ``A = B C`` yields the
mechanism ``A z + B xi`` with ``xi ~ N(0, sigma^2 I)`` and
``sigma^2 = max_col_norm(C)^2 / (2 rho)`` for ``rho``-zCDP.  The
"constant matters" paper shows the square-root factorization
``B = C = A^(1/2)`` is near-optimal: ``A^(1/2)`` is lower-triangular
Toeplitz with coefficients

    f_0 = 1,   f_k = f_{k-1} * (2k - 1) / (2k)

(the absolute values of the binomial series of ``(1 - x)^(-1/2)``).  Every
column has the same norm ``sqrt(sum_k f_k^2)``, which grows like
``(1/pi) * ln T`` — better constants than the binary tree for moderate
``T``, and the error stddev is *identical at every time step* rather than
oscillating with ``popcount(t)``.

The noise here is continuous Gaussian (the factorization has irrational
entries, so integer-valued noise cannot be carried through ``B`` exactly);
estimates are therefore floats.  Algorithm 2 rounds counter outputs to
integers before monotonizing, so this counter drops in wherever the tree
counter does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.streams.base import StreamCounter

__all__ = ["SqrtFactorizationCounter", "sqrt_factorization_coefficients"]


def sqrt_factorization_coefficients(length: int) -> np.ndarray:
    """First ``length`` Toeplitz coefficients of ``A^(1/2)``.

    ``f_0 = 1`` and ``f_k = f_{k-1} (2k-1)/(2k)``; equivalently
    ``f_k = binom(2k, k) / 4^k``.
    """
    if length <= 0:
        return np.zeros(0, dtype=np.float64)
    coeffs = np.empty(length, dtype=np.float64)
    coeffs[0] = 1.0
    for k in range(1, length):
        coeffs[k] = coeffs[k - 1] * (2 * k - 1) / (2 * k)
    return coeffs


class SqrtFactorizationCounter(StreamCounter):
    """Continual counter using the ``A^(1/2) A^(1/2)`` factorization."""

    def __init__(self, horizon, rho, seed=None):
        super().__init__(horizon, rho, seed=seed)
        self._coeffs = sqrt_factorization_coefficients(self.horizon)
        col_norm_sq = float(np.sum(self._coeffs**2))
        if self.noiseless:
            self.sigma_sq = 0.0
        else:
            self.sigma_sq = col_norm_sq / (2.0 * self.rho)
        # xi_j drawn lazily, one per time step; the correlated noise at time
        # t is sum_j f_{t-j} xi_j, i.e. a dot product with the reversed
        # coefficient prefix.
        self._xi: list[float] = []

    def _feed(self, z: int) -> float:
        if self.sigma_sq == 0:
            self._xi.append(0.0)
            return float(self._true_sum)
        self._xi.append(float(self._generator.normal(0.0, math.sqrt(self.sigma_sq))))
        t = self._t
        xi = np.asarray(self._xi)
        correlated = float(np.dot(self._coeffs[:t][::-1], xi))
        return self._true_sum + correlated

    def _state_payload(self) -> dict:
        return {"xi": [float(x) for x in self._xi]}

    def _load_payload(self, payload: dict) -> None:
        self._xi = [float(x) for x in payload["xi"]]

    def error_stddev(self, t: int) -> float:
        """Stddev at ``t``: ``sigma * ||f_{0..t-1}||_2`` (same for all t≈T)."""
        if t <= 0 or self.sigma_sq == 0:
            return 0.0
        prefix_norm_sq = float(np.sum(self._coeffs[:t] ** 2))
        return math.sqrt(self.sigma_sq * prefix_norm_sq)
