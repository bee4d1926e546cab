"""Basic discrete-Gaussian mechanisms.

Stage 1 of Algorithm 1 privatizes, at every update step, the histogram of
length-``k`` window patterns by adding independent discrete Gaussian noise
``N_Z(0, (T-k+1)/(2 rho))`` to every bin and charging ``rho/(T-k+1)`` zCDP
per step, for ``rho`` zCDP in total over the ``T-k+1`` steps (Theorem 3.1).

A note on sensitivity conventions.  The paper states "the sensitivity of the
count ``C_s^t`` is 1", which corresponds to the *add/remove* neighboring
relation: one individual's presence contributes to exactly one bin per step,
so the per-step histogram vector has L2 sensitivity 1 and the per-step cost
is ``1/(2 sigma^2)``.  Under the *substitution* relation (replace one
individual's whole history), a step histogram changes in at most two cells
(one decrement, one increment) and the L2 sensitivity is ``sqrt(2)``,
doubling the cost.  :class:`GaussianHistogramMechanism` takes the
sensitivity as a parameter with default 1.0 so the paper's accounting is
reproduced exactly, while the stricter convention remains one argument away.
"""

from __future__ import annotations

import numpy as np

from repro.dp.accountant import gaussian_rho
from repro.dp.discrete_gaussian import DiscreteGaussianSampler, upper_sigma_sq
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike

__all__ = ["GaussianHistogramMechanism", "noisy_count"]


def noisy_count(
    count: int,
    sigma_sq,
    seed: SeedLike = None,
    method: str = "exact",
) -> int:
    """Return ``count + N_Z(0, sigma_sq)`` — one scalar noisy count."""
    sampler = DiscreteGaussianSampler(sigma_sq, seed=seed, method=method)
    return int(count) + sampler.sample()


class GaussianHistogramMechanism:
    """Discrete-Gaussian noisy histogram with zCDP accounting.

    Parameters
    ----------
    n_bins:
        Number of histogram cells (``2**k`` in Algorithm 1).
    sigma_sq:
        Per-bin discrete Gaussian variance.  Algorithm 1 uses
        ``(T - k + 1) / (2 rho)``.
    sensitivity:
        L2 sensitivity of the histogram vector between neighboring datasets;
        the per-release zCDP cost is ``sensitivity^2 / (2 sigma_sq)``.  The
        default 1.0 matches the paper's add/remove accounting; pass
        ``sqrt(2)`` for substitution neighbors.
    method:
        Sampler backend, ``"exact"`` or ``"vectorized"``.
    """

    def __init__(
        self,
        n_bins: int,
        sigma_sq,
        sensitivity: float = 1.0,
        seed: SeedLike = None,
        method: str = "exact",
    ):
        if n_bins <= 0:
            raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = int(n_bins)
        self.sigma_sq = upper_sigma_sq(sigma_sq)
        self.sensitivity = float(sensitivity)
        self._sampler = DiscreteGaussianSampler(self.sigma_sq, seed=seed, method=method)

    @property
    def rho_per_release(self) -> float:
        """zCDP cost charged for each call to :meth:`release`."""
        if self.sigma_sq == 0:
            return float("inf")
        return gaussian_rho(self.sensitivity, float(self.sigma_sq))

    def release(self, counts: np.ndarray) -> np.ndarray:
        """Return ``counts`` plus fresh iid discrete Gaussian noise per bin.

        ``counts`` must be an integer vector of length ``n_bins``.  The
        result is an ``int64`` vector; it may contain negative entries —
        handling those is the caller's job (Algorithm 1 pads, the clamping
        baseline clamps).
        """
        counts = np.asarray(counts)
        if counts.shape != (self.n_bins,):
            raise ConfigurationError(
                f"expected a vector of {self.n_bins} counts, got shape {counts.shape}"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise ConfigurationError(f"counts must be integers, got dtype {counts.dtype}")
        noise = self._sampler.sample_array(self.n_bins)
        return counts.astype(np.int64) + noise
