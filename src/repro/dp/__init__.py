"""Differential-privacy primitives.

This subpackage implements the noise and accounting substrate the paper's
synthesizers are built on:

* :mod:`repro.dp.bernoulli_exp` — exact ``Bernoulli(exp(-gamma))`` sampling
  for rational ``gamma`` (the building block of the exact samplers).
* :mod:`repro.dp.discrete_laplace` — exact discrete Laplace sampling, the
  proposal step of the exact discrete Gaussian sampler.
* :mod:`repro.dp.discrete_gaussian` — the discrete Gaussian ``N_Z(0, sigma^2)``
  of Canonne, Kamath & Steinke (2020), used by every mechanism in the paper:
  exact for every release (one draw in Python integers, a batch in
  integer-only NumPy), plus the ``size=R`` float block that only the
  batched replication engine's accuracy studies draw; and the round-up
  variance calibration every mechanism shares.
* :mod:`repro.dp.accountant` — zero-concentrated DP (zCDP) budget ledger,
  composition, and conversion to approximate DP.
* :mod:`repro.dp.mechanisms` — the sensitivity-1 noisy histogram mechanism
  (stage 1 of Algorithm 1) and scalar noisy counts.
"""

from repro.dp.accountant import ZCDPAccountant, zcdp_to_approx_dp
from repro.dp.bernoulli_exp import bernoulli_exp
from repro.dp.discrete_gaussian import (
    DiscreteGaussianSampler,
    calibrate_sigma_sq,
    sample_discrete_gaussian,
)
from repro.dp.discrete_laplace import sample_discrete_laplace
from repro.dp.mechanisms import GaussianHistogramMechanism, noisy_count
from repro.dp.pmf import (
    discrete_gaussian_normalizer,
    discrete_gaussian_pmf,
    discrete_gaussian_tail,
    discrete_gaussian_variance,
)

__all__ = [
    "discrete_gaussian_pmf",
    "discrete_gaussian_tail",
    "discrete_gaussian_normalizer",
    "discrete_gaussian_variance",
    "ZCDPAccountant",
    "zcdp_to_approx_dp",
    "bernoulli_exp",
    "DiscreteGaussianSampler",
    "calibrate_sigma_sq",
    "sample_discrete_gaussian",
    "sample_discrete_laplace",
    "GaussianHistogramMechanism",
    "noisy_count",
]
