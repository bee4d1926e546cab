"""Noise calibration never realizes more zCDP than it charges.

Every mechanism turns a float budget into a discrete-Gaussian variance
through :func:`repro.dp.discrete_gaussian.calibrate_sigma_sq`, which works
on the exact rational of the float (``Fraction(rho)`` is exact) and only
ever rounds the variance up; the pure-DP Laplace tree does the same for its
scale through :func:`repro.dp.discrete_laplace.calibrate_laplace_scale`.
These tests pin that down at budgets far below anything a rounded rational
could resolve.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.budget import allocate_budget
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.dp.discrete_gaussian import (
    DiscreteGaussianSampler,
    calibrate_sigma_sq,
    upper_sigma_sq,
)
from repro.dp.discrete_laplace import DiscreteLaplaceSampler, calibrate_laplace_scale
from repro.dp.mechanisms import GaussianHistogramMechanism
from repro.streams.bank import BinaryTreeBank, LaplaceTreeBank, SimpleBank
from repro.streams.registry import make_counter

#: From ordinary budgets down to 1e-12, including the row budgets at which
#: a 1e9-denominator approximation of 2*rho rounds up or collapses to 0.
BUDGETS = [1.0, 0.3, 0.005, 1e-4, 3e-10, 2.32e-10, 1.76e-10, 1e-11, 1e-12]


def _realized(numerator, sigma_sq) -> Fraction:
    return Fraction(numerator) / (2 * Fraction(sigma_sq))


def _realized_laplace(levels, scale) -> Fraction:
    """``levels`` nodes of scale ``s`` are ``(levels/s)``-DP: ``(levels/s)^2/2``-zCDP."""
    return _realized(int(levels) ** 2, Fraction(scale) ** 2)


@pytest.mark.parametrize("rho", BUDGETS)
@pytest.mark.parametrize("numerator", [1, 2, 7, 12])
def test_helper_never_realizes_more_than_the_budget(numerator, rho):
    sigma_sq = calibrate_sigma_sq(numerator, rho)
    assert _realized(numerator, sigma_sq) <= Fraction(rho)
    # ... and gives up no more than double precision doing so.
    assert _realized(numerator, sigma_sq) >= Fraction(rho) * (1 - 2**-50)


def test_upper_sigma_sq_keeps_doubles_and_rounds_the_rest_up():
    assert upper_sigma_sq(2.5) == Fraction(5, 2)
    assert upper_sigma_sq(Fraction(1, 4)) == Fraction(1, 4)
    assert upper_sigma_sq(7) == 7
    third = upper_sigma_sq(Fraction(1, 3))
    assert third > Fraction(1, 3)
    assert float(third) == math.nextafter(1 / 3, math.inf)
    huge = Fraction(10**400, 3)
    assert upper_sigma_sq(huge) == huge


@pytest.mark.parametrize("rho", [0.005, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("bank_cls", [BinaryTreeBank, SimpleBank])
def test_every_bank_row_realizes_at_most_its_budget(bank_cls, rho):
    horizon = 64
    rho_rows = allocate_budget(horizon, rho, "corollary_b1")
    bank = bank_cls(horizon, rho_rows, seeds=0, noise_method="exact")
    if bank_cls is BinaryTreeBank:
        numerators = bank.levels
    else:
        numerators = bank.row_horizons()
    for numerator, sigma_sq, rho_b in zip(numerators, bank.sigma_sq_rows, rho_rows):
        assert _realized(int(numerator), sigma_sq) <= Fraction(float(rho_b))


@pytest.mark.parametrize("rho", [0.005, 3e-10, 1e-12])
@pytest.mark.parametrize(
    "name", ["binary_tree", "simple", "honaker", "block", "laplace_tree"]
)
def test_scalar_counters_realize_at_most_their_budget(name, rho):
    counter = make_counter(name, horizon=16, rho=rho, seed=0)
    if name == "laplace_tree":
        assert _realized_laplace(counter.levels, counter.scale) <= Fraction(rho)
        return
    # Per-node cost times the nodes an element touches: L for the trees,
    # T for the simple counter, 2 for the block counter.
    touched = {"binary_tree": counter.horizon.bit_length(), "simple": 16, "block": 2}
    touched["honaker"] = touched["binary_tree"]
    assert _realized(touched[name], counter.sigma_sq) <= Fraction(rho)


@pytest.mark.parametrize("rho", BUDGETS)
@pytest.mark.parametrize("levels", [1, 4, 9, 12])
def test_laplace_helper_never_realizes_more_than_the_budget(levels, rho):
    scale = calibrate_laplace_scale(levels, rho)
    assert _realized_laplace(levels, scale) <= Fraction(rho)
    # ... and is the smallest scale on its 1e-9 grid that does so.
    assert _realized_laplace(levels, scale - Fraction(1, 10**9)) > Fraction(rho)


@pytest.mark.parametrize("rho", [0.005, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("horizon", [12, 64, 512])
def test_every_laplace_bank_row_realizes_at_most_its_budget(horizon, rho):
    rho_rows = allocate_budget(horizon, rho, "corollary_b1")
    bank = LaplaceTreeBank(horizon, rho_rows, seeds=0, noise_method="exact")
    for levels, scale, rho_b in zip(bank.levels, bank.scale_rows, rho_rows):
        assert _realized_laplace(levels, scale) <= Fraction(float(rho_b))
    # Rows appended by extend_rows are calibrated by the same rule.
    rho_new = allocate_budget(8, rho, "corollary_b1")
    bank.extend_rows(8, rho_new)
    for levels, scale, rho_b in zip(bank.levels[-8:], bank.scale_rows[-8:], rho_new):
        assert _realized_laplace(levels, scale) <= Fraction(float(rho_b))


@given(st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False))
def test_laplace_sampler_never_rounds_a_scale_down(scale):
    for method in ("exact", "vectorized"):
        rounded = DiscreteLaplaceSampler(scale, seed=0, method=method).scale
        assert rounded >= Fraction(scale)
        assert rounded.denominator <= 10**12
        assert rounded - Fraction(scale) <= Fraction(1, 10**12)


@pytest.mark.parametrize("rho", [0.005, 1e-9, 1e-12])
def test_window_histogram_realizes_at_most_its_share(rho):
    synth = FixedWindowSynthesizer(12, 3, rho, seed=0)
    assert _realized(synth.update_steps, synth.sigma_sq) <= Fraction(rho)


def test_mechanism_charges_the_noise_it_draws():
    mechanism = GaussianHistogramMechanism(4, Fraction(1, 3), seed=0)
    assert mechanism.sigma_sq >= Fraction(1, 3)
    assert Fraction(mechanism.rho_per_release) <= Fraction(3, 2)
    assert DiscreteGaussianSampler(Fraction(1, 3)).sigma_sq == mechanism.sigma_sq


@pytest.mark.parametrize("horizon, rho", [(4096, 0.001), (2048, 0.0005)])
def test_tiny_row_budgets_build_and_observe(horizon, rho):
    # Their smallest per-threshold budgets (~1.8e-10 and ~2.3e-10) once
    # rounded 2*rho to zero and raised ZeroDivisionError.
    synth = CumulativeSynthesizer(horizon, rho, seed=0)
    release = synth.observe(np.array([1, 0, 1, 1, 0], dtype=np.int8))
    assert synth.t == 1
    assert np.isfinite(release.threshold_table()).all()
    assert synth.accountant.spent <= rho
