"""Tests for zCDP accounting and DP conversions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.accountant import (
    ZCDPAccountant,
    gaussian_rho,
    gaussian_sigma_sq,
    zcdp_to_approx_dp,
)
from repro.exceptions import ConfigurationError, PrivacyBudgetError


class TestConversions:
    def test_zcdp_to_approx_dp_formula(self):
        rho, delta = 0.5, 1e-6
        expected = rho + 2 * math.sqrt(rho * math.log(1 / delta))
        assert zcdp_to_approx_dp(rho, delta) == pytest.approx(expected)

    def test_zero_rho_gives_zero_epsilon(self):
        assert zcdp_to_approx_dp(0.0, 1e-6) == 0.0

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            zcdp_to_approx_dp(0.1, 0.0)
        with pytest.raises(ConfigurationError):
            zcdp_to_approx_dp(0.1, 1.0)

    def test_negative_rho(self):
        with pytest.raises(ConfigurationError):
            zcdp_to_approx_dp(-0.1, 1e-6)

    def test_roundtrip_ordering(self):
        # 1-DP implies 1/2-zCDP (eps^2 / 2); converting back is lossy upward.
        eps = zcdp_to_approx_dp(0.5, 1e-9)
        assert eps > 1.0

    @given(st.floats(min_value=1e-4, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_epsilon_monotone_in_rho(self, rho):
        assert zcdp_to_approx_dp(rho, 1e-6) < zcdp_to_approx_dp(rho * 1.5, 1e-6)


class TestGaussianCalibration:
    def test_rho_sigma_roundtrip(self):
        sigma_sq = gaussian_sigma_sq(sensitivity=1.0, rho=0.01)
        assert gaussian_rho(1.0, sigma_sq) == pytest.approx(0.01)

    def test_paper_noise_scale(self):
        # Algorithm 1: sigma^2 = (T-k+1)/(2 rho) for sensitivity 1.
        assert gaussian_sigma_sq(1.0, 0.005 / 10) == pytest.approx(10 / (2 * 0.005))

    def test_sensitivity_scaling(self):
        assert gaussian_rho(2.0, 8.0) == pytest.approx(4 * gaussian_rho(1.0, 8.0))

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            gaussian_rho(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            gaussian_rho(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            gaussian_sigma_sq(1.0, 0.0)


class TestZCDPAccountant:
    def test_requires_positive_budget(self):
        with pytest.raises(ConfigurationError):
            ZCDPAccountant(0.0)

    def test_charges_accumulate(self):
        accountant = ZCDPAccountant(1.0)
        accountant.charge(0.25, "a")
        accountant.charge(0.25, "b")
        assert accountant.spent == pytest.approx(0.5)
        assert accountant.remaining == pytest.approx(0.5)

    def test_over_budget_raises(self):
        accountant = ZCDPAccountant(0.1)
        accountant.charge(0.08)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge(0.05)

    def test_exact_budget_succeeds(self):
        accountant = ZCDPAccountant(0.1)
        for _ in range(10):
            accountant.charge(0.01)
        assert accountant.remaining == pytest.approx(0.0, abs=1e-12)

    def test_many_small_charges_fsum_stability(self):
        accountant = ZCDPAccountant(1.0)
        for _ in range(1000):
            accountant.charge(0.001)
        assert accountant.spent == pytest.approx(1.0)

    def test_negative_charge_rejected(self):
        accountant = ZCDPAccountant(1.0)
        with pytest.raises(ConfigurationError):
            accountant.charge(-0.1)

    def test_ledger_labels(self):
        accountant = ZCDPAccountant(1.0)
        accountant.charge(0.1, "histogram t=3")
        accountant.charge(0.2, "histogram t=4")
        assert accountant.charges == (("histogram t=3", 0.1), ("histogram t=4", 0.2))

    def test_epsilon_reporting(self):
        accountant = ZCDPAccountant(1.0)
        accountant.charge(0.5)
        assert accountant.epsilon(1e-6) == pytest.approx(zcdp_to_approx_dp(0.5, 1e-6))

    def test_repr_mentions_budget(self):
        assert "0.5" in repr(ZCDPAccountant(0.5))
