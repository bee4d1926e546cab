"""CounterBank.extend_rows and CumulativeSynthesizer.extend_horizon.

Row growth appends counter state without perturbing existing rows' RNG
streams, recalibrates nothing already in force, and reports the exact
extra zCDP each widened row costs — the churn-aware accounting for a
panel that outlives its planned horizon.
"""

import math

import numpy as np
import pytest

from oracles.scalar import fallback_reference
from repro.core.budget import allocate_budget
from repro.core.cumulative import CumulativeSynthesizer
from repro.data.generators import iid_bernoulli
from repro.exceptions import ConfigurationError, SerializationError
from repro.streams.bank import FallbackBank
from repro.streams.registry import make_bank

NATIVE_EXTENSIBLE = ("binary_tree", "laplace_tree", "simple")


def _increment_stream(total_rounds: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 25, size=t).astype(np.int64)
        for t in range(1, total_rounds + 1)
    ]


class TestExtendRows:
    @pytest.mark.parametrize("counter", NATIVE_EXTENSIBLE)
    def test_noiseless_extension_matches_fresh_bank(self, counter):
        horizon, k = 12, 5
        increments = _increment_stream(horizon + k)
        extended = make_bank(
            counter, horizon=horizon, rho_per_threshold=np.full(horizon, math.inf),
            seeds=1,
        )
        for z in increments[:7]:
            extended.feed(z)
        extra = extended.extend_rows(k, np.full(k, math.inf))
        assert extra.shape == (horizon,) and (extra == 0).all()
        fresh = make_bank(
            counter, horizon=horizon + k,
            rho_per_threshold=np.full(horizon + k, math.inf), seeds=2,
        )
        for z in increments[:7]:
            fresh.feed(z)
        for z in increments[7:]:
            np.testing.assert_allclose(extended.feed(z), fresh.feed(z))

    @pytest.mark.parametrize("counter", NATIVE_EXTENSIBLE)
    def test_extension_consumes_no_randomness_and_keeps_buffers(self, counter):
        horizon = 8
        bank = make_bank(
            counter, horizon=horizon,
            rho_per_threshold=allocate_budget(horizon, 1.0, "uniform"), seeds=3,
        )
        for z in _increment_stream(4, seed=1)[:4]:
            bank.feed(z)
        before = bank.state_dict()
        bank.extend_rows(2, np.full(2, 0.1))
        after = bank.state_dict()
        # Same generator position and untouched running sums prefix.
        assert before["generator"] == after["generator"]
        assert (after["true_sums"][:horizon] == before["true_sums"]).all()
        assert (after["true_sums"][horizon:] == 0).all()

    def test_binary_tree_extension_cost_is_level_ratio(self):
        horizon, k = 12, 4
        rho = allocate_budget(horizon, 1.0, "uniform")
        bank = make_bank("binary_tree", horizon=horizon, rho_per_threshold=rho, seeds=0)
        extra = bank.extend_rows(k, np.full(k, 1.0 / horizon))
        old_levels = [int(n).bit_length() for n in range(horizon, 0, -1)]
        new_levels = [int(n).bit_length() for n in range(horizon + k, k, -1)]
        expected = [
            rho_b * (new - old) / old
            for rho_b, old, new in zip(rho, old_levels, new_levels)
        ]
        np.testing.assert_allclose(extra, expected)

    def test_laplace_tree_extension_cost_is_squared_level_ratio(self):
        horizon, k = 12, 4
        rho = allocate_budget(horizon, 1.0, "uniform")
        bank = make_bank("laplace_tree", horizon=horizon, rho_per_threshold=rho, seeds=0)
        extra = bank.extend_rows(k, np.full(k, 1.0 / horizon))
        old_levels = [int(n).bit_length() for n in range(horizon, 0, -1)]
        new_levels = [int(n).bit_length() for n in range(horizon + k, k, -1)]
        expected = [
            rho_b * ((new / old) ** 2 - 1.0)
            for rho_b, old, new in zip(rho, old_levels, new_levels)
        ]
        np.testing.assert_allclose(extra, expected)

    def test_simple_extension_cost_is_per_release(self):
        horizon, k = 6, 3
        rho = allocate_budget(horizon, 1.0, "uniform")
        bank = make_bank("simple", horizon=horizon, rho_per_threshold=rho, seeds=0)
        extra = bank.extend_rows(k, np.full(k, 1.0 / horizon))
        expected = [k * rho_b / length for rho_b, length in zip(rho, range(horizon, 0, -1))]
        np.testing.assert_allclose(extra, expected)

    def test_sqrt_factorization_and_fallback_refuse(self):
        rho = np.full(6, 0.1)
        sqrt_bank = make_bank("sqrt_factorization", horizon=6, rho_per_threshold=rho, seeds=0)
        with pytest.raises(ConfigurationError, match="does not support extend_rows"):
            sqrt_bank.extend_rows(2, np.full(2, 0.1))
        fallback = FallbackBank(6, rho, seeds=0, counter="honaker")
        with pytest.raises(ConfigurationError, match="does not support extend_rows"):
            fallback.extend_rows(2, np.full(2, 0.1))
        # A refused extension mutates nothing.
        assert sqrt_bank.horizon == 6 and fallback.horizon == 6

    def test_rejects_bad_arguments(self):
        bank = make_bank("binary_tree", horizon=4, rho_per_threshold=np.full(4, 0.1), seeds=0)
        with pytest.raises(ConfigurationError, match="k must be positive"):
            bank.extend_rows(0, np.zeros(0))
        with pytest.raises(ConfigurationError, match="length k=2"):
            bank.extend_rows(2, np.full(3, 0.1))
        with pytest.raises(ConfigurationError, match="positive"):
            bank.extend_rows(2, np.array([0.1, -1.0]))


class TestExtendHorizon:
    def test_mid_stream_extension_streams_past_the_old_horizon(self):
        panel = iid_bernoulli(80, 8, 0.4, seed=1)
        synth = CumulativeSynthesizer(8, 0.8, seed=2)
        for index, column in enumerate(panel.columns()):
            synth.observe(column)
            if index == 4:
                total_before = synth.accountant.total_rho
                synth.extend_horizon(3, 0.05)
                assert synth.accountant.total_rho > total_before + 3 * 0.05
        for column in iid_bernoulli(80, 3, 0.4, seed=9).columns():
            synth.observe(column)
        assert synth.t == 11 == synth.horizon
        assert synth.check_invariants()
        # The full budget (base + new rows + surcharges) is exactly spent.
        assert synth.accountant.spent == pytest.approx(synth.accountant.total_rho)
        labels = [label for label, _ in synth.accountant.charges]
        assert any("horizon extension surcharge" in label for label in labels)
        assert any("budget extended" in label for label in labels)

    def test_noiseless_extension_matches_wide_noiseless_run(self):
        panel = iid_bernoulli(40, 9, 0.3, seed=5)
        extended = CumulativeSynthesizer(6, math.inf, seed=0)
        for index, column in enumerate(panel.columns()):
            if index == 6:
                extended.extend_horizon(3, math.inf)
            extended.observe(column)
        wide = CumulativeSynthesizer(9, math.inf, seed=0)
        wide_release = wide.run(panel)
        assert (
            extended.release.threshold_table() == wide_release.threshold_table()
        ).all()

    def test_scalar_engine_refuses(self):
        # Per-threshold scalar counters are calibrated for a fixed horizon,
        # so a fallback bank (honaker's, or the scalar reference's) refuses.
        for synth in (
            CumulativeSynthesizer(6, 0.5, seed=0, counter="honaker"),
            fallback_reference(CumulativeSynthesizer(6, 0.5, seed=0)),
        ):
            with pytest.raises(ConfigurationError, match="does not support extend_rows"):
                synth.extend_horizon(2, 0.05)
            assert synth.horizon == 6

    def test_noise_mode_mismatch_refused(self):
        noisy = CumulativeSynthesizer(6, 0.5, seed=0)
        with pytest.raises(ConfigurationError, match="finite rho_new"):
            noisy.extend_horizon(2, math.inf)
        oracle = CumulativeSynthesizer(6, math.inf, seed=0)
        with pytest.raises(ConfigurationError, match="math.inf"):
            oracle.extend_horizon(2, 0.05)

    def test_checkpoint_after_extension_fails_closed(self):
        synth = CumulativeSynthesizer(6, 0.5, seed=0)
        synth.observe(np.ones(10, dtype=np.int64))
        synth.extend_horizon(2, 0.05)
        with pytest.raises(SerializationError, match="extend_horizon"):
            synth.state_dict()
