"""Tests for the noise-aware confidence intervals."""


import pytest

from repro.analysis.confidence import (
    cumulative_answer_ci,
    normal_quantile,
    window_answer_ci,
)
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import two_state_markov
from repro.exceptions import ConfigurationError
from repro.queries.cumulative import HammingAtLeast
from repro.queries.window import AllOnes, AtLeastMOnes
from repro.rng import spawn


class TestNormalQuantile:
    def test_known_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.99) == pytest.approx(2.575829, abs=1e-4)
        assert normal_quantile(0.6826894921) == pytest.approx(1.0, abs=1e-4)

    def test_symmetric_small_level(self):
        assert normal_quantile(0.5) == pytest.approx(0.674490, abs=1e-4)

    def test_extreme_levels(self):
        assert normal_quantile(0.9999) == pytest.approx(3.890592, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            normal_quantile(0.0)
        with pytest.raises(ConfigurationError):
            normal_quantile(1.0)

    def test_monotone(self):
        assert normal_quantile(0.9) < normal_quantile(0.95) < normal_quantile(0.99)


@pytest.fixture(scope="module")
def panel():
    return two_state_markov(2500, 12, p_stay=0.85, p_enter=0.02, seed=0)


class TestWindowCI:
    def test_interval_contains_estimate(self, panel):
        synth = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.05, seed=1
        )
        release = synth.run(panel)
        query = AtLeastMOnes(3, 1)
        lower, upper = window_answer_ci(release, query, 6)
        estimate = release.answer(query, 6)
        assert lower < estimate < upper

    def test_width_shrinks_with_budget(self, panel):
        query = AllOnes(3)

        def width(rho):
            synth = FixedWindowSynthesizer(
                horizon=12, window=3, rho=rho, seed=2
            )
            release = synth.run(panel)
            lower, upper = window_answer_ci(release, query, 9)
            return upper - lower

        assert width(0.5) < width(0.005)

    def test_width_grows_with_level(self, panel):
        synth = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.05, seed=3
        )
        release = synth.run(panel)
        query = AllOnes(3)
        narrow = window_answer_ci(release, query, 6, level=0.80)
        wide = window_answer_ci(release, query, 6, level=0.99)
        assert wide[1] - wide[0] > narrow[1] - narrow[0]

    def test_unsupported_width_rejected(self, panel):
        synth = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.05, seed=4
        )
        release = synth.run(panel)
        with pytest.raises(ConfigurationError):
            window_answer_ci(release, AllOnes(4), 6)

    def test_empirical_coverage(self, panel):
        # 95% nominal: across 40 independent runs, the truth should fall
        # inside in the vast majority (allow Monte-Carlo slack: >= 85%).
        query = AtLeastMOnes(3, 2)
        t = 12
        truth = query.evaluate(panel, t)
        covered = 0
        runs = 40
        for generator in spawn(5, runs):
            synth = FixedWindowSynthesizer(
                horizon=12, window=3, rho=0.02, seed=generator,
            )
            release = synth.run(panel)
            lower, upper = window_answer_ci(release, query, t, level=0.95)
            covered += lower <= truth <= upper
        assert covered / runs >= 0.85


class TestCumulativeCI:
    def test_interval_contains_estimate(self, panel):
        synth = CumulativeSynthesizer(
            horizon=12, rho=0.05, seed=6
        )
        release = synth.run(panel)
        query = HammingAtLeast(3)
        lower, upper = cumulative_answer_ci(release, query, 8)
        assert lower < release.answer(query, 8) < upper

    def test_inactive_threshold_degenerate_interval(self, panel):
        synth = CumulativeSynthesizer(
            horizon=12, rho=0.05, seed=7
        )
        # Observe only 2 rounds: counter b=5 not created yet.
        columns = panel.columns()
        synth.observe(next(columns))
        synth.observe(next(columns))
        release = synth.release
        lower, upper = cumulative_answer_ci(release, HammingAtLeast(5), 2)
        assert lower == upper == 0.0

    def test_non_threshold_query_rejected(self, panel):
        synth = CumulativeSynthesizer(
            horizon=12, rho=0.05, seed=8
        )
        release = synth.run(panel)
        with pytest.raises(ConfigurationError):
            cumulative_answer_ci(release, AllOnes(3), 6)

    def test_empirical_coverage(self, panel):
        query = HammingAtLeast(3)
        t = 12
        truth = query.evaluate(panel, t)
        covered = 0
        runs = 40
        for generator in spawn(9, runs):
            synth = CumulativeSynthesizer(
                horizon=12, rho=0.02, seed=generator
            )
            release = synth.run(panel)
            lower, upper = cumulative_answer_ci(release, query, t, level=0.95)
            covered += lower <= truth <= upper
        assert covered / runs >= 0.85


class TestZeroVarianceNoise:
    """CIs must stay finite and NaN-free when the noise has zero variance."""

    @pytest.fixture
    def panel(self):
        return two_state_markov(400, 12, 0.8, 0.1, seed=3)

    def test_window_ci_infinite_rho(self, panel):
        import math

        synth = FixedWindowSynthesizer(horizon=12, window=3, rho=math.inf, seed=1)
        release = synth.run(panel)
        query = AtLeastMOnes(3, 1)
        lower, upper = window_answer_ci(release, query, 6)
        assert math.isfinite(lower) and math.isfinite(upper)
        # sigma = 0 leaves only the rounding term: a degenerate-width band
        # still brackets its own estimate.
        assert lower <= release.answer(query, 6) <= upper

    def test_cumulative_ci_infinite_rho(self, panel):
        import math

        synth = CumulativeSynthesizer(horizon=12, rho=math.inf, seed=1)
        release = synth.run(panel)
        lower, upper = cumulative_answer_ci(release, HammingAtLeast(3), 12)
        assert math.isfinite(lower) and math.isfinite(upper)
        assert lower <= release.answer(HammingAtLeast(3), 12) <= upper

    def test_interval_width_shrinks_with_level(self, panel):
        synth = FixedWindowSynthesizer(horizon=12, window=3, rho=0.05, seed=2)
        release = synth.run(panel)
        query = AtLeastMOnes(3, 1)
        narrow = window_answer_ci(release, query, 6, level=0.5)
        wide = window_answer_ci(release, query, 6, level=0.99)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])
