"""Failure-injection tests: the release invariants must survive bad inputs.

Algorithm 2's monotonization and Algorithm 1's projection are the safety
layer between noisy statistics and the released records; these tests feed
them deliberately hostile statistics (an adversarial stream counter, huge
noise, zero data) and assert the structural guarantees still hold.
"""

import numpy as np
import pytest

from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.monotonize import is_monotone_table
from repro.data.generators import iid_bernoulli
from repro.streams.base import StreamCounter
from repro.streams.registry import _REGISTRY, register_counter


@pytest.fixture
def panel():
    return iid_bernoulli(120, 10, 0.3, seed=0)


@pytest.fixture
def adversarial_registry():
    """Temporarily register counters that misbehave on purpose."""

    @register_counter("_adversarial_wild")
    class WildCounter(StreamCounter):
        """Returns huge oscillating garbage regardless of the stream."""

        def _feed(self, z):
            sign = -1 if self._t % 2 else 1
            return float(sign * 10_000_000)

        def error_stddev(self, t):
            return 1e7

    @register_counter("_adversarial_negative")
    class NegativeCounter(StreamCounter):
        """Always reports an absurd negative total."""

        def _feed(self, z):
            return -1e9

        def error_stddev(self, t):
            return 1e9

    @register_counter("_adversarial_frozen")
    class FrozenCounter(StreamCounter):
        """Never moves from zero."""

        def _feed(self, z):
            return 0.0

        def error_stddev(self, t):
            return 0.0

    yield
    for name in ("_adversarial_wild", "_adversarial_negative", "_adversarial_frozen"):
        _REGISTRY.pop(name, None)


class TestAdversarialCounters:
    @pytest.mark.parametrize(
        "counter",
        ["_adversarial_wild", "_adversarial_negative", "_adversarial_frozen"],
    )
    def test_invariants_survive_any_counter(self, panel, adversarial_registry, counter):
        synthesizer = CumulativeSynthesizer(
            horizon=panel.horizon, rho=0.5, counter=counter, seed=1
        )
        release = synthesizer.run(panel)
        # Whatever garbage the counter produced, the released table is a
        # feasible monotone table and the synthetic records realize it.
        assert synthesizer.check_invariants()
        assert is_monotone_table(
            release.threshold_table(), population=panel.n_individuals
        )

    def test_wild_counter_cannot_exceed_population(self, panel, adversarial_registry):
        synthesizer = CumulativeSynthesizer(
            horizon=panel.horizon, rho=0.5, counter="_adversarial_wild", seed=2
        )
        release = synthesizer.run(panel)
        table = release.threshold_table()
        assert table.max() <= panel.n_individuals
        assert table.min() >= 0

    def test_frozen_counter_yields_all_zero_synthetic_data(
        self, panel, adversarial_registry
    ):
        synthesizer = CumulativeSynthesizer(
            horizon=panel.horizon, rho=0.5, counter="_adversarial_frozen", seed=3
        )
        release = synthesizer.run(panel)
        assert release.synthetic_data().matrix.sum() == 0


class TestExtremeNoiseWindow:
    def test_huge_noise_tiny_population_still_consistent(self):
        panel = iid_bernoulli(5, 8, 0.5, seed=4)
        synthesizer = FixedWindowSynthesizer(
            horizon=8, window=2, rho=1e-6, n_pad=0, seed=5,
        )
        release = synthesizer.run(panel)
        for t in range(3, 9):
            previous = release.histogram(t - 1)
            current = release.histogram(t)
            assert (current >= 0).all()
            assert (
                current[0::2] + current[1::2] == previous[:2] + previous[2:]
            ).all()

    def test_empty_population_rejected(self):
        synthesizer = CumulativeSynthesizer(horizon=4, rho=0.5, seed=6)
        with pytest.raises(Exception):
            synthesizer.observe(np.array([], dtype=np.int64))

    def test_all_zero_panel_with_noise(self):
        panel = iid_bernoulli(50, 8, 0.0, seed=7)
        synthesizer = CumulativeSynthesizer(
            horizon=8, rho=0.01, seed=8
        )
        release = synthesizer.run(panel)
        assert synthesizer.check_invariants()
        # Noise may push counts up, but never above n or below 0.
        table = release.threshold_table()
        assert table.min() >= 0 and table.max() <= 50
