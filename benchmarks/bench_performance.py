"""Micro-benchmarks: sampler throughput, counter latency, synthesizer rounds.

These are conventional pytest-benchmark timings (multiple rounds) rather
than figure regenerations; they quantify the cost of each building block so
adopters can size their deployments.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles.scalar import fallback_reference
from repro.analysis.replication import replicate_synthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import two_state_markov
from repro.dp.discrete_gaussian import DiscreteGaussianSampler
from repro.queries.cumulative import HammingAtLeast
from repro.streams.registry import make_counter


@pytest.fixture(scope="module")
def panel():
    return two_state_markov(23374, 12, p_stay=0.87, p_enter=0.017, seed=0)


class TestSamplerThroughput:
    def test_exact_discrete_gaussian_single_samples(self, benchmark):
        sampler = DiscreteGaussianSampler(Fraction(1000), seed=1, method="exact")
        benchmark(sampler.sample)

    def test_vectorized_discrete_gaussian_batch_100k(self, benchmark):
        sampler = DiscreteGaussianSampler(1000, seed=2, method="vectorized")
        benchmark(sampler.sample_array, 100_000)


class TestCounterLatency:
    @pytest.mark.parametrize(
        "name", ["binary_tree", "simple", "honaker", "sqrt_factorization", "block"]
    )
    def test_counter_full_stream(self, benchmark, name):
        stream = list(np.random.default_rng(3).integers(0, 100, size=64))

        def run_counter():
            counter = make_counter(
                name, horizon=64, rho=0.5, seed=4, noise_method="vectorized"
            )
            return counter.run(stream)

        benchmark(run_counter)


class TestSynthesizerRounds:
    def test_fixed_window_full_run_sipp_scale(self, benchmark, panel):
        def run():
            synth = FixedWindowSynthesizer(
                horizon=12, window=3, rho=0.005, seed=5, noise_method="vectorized"
            )
            return synth.run(panel)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_cumulative_full_run_sipp_scale(self, benchmark, panel):
        # Per-threshold scalar counters (the reference of tests/oracles).
        def run():
            synth = fallback_reference(
                CumulativeSynthesizer(
                    horizon=12, rho=0.005, seed=6, noise_method="vectorized"
                )
            )
            return synth.run(panel)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_cumulative_full_run_bank_engine(self, benchmark, panel):
        # Same workload as above on the vectorized CounterBank engine.
        def run():
            synth = CumulativeSynthesizer(
                horizon=12, rho=0.005, seed=6, noise_method="vectorized"
            )
            return synth.run(panel)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_fixed_window_scaling_in_window_width(self, benchmark, panel):
        # k=6 means 64 histogram bins: stresses the consistency projection.
        def run():
            synth = FixedWindowSynthesizer(
                horizon=12, window=6, rho=0.005, seed=7, noise_method="vectorized"
            )
            return synth.run(panel)

        benchmark.pedantic(run, rounds=2, iterations=1)

    def test_streaming_single_round_latency(self, benchmark, panel):
        synth = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.005, seed=8, noise_method="vectorized"
        )
        columns = iter(list(panel.columns()))

        def one_round():
            try:
                synth.observe(next(columns))
            except StopIteration:
                pass

        benchmark.pedantic(one_round, rounds=12, iterations=1)

    def test_noiseless_oracle_overhead(self, benchmark, panel):
        def run():
            synth = FixedWindowSynthesizer(
                horizon=12, window=3, rho=math.inf, seed=9
            )
            return synth.run(panel)

        benchmark.pedantic(run, rounds=3, iterations=1)


class TestReplicationStrategies:
    """The cross-repetition axis: 100-rep cumulative replication per strategy.

    One row per ``replicate_synthesizer`` strategy on the same SIPP-scale
    workload, so the perf trajectory captures the batched engine's win and
    the process pool's overhead alongside the per-run numbers above.
    """

    @pytest.mark.parametrize("strategy", ["serial", "process", "batched"])
    def test_cumulative_replication_100_reps(self, benchmark, panel, strategy):
        queries = [HammingAtLeast(3)]
        times = list(range(1, panel.horizon + 1))

        def factory(generator):
            return CumulativeSynthesizer(
                horizon=panel.horizon, rho=0.005, seed=generator,
                noise_method="vectorized",
            )

        def run():
            return replicate_synthesizer(
                factory, panel, queries, times, n_reps=100, seed=10,
                strategy=strategy,
            )

        benchmark.pedantic(run, rounds=2, iterations=1)
