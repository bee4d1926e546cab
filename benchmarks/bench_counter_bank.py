"""CounterBank benchmarks: per-threshold scalar counters vs the native bank.

The vectorized bank's reason to exist is horizon scaling: driving one
scalar counter per threshold (a :class:`FallbackBank`, the reference of
``tests/oracles/scalar.py``) costs O(T log T) Python-interpreter work per
round, the bank does the same update as a handful of NumPy array ops plus
one batched noise draw.  This module times full ``T``-round runs of both
for ``T ∈ {64, 256, 1024}`` and asserts the acceptance criterion: at
``T = 1024`` the bank is at least 5x faster per round.

It also times the exact noise of Algorithm 2's longest round: the 512
discrete-Gaussian draws of round 512 at ``T = 512`` through the batched
integer sampler, against the scalar reference sampler looping over the
same rows in the same process (gated at >= 10x).

Run explicitly (benchmarks are not collected by the tier-1 suite):

    PYTHONPATH=src python -m pytest benchmarks/bench_counter_bank.py -v
"""

import time

import numpy as np
import pytest

from oracles.scalar import fallback_reference
from repro.core.budget import allocate_budget
from repro.core.cumulative import CumulativeSynthesizer
from repro.data.generators import iid_bernoulli
from repro.dp.discrete_gaussian import DiscreteGaussianSampler, sample_discrete_gaussian
from repro.rng import ExactRandom, as_generator
from repro.streams.bank import FallbackBank
from repro.streams.registry import make_bank

HORIZONS = (64, 256, 1024)


def _increments(horizon: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 50, size=t).astype(np.int64) for t in range(1, horizon + 1)]


def _time_full_run(bank, increments) -> float:
    start = time.perf_counter()
    for z in increments:
        bank.feed(z)
    return time.perf_counter() - start


def _engines(horizon: int, counter: str = "binary_tree"):
    rho_vec = allocate_budget(horizon, 1.0, "corollary_b1")
    native = make_bank(
        counter,
        horizon=horizon,
        rho_per_threshold=rho_vec,
        seeds=1,
    )
    scalar = FallbackBank(
        horizon, rho_vec, seeds=1, counter=counter
    )
    assert not isinstance(native, FallbackBank)
    return native, scalar


class TestHorizonSweep:
    """Per-round latency, scalar vs bank, one row per horizon."""

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_bank_vs_scalar_per_round_latency(self, horizon, figure_report):
        increments = _increments(horizon)
        native, scalar = _engines(horizon)
        bank_elapsed = _time_full_run(native, increments)
        scalar_elapsed = _time_full_run(scalar, increments)
        speedup = scalar_elapsed / bank_elapsed
        report = (
            f"binary_tree counter bank, T={horizon}\n"
            f"  scalar engine : {scalar_elapsed / horizon * 1e3:8.3f} ms/round\n"
            f"  bank engine   : {bank_elapsed / horizon * 1e3:8.3f} ms/round\n"
            f"  speedup       : {speedup:8.1f}x"
        )
        figure_report(
            report,
            metrics={
                "speedup_vs_scalar": speedup,
                "bank_ms_per_round": bank_elapsed / horizon * 1e3,
            },
        )
        assert bank_elapsed < scalar_elapsed
        if horizon >= 1024:
            # Acceptance criterion: >= 5x per-round speedup at T = 1024.
            assert speedup >= 5.0, report

    def test_speedup_grows_with_horizon(self, figure_report):
        speedups = []
        for horizon in HORIZONS:
            increments = _increments(horizon)
            native, scalar = _engines(horizon)
            speedups.append(
                _time_full_run(scalar, increments) / _time_full_run(native, increments)
            )
        figure_report(
            "speedup by horizon: "
            + ", ".join(f"T={h}: {s:.1f}x" for h, s in zip(HORIZONS, speedups)),
            metrics={f"speedup_T{h}": s for h, s in zip(HORIZONS, speedups)},
        )
        # The bank's advantage must not collapse as T grows — that is the
        # whole point of batching the per-threshold counters.
        assert speedups[-1] >= speedups[0]


class TestBenchmarkHarness:
    @pytest.mark.parametrize("counter", ["binary_tree", "simple", "sqrt_factorization"])
    def test_native_bank_full_stream(self, benchmark, counter):
        horizon = 256
        increments = _increments(horizon)
        rho_vec = allocate_budget(horizon, 1.0, "corollary_b1")

        def run():
            bank = make_bank(
                counter,
                horizon=horizon,
                rho_per_threshold=rho_vec,
                seeds=2,
            )
            for z in increments:
                bank.feed(z)

        benchmark.pedantic(run, rounds=3, iterations=1)


class TestSynthesizerEndToEnd:
    def test_long_horizon_synthesizer_engines(self, figure_report):
        # Whole-pipeline check (stage 1 + monotonize + record store): the
        # bank must also win end to end against the same synthesizer run
        # on per-threshold scalar counters, not only in isolation.
        horizon, n = 256, 2000
        panel = iid_bernoulli(n, horizon, 0.3, seed=3)
        timings = {}
        for engine, wrap in (("vectorized", lambda s: s), ("scalar", fallback_reference)):
            synth = wrap(
                CumulativeSynthesizer(
                    horizon=horizon, rho=0.5, seed=4
                )
            )
            start = time.perf_counter()
            synth.run(panel)
            timings[engine] = time.perf_counter() - start
            assert synth.check_invariants()
        figure_report(
            f"cumulative synthesizer, T={horizon}, n={n}: "
            f"scalar {timings['scalar']:.2f}s, "
            f"vectorized {timings['vectorized']:.2f}s "
            f"({timings['scalar'] / timings['vectorized']:.1f}x)",
            metrics={
                "end_to_end_speedup": timings["scalar"] / timings["vectorized"],
            },
        )
        assert timings["vectorized"] < timings["scalar"]


class TestExactNoise:
    def test_exact_noise_round_speedup(self, figure_report):
        # Round 512 of a T=512 cumulative run: one exact draw per live
        # threshold row, at the rows' own variances (Corollary B.1 split).
        horizon = 512
        bank = make_bank(
            "binary_tree",
            horizon=horizon,
            rho_per_threshold=allocate_budget(horizon, 0.005, "corollary_b1"),
            seeds=5,
        )
        rows = bank.sigma_sq_rows
        sampler = DiscreteGaussianSampler(0, seed=6)
        sampler.sample_columns(rows)  # rows calibrate on their first draw
        random = ExactRandom(as_generator(7))
        batched, scalar = [], []
        # Interleaved, best of five each: a burst of host noise cannot land
        # on one side only.
        for _ in range(5):
            start = time.perf_counter()
            sampler.sample_columns(rows)
            batched.append(time.perf_counter() - start)
            start = time.perf_counter()
            for sigma_sq in rows:
                sample_discrete_gaussian(sigma_sq, random)
            scalar.append(time.perf_counter() - start)
        batched_s, scalar_s = min(batched), min(scalar)
        speedup = scalar_s / batched_s
        report = (
            f"exact discrete-Gaussian noise, {horizon} draws (round {horizon}, T={horizon})\n"
            f"  scalar reference : {scalar_s * 1e3:8.2f} ms\n"
            f"  batched sampler  : {batched_s * 1e3:8.2f} ms\n"
            f"  speedup          : {speedup:8.1f}x"
        )
        figure_report(
            report,
            metrics={
                "speedup_vs_scalar": speedup,
                "batched_ms_per_round": batched_s * 1e3,
            },
        )
        assert speedup >= 10.0, report
