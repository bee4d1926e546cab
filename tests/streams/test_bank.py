"""Tests for the vectorized CounterBank engine.

Pins down the three contracts the refactor relies on:

1. **Bank/scalar equivalence** — seeded noiseless runs are bit-exact
   between the product synthesizer and the per-threshold-counter
   reference (``tests/oracles/scalar.py``) for *every* registered
   counter, and the fallback bank is bit-exact with the reference even
   with noise (same per-row seeds drive the same scalar counters).
2. **Staggered activation** — bank row ``b`` sees exactly the stream
   ``z_b^t`` for ``t = b..T``, nothing earlier.
3. **Heterogeneous-scale sampling** — the ``sample_columns`` /
   ``sample_array_2d`` APIs honor per-column scales, including exact
   zeros for noiseless columns.

A bank takes one of two draws, chosen by ``n_reps`` alone: the exact
draw with one replica, the float rep-axis block with several.  Cases
labelled ``exact`` and ``vectorized`` exercise the one and the other.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles.scalar import fallback_reference, scalar_counter_table
from repro.core.budget import allocate_budget
from repro.core.cumulative import CumulativeSynthesizer
from repro.dp.discrete_gaussian import DiscreteGaussianSampler
from repro.exceptions import ConfigurationError, SerializationError, StreamLengthError
from repro.rng import spawn
from repro.streams.bank import (
    BinaryTreeBank,
    CounterBank,
    FallbackBank,
    SimpleBank,
    SqrtFactorizationBank,
)
from repro.streams.registry import (
    available_banks,
    available_counters,
    make_bank,
    make_counter,
)

HORIZON = 17  # deliberately not a power of two


def _increment_table(horizon: int, seed: int, high: int = 25) -> np.ndarray:
    """Lower-triangular (T, T) table; row t-1 holds the round-t vector."""
    rng = np.random.default_rng(seed)
    table = rng.integers(0, high, size=(horizon, horizon))
    return np.tril(table).astype(np.int64)


class TestNoiselessEquivalence:
    @pytest.mark.parametrize("name", sorted(available_counters()))
    def test_bank_matches_scalar_counters_bitwise(self, name):
        rho_vec = np.full(HORIZON, math.inf)
        increments = _increment_table(HORIZON, seed=1)
        bank = make_bank(name, horizon=HORIZON, rho_per_threshold=rho_vec, seeds=0)
        banked = bank.run(increments)
        reference = scalar_counter_table(
            name, HORIZON, rho_vec, increments, list(range(HORIZON))
        )
        assert (banked == reference).all()

    @pytest.mark.parametrize("name", sorted(available_counters()))
    def test_synthesizer_engines_bit_identical(self, name, small_markov_panel):
        releases = []
        for wrap in (lambda synth: synth, fallback_reference):
            synth = wrap(
                CumulativeSynthesizer(
                    horizon=small_markov_panel.horizon,
                    rho=math.inf,
                    counter=name,
                    seed=7,
                )
            )
            releases.append(synth.run(small_markov_panel))
        a, b = releases
        assert (a.threshold_table() == b.threshold_table()).all()
        assert (a.synthetic_data().matrix == b.synthetic_data().matrix).all()

    def test_fallback_engine_bit_identical_with_noise(self):
        # No native bank for honaker or block: the fallback wraps the
        # reference's scalar counters with the same per-row seeds, so even
        # noisy runs are identical.
        rho_vec = allocate_budget(HORIZON, 0.05, "corollary_b1")
        increments = _increment_table(HORIZON, seed=6)
        seeds = list(range(100, 100 + HORIZON))
        for name in ("honaker", "block"):
            bank = make_bank(name, horizon=HORIZON, rho_per_threshold=rho_vec, seeds=seeds)
            assert isinstance(bank, FallbackBank)
            reference = scalar_counter_table(name, HORIZON, rho_vec, increments, seeds)
            assert (bank.run(increments) == reference).all()


class TestStaggeredActivation:
    def test_row_b_sees_stream_from_round_b(self):
        # Counter b's true sum must equal sum_t z_b^t over t = b..T only.
        increments = _increment_table(HORIZON, seed=2)
        bank = make_bank(
            "binary_tree",
            horizon=HORIZON,
            rho_per_threshold=np.full(HORIZON, math.inf),
            seeds=3,
        )
        for t in range(1, HORIZON + 1):
            bank.feed(increments[t - 1, :t])
            expected = increments[: t, :].sum(axis=0)[:t]
            assert (bank.true_sums[:t] == expected).all()
            assert (bank.true_sums[t:] == 0).all()
            assert bank.active == t

    def test_fallback_rows_have_staggered_local_clocks(self):
        increments = _increment_table(HORIZON, seed=3)
        bank = FallbackBank(
            HORIZON, np.full(HORIZON, math.inf), seeds=4, counter="binary_tree"
        )
        bank.run(increments)
        for b, counter in enumerate(bank.counters, start=1):
            assert counter.horizon == HORIZON - b + 1
            assert counter.t == HORIZON - b + 1  # activated at round b

    def test_row_horizons(self):
        bank = SimpleBank(5, np.full(5, math.inf), seeds=0)
        assert (bank.row_horizons() == np.array([5, 4, 3, 2, 1])).all()


class TestBankValidation:
    def test_bad_shapes_rejected(self):
        bank = BinaryTreeBank(4, np.full(4, math.inf), seeds=0)
        with pytest.raises(ConfigurationError):
            bank.feed(np.array([1, 2]))  # round 1 expects length 1
        bank.feed([1])
        with pytest.raises(ConfigurationError):
            bank.feed([-1, 0])

    def test_horizon_exhaustion(self):
        bank = SimpleBank(2, np.full(2, math.inf), seeds=0)
        bank.feed([1])
        bank.feed([1, 2])
        with pytest.raises(StreamLengthError):
            bank.feed([1, 2])

    def test_rho_vector_validated(self):
        with pytest.raises(ConfigurationError):
            BinaryTreeBank(4, np.full(3, 1.0))
        with pytest.raises(ConfigurationError):
            BinaryTreeBank(4, np.array([1.0, 0.0, 1.0, 1.0]))

    def test_seed_sequence_length_validated(self):
        with pytest.raises(ConfigurationError):
            SimpleBank(4, np.full(4, 1.0), seeds=[1, 2])

    def test_engine_name_validated(self):
        config = CumulativeSynthesizer(horizon=4, rho=1.0).config_dict()
        for engine in ("scalar", "bogus"):
            with pytest.raises(SerializationError):
                CumulativeSynthesizer.from_config({**config, "engine": engine})


#: Replicas per draw: the exact draw runs one, the float rep-axis block several.
N_REPS = {"exact": 1, "vectorized": 3}


class TestBankNoise:
    @pytest.mark.parametrize("name", sorted(available_banks()))
    @pytest.mark.parametrize("draw", ["exact", "vectorized"])
    def test_native_banks_run_noisy(self, name, draw):
        horizon = 9
        rho_vec = allocate_budget(horizon, 0.5, "corollary_b1")
        bank = make_bank(
            name,
            horizon=horizon,
            rho_per_threshold=rho_vec,
            seeds=5,
            n_reps=N_REPS[draw],
        )
        estimates = bank.run(_increment_table(horizon, seed=4))
        assert np.isfinite(estimates).all()
        # Noisy estimates track the truth to within a loose multiple of
        # the per-row analytic scale (sanity, not a tail bound), in every
        # replica.
        truth = bank.true_sums
        for final in estimates.reshape(-1, horizon, horizon)[:, -1]:
            for b in range(1, horizon + 1):
                scale = bank.error_stddev(b, horizon - b + 1)
                assert abs(final[b - 1] - truth[b - 1]) <= max(8 * scale, 1e-9)

    @pytest.mark.parametrize("name", sorted(available_counters()))
    def test_one_replica_noise_is_exact_but_for_sqrt_factorization(self, name, monkeypatch):
        # Every counter's one-replica bank draws through the exact sampler
        # (native banks one sample_columns call a round, the fallback its
        # scalar counters' sample()) except the square-root factorization,
        # whose continuous Gaussian noise is Generator.normal floats.
        calls = {"sample_columns": 0, "sample": 0}
        for method in calls:
            original = getattr(DiscreteGaussianSampler, method)

            def spy(self, *args, _method=method, _original=original, **kwargs):
                calls[_method] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(DiscreteGaussianSampler, method, spy)
        horizon = 6
        bank = make_bank(
            name, horizon=horizon,
            rho_per_threshold=allocate_budget(horizon, 0.5, "corollary_b1"), seeds=8,
        )
        bank.run(_increment_table(horizon, seed=8))
        if name == "sqrt_factorization":
            assert calls == {"sample_columns": 0, "sample": 0}
        elif name in available_banks():
            assert calls == {"sample_columns": horizon, "sample": 0}
        else:
            assert calls["sample_columns"] == 0 and calls["sample"] > 0

    def test_error_stddev_matches_scalar_counters(self):
        horizon = 12
        rho_vec = allocate_budget(horizon, 0.3, "corollary_b1")
        for name in sorted(available_banks()):
            bank = make_bank(name, horizon=horizon, rho_per_threshold=rho_vec, seeds=0)
            for b in (1, 3, 7, 12):
                counter = make_counter(
                    name, horizon=horizon - b + 1, rho=float(rho_vec[b - 1]), seed=0
                )
                local_t = horizon - b + 1
                assert bank.error_stddev(b, local_t) == pytest.approx(
                    counter.error_stddev(local_t), rel=1e-9
                )

    def test_mixed_noiseless_rows(self):
        # Explicitly mixed budgets: inf rows stay exact, finite rows jitter.
        horizon = 6
        rho_vec = np.array([math.inf, 1e-4, math.inf, 1e-4, math.inf, 1e-4])
        bank = make_bank("simple", horizon=horizon, rho_per_threshold=rho_vec, seeds=6)
        increments = _increment_table(horizon, seed=5)
        estimates = bank.run(increments)
        final = estimates[-1]
        truth = bank.true_sums
        assert final[0] == truth[0] and final[2] == truth[2] and final[4] == truth[4]


class TestBankRegistry:
    def test_native_banks_registered(self):
        assert available_banks() == ("binary_tree", "simple", "sqrt_factorization")

    def test_unknown_counter_rejected(self):
        with pytest.raises(ConfigurationError):
            make_bank("bogus", horizon=4, rho_per_threshold=np.full(4, 1.0))

    def test_fallback_for_unbanked_counter(self):
        bank = make_bank("honaker", horizon=4, rho_per_threshold=np.full(4, 1.0))
        assert isinstance(bank, FallbackBank)

    def test_native_bank_types(self):
        rho_vec = np.full(4, 1.0)
        assert isinstance(
            make_bank("binary_tree", horizon=4, rho_per_threshold=rho_vec),
            BinaryTreeBank,
        )
        assert isinstance(
            make_bank("sqrt_factorization", horizon=4, rho_per_threshold=rho_vec),
            SqrtFactorizationBank,
        )


def _column_draws(sampler, scales, n: int, draw: str) -> np.ndarray:
    """``(n, len(scales))`` draws: ``n`` exact 1-D calls, or one float block."""
    if draw == "exact":
        return np.stack([sampler.sample_columns(scales) for _ in range(n)])
    return sampler.sample_array_2d(scales, n)


class TestHeterogeneousSamplers:
    def test_gaussian_columns_zero_variance_is_zero(self):
        sampler = DiscreteGaussianSampler(0, seed=0)
        draws = sampler.sample_columns([0.0, 4.0, 0.0, 9.0])
        assert draws.shape == (4,)
        assert draws[0] == 0 and draws[2] == 0

    @pytest.mark.parametrize("draw", ["exact", "vectorized"])
    def test_gaussian_columns_scale_tracks_sigma(self, draw):
        sampler = DiscreteGaussianSampler(0, seed=1)
        n = 400 if draw == "exact" else 3000
        draws = _column_draws(sampler, [Fraction(1), Fraction(400)], n, draw)
        assert draws.shape == (n, 2)
        small, big = draws[:, 0].std(), draws[:, 1].std()
        assert small < 3.0  # sigma 1
        assert 12.0 < big < 30.0  # sigma 20

    def test_gaussian_columns_negative_rejected(self):
        sampler = DiscreteGaussianSampler(0, seed=2)
        with pytest.raises(ValueError):
            sampler.sample_columns([1.0, -1.0])
        with pytest.raises(ValueError):
            sampler.sample_columns([1.0, -1.0], size=2)

    def test_reproducible_from_seed(self):
        a = DiscreteGaussianSampler(0, seed=9).sample_columns([4.0, 100.0, 0.0])
        b = DiscreteGaussianSampler(0, seed=9).sample_columns([4.0, 100.0, 0.0])
        assert (a == b).all()


class TestSynthesizerEngineSurface:
    def test_bank_property(self):
        native = CumulativeSynthesizer(horizon=4, rho=1.0, seed=0)
        fallback = CumulativeSynthesizer(horizon=4, rho=1.0, seed=0, counter="honaker")
        assert isinstance(native.bank, BinaryTreeBank)
        assert isinstance(fallback.bank, FallbackBank)
        assert isinstance(fallback.bank, CounterBank)

    def test_ledger_identical_across_engines(self, small_markov_panel):
        charges = []
        for wrap in (lambda synth: synth, fallback_reference):
            synth = wrap(
                CumulativeSynthesizer(horizon=small_markov_panel.horizon, rho=0.02, seed=1)
            )
            synth.run(small_markov_panel)
            charges.append(synth.accountant.charges)
        assert charges[0] == charges[1]

    def test_counter_error_stddev_inactive_is_none(self):
        synth = CumulativeSynthesizer(horizon=6, rho=0.5, seed=2)
        assert synth.counter_error_stddev(3, 1) is None
        synth.observe(np.zeros(10, dtype=np.int64))
        assert synth.counter_error_stddev(1, 1) is not None
        assert synth.counter_error_stddev(2, 1) is None

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_out_of_range_threshold_ci_degenerate(self, engine):
        # b = 0 and b > T are exact constants; the CI must stay degenerate
        # (historical behavior), not raise — also on per-threshold counters.
        from repro.analysis.confidence import cumulative_answer_ci
        from repro.queries.cumulative import HammingAtLeast

        synth = CumulativeSynthesizer(horizon=5, rho=0.5, seed=3)
        if engine == "scalar":
            fallback_reference(synth)
        for _ in range(3):
            synth.observe(np.ones(20, dtype=np.int64))
        release = synth.release
        lower, upper = cumulative_answer_ci(release, HammingAtLeast(0), 3)
        assert lower == upper == 1.0
        lower, upper = cumulative_answer_ci(release, HammingAtLeast(6), 3)
        assert lower == upper == 0.0


class TestRepAxis:
    """Replicated banks: (R, t) shapes, noiseless equivalence, validation."""

    NATIVE = ("binary_tree", "simple", "sqrt_factorization")

    @pytest.mark.parametrize("name", NATIVE)
    def test_feed_shapes_with_rep_axis(self, name):
        bank = make_bank(
            name,
            horizon=6,
            rho_per_threshold=allocate_budget(6, 0.5, "corollary_b1"),
            seeds=1,
            n_reps=4,
        )
        for t in range(1, 7):
            estimates = bank.feed(np.arange(t))
            assert estimates.shape == (4, t)

    @pytest.mark.parametrize("name", NATIVE)
    def test_noiseless_reps_all_match_single_run(self, name):
        increments = _increment_table(8, seed=5)
        rho_vec = np.full(8, math.inf)
        replicated = make_bank(
            name, horizon=8, rho_per_threshold=rho_vec, seeds=2, n_reps=3
        ).run(increments)
        single = make_bank(
            name, horizon=8, rho_per_threshold=rho_vec, seeds=2
        ).run(increments)
        assert replicated.shape == (3, 8, 8)
        assert (replicated == single[None, :, :]).all()

    @pytest.mark.parametrize("name", NATIVE)
    @pytest.mark.parametrize("draw", ["exact", "vectorized"])
    def test_noisy_reps_differ(self, name, draw):
        # Exact replicas are one-replica banks on spawned seeds (the
        # one-run-at-a-time path); float replicas share one bank.
        increments = _increment_table(6, seed=6)
        rho_vec = allocate_budget(6, 0.2, "corollary_b1")
        if draw == "exact":
            out = [
                make_bank(name, horizon=6, rho_per_threshold=rho_vec, seeds=seed).run(
                    increments
                )
                for seed in spawn(3, 3)
            ]
        else:
            out = make_bank(
                name, horizon=6, rho_per_threshold=rho_vec, seeds=3, n_reps=3
            ).run(increments)
        assert not (out[0] == out[1]).all()
        assert not (out[1] == out[2]).all()

    def test_single_rep_shape_unchanged(self):
        bank = make_bank(
            "binary_tree",
            horizon=4,
            rho_per_threshold=np.full(4, math.inf),
            seeds=4,
            n_reps=1,
        )
        assert bank.feed(np.array([2])).shape == (1,)

    def test_fallback_rejects_rep_axis(self):
        with pytest.raises(ConfigurationError):
            make_bank(
                "honaker",
                horizon=4,
                rho_per_threshold=np.full(4, math.inf),
                n_reps=2,
            )
        with pytest.raises(ConfigurationError):
            FallbackBank(4, np.full(4, math.inf), n_reps=2)

    def test_n_reps_validated(self):
        with pytest.raises(ConfigurationError):
            make_bank(
                "binary_tree",
                horizon=4,
                rho_per_threshold=np.full(4, math.inf),
                n_reps=0,
            )

    def test_error_stddev_independent_of_reps(self):
        rho_vec = allocate_budget(8, 0.5, "corollary_b1")
        one = make_bank("binary_tree", horizon=8, rho_per_threshold=rho_vec, seeds=5)
        many = make_bank(
            "binary_tree", horizon=8, rho_per_threshold=rho_vec, seeds=5, n_reps=7
        )
        for b in (1, 4, 8):
            assert one.error_stddev(b, 3) == many.error_stddev(b, 3)


class TestSizeAwareSamplers:
    """sample_columns(..., size=R) — the (R, rows) rep-axis draw.

    ``exact`` cases pass the banks' ``Fraction`` rows, ``vectorized``
    cases float rows; either way ``size=R`` is the float block.
    """

    ROWS = {"exact": [Fraction(0), Fraction(4), Fraction(25)], "vectorized": [0, 4.0, 25.0]}

    @pytest.mark.parametrize("rows", ["exact", "vectorized"])
    def test_gaussian_size_shape_and_zero_columns(self, rows):
        sampler = DiscreteGaussianSampler(0, seed=11)
        draws = sampler.sample_columns(self.ROWS[rows], size=6)
        assert draws.shape == (6, 3)
        assert (draws[:, 0] == 0).all()

    def test_size_zero_and_negative(self):
        sampler = DiscreteGaussianSampler(0, seed=13)
        assert sampler.sample_columns([1.0, 2.0], size=0).shape == (0, 2)
        with pytest.raises(ValueError):
            sampler.sample_columns([1.0], size=-1)

    def test_size_none_keeps_legacy_bit_stream(self):
        a = DiscreteGaussianSampler(0, seed=14)
        b = DiscreteGaussianSampler(0, seed=14)
        scales = [3.0, 7.0, 11.0]
        assert (a.sample_columns(scales) == b.sample_columns(scales, size=None)).all()

    def test_fraction_and_float_rows_draw_the_same_block(self):
        # The banks pass Fraction rows; the block converts them with float().
        fractions = [Fraction(0), Fraction(7, 3), Fraction(400)]
        a = DiscreteGaussianSampler(0, seed=16).sample_columns(fractions, size=5)
        b = DiscreteGaussianSampler(0, seed=16).sample_columns(
            np.array([float(f) for f in fractions]), size=5
        )
        assert (a == b).all()

    def test_rows_are_independent(self):
        sampler = DiscreteGaussianSampler(0, seed=15)
        draws = sampler.sample_columns(np.full(64, 1000.0), size=2)
        assert not (draws[0] == draws[1]).all()
