"""Statistical end-to-end checks: unbiasedness and error scaling.

These assert the paper's headline statistical claims on moderate data sizes
so the suite stays fast; the paper-scale versions run in benchmarks/.
"""

import math

import numpy as np
import pytest

from repro.analysis.replication import replicate_synthesizer
from repro.analysis.theory import debiased_error_bound, theorem_3_2_bound
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import two_state_markov
from repro.queries.cumulative import HammingAtLeast
from repro.queries.window import AtLeastMOnes

HORIZON = 12
N = 3000
RHO = 0.05


@pytest.fixture(scope="module")
def panel():
    return two_state_markov(N, HORIZON, p_stay=0.85, p_enter=0.02, seed=0)


@pytest.fixture(scope="module")
def window_answers(panel):
    def factory(generator):
        return FixedWindowSynthesizer(
            horizon=HORIZON, window=3, rho=RHO, seed=generator,
        )

    return replicate_synthesizer(
        factory,
        panel,
        [AtLeastMOnes(3, 1), AtLeastMOnes(3, 3)],
        times=[3, 6, 9, 12],
        n_reps=40,
        seed=1,
    )


@pytest.fixture(scope="module")
def cumulative_answers(panel):
    def factory(generator):
        return CumulativeSynthesizer(
            horizon=HORIZON, rho=RHO, seed=generator
        )

    return replicate_synthesizer(
        factory,
        panel,
        [HammingAtLeast(3)],
        times=list(range(1, HORIZON + 1)),
        n_reps=40,
        seed=2,
    )


class TestWindowStatistics:
    def test_debiased_answers_unbiased(self, window_answers):
        errors = window_answers.errors()
        per_point_sd = errors.std(axis=0)
        standard_error = per_point_sd / math.sqrt(window_answers.n_reps)
        mean_error = np.abs(errors.mean(axis=0))
        assert (mean_error <= 5 * standard_error + 1e-4).all()

    def test_errors_within_theorem_bound(self, window_answers):
        # Query at_least_1 sums 7 bins; a crude per-query bound is
        # sqrt(7) * lambda / n with lambda the per-bin bound.
        lam = theorem_3_2_bound(HORIZON, 3, RHO, beta=0.01)
        per_query_bound = math.sqrt(7) * lam / N
        assert np.abs(window_answers.errors()).max() <= per_query_bound

    def test_error_time_uniform(self, window_answers):
        # Theorem 3.2: error variance does not grow with t.
        errors = window_answers.errors()[:, 0, :]
        sds = errors.std(axis=0)
        assert sds.max() < 4 * max(sds.min(), 1e-6)

    def test_band_covers_truth(self, window_answers):
        for i in range(2):
            summary = window_answers.summary(i)
            assert summary.covers_truth().all()


class TestCumulativeStatistics:
    def test_unbiased(self, cumulative_answers):
        errors = cumulative_answers.errors()
        per_point_sd = errors.std(axis=0)
        standard_error = per_point_sd / math.sqrt(cumulative_answers.n_reps)
        mean_error = np.abs(errors.mean(axis=0))
        assert (mean_error <= 5 * standard_error + 1e-4).all()

    def test_answers_monotone_in_t_within_each_rep(self, cumulative_answers):
        answers = cumulative_answers.answers[:, 0, :]
        assert (np.diff(answers, axis=1) >= -1e-12).all()

    def test_band_covers_truth(self, cumulative_answers):
        summary = cumulative_answers.summary(0)
        assert summary.covers_truth().all()


class TestErrorScaling:
    def test_more_budget_means_less_error(self, panel):
        def run_at(rho, seed):
            def factory(generator):
                return FixedWindowSynthesizer(
                    horizon=HORIZON, window=3, rho=rho, seed=generator,
                )

            result = replicate_synthesizer(
                factory, panel, [AtLeastMOnes(3, 1)], times=[12], n_reps=25, seed=seed
            )
            return np.abs(result.errors()).mean()

        assert run_at(0.5, 3) < run_at(0.005, 4)

    def test_debiased_bound_scales_like_sqrt_horizon(self):
        short = debiased_error_bound(6, 3, 0.01, 0.05, 1000)
        long = debiased_error_bound(48, 3, 0.01, 0.05, 1000)
        ratio = long / short
        # sqrt(46/4) ~ 3.4 plus slow log growth: between 3 and 6.
        assert 3.0 < ratio < 6.0
