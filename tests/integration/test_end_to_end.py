"""End-to-end pipeline tests: SIPP pipeline -> synthesizers -> analysis."""

import math

import pytest

from repro import (
    AtLeastMOnes,
    CumulativeSynthesizer,
    FixedWindowSynthesizer,
    HammingAtLeast,
    NonPrivateSynthesizer,
    quarterly_poverty_workload,
)
from repro.data.sipp import load_sipp_2021
from repro.queries.workloads import quarter_ends


@pytest.fixture(scope="module")
def sipp():
    # A smaller SIPP draw keeps the end-to-end tests fast while exercising
    # the full pipeline (raw records -> preprocessing -> panel).
    return load_sipp_2021(seed=7, target_households=3000)


class TestFullPipelineWindow:
    def test_paper_workflow_runs(self, sipp):
        synth = FixedWindowSynthesizer(
            horizon=sipp.horizon, window=3, rho=0.05, seed=0,
        )
        release = synth.run(sipp)
        for query in quarterly_poverty_workload(3):
            for t in quarter_ends(sipp.horizon, 3):
                answer = release.answer(query, t)
                truth = query.evaluate(sipp, t)
                assert abs(answer - truth) < 0.05

    def test_release_metadata(self, sipp):
        synth = FixedWindowSynthesizer(
            horizon=sipp.horizon, window=3, rho=0.05, seed=1,
        )
        release = synth.run(sipp)
        assert release.n_original == 3000
        assert release.n_synthetic >= 3000
        assert release.window == 3
        assert release.t == sipp.horizon
        assert "FixedWindowRelease" in repr(release)

    def test_epsilon_delta_reporting(self, sipp):
        synth = FixedWindowSynthesizer(
            horizon=sipp.horizon, window=3, rho=0.05, seed=2,
        )
        synth.run(sipp)
        epsilon = synth.accountant.epsilon(delta=1e-6)
        expected = 0.05 + 2 * math.sqrt(0.05 * math.log(1e6))
        assert epsilon == pytest.approx(expected)


class TestFullPipelineCumulative:
    def test_paper_workflow_runs(self, sipp):
        synth = CumulativeSynthesizer(
            horizon=sipp.horizon, rho=0.05, seed=3
        )
        release = synth.run(sipp)
        for b in (1, 3, 6):
            query = HammingAtLeast(b)
            for t in (3, 6, 9, 12):
                assert abs(release.answer(query, t) - query.evaluate(sipp, t)) < 0.05

    def test_repr(self, sipp):
        synth = CumulativeSynthesizer(
            horizon=sipp.horizon, rho=0.05, seed=4
        )
        release = synth.run(sipp)
        assert "CumulativeRelease" in repr(release)


class TestCrossAlgorithmComparisons:
    def test_oracle_beats_private(self, sipp):
        query = AtLeastMOnes(3, 1)
        t = 12
        oracle = NonPrivateSynthesizer(sipp.horizon).run(sipp)
        private = FixedWindowSynthesizer(
            horizon=sipp.horizon, window=3, rho=0.01, seed=5,
        ).run(sipp)
        truth = query.evaluate(sipp, t)
        assert abs(oracle.answer(query, t) - truth) == 0.0
        assert abs(private.answer(query, t) - truth) >= 0.0

    def test_both_synthesizers_consume_the_same_stream(self, sipp):
        window_synth = FixedWindowSynthesizer(
            horizon=sipp.horizon, window=3, rho=0.05, seed=6,
        )
        cumulative_synth = CumulativeSynthesizer(
            horizon=sipp.horizon, rho=0.05, seed=7
        )
        for column in sipp.columns():
            window_synth.observe(column)
            cumulative_synth.observe(column)
        assert window_synth.t == cumulative_synth.t == sipp.horizon

    def test_cumulative_answers_agree_with_window_reduction_oracle(self, sipp):
        # Section 2.1 reduction, checked through the released data rather
        # than the theory module: with zero noise, the k=T window release
        # answers cumulative queries exactly.
        small = load_sipp_2021(seed=11, target_households=200)
        window_synth = FixedWindowSynthesizer(
            horizon=small.horizon, window=small.horizon, rho=math.inf, seed=8
        )
        release = window_synth.run(window_synth_panel := small)
        from repro.queries.cumulative import cumulative_as_window_weights
        from repro.queries.window import WindowLinearQuery

        for b in (1, 4):
            weights = cumulative_as_window_weights(small.horizon, b)
            query = WindowLinearQuery(small.horizon, weights, name=f"c{b}")
            expected = HammingAtLeast(b).evaluate(small, small.horizon)
            assert release.answer(query, small.horizon) == pytest.approx(expected)
