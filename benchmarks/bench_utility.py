"""Utility frontier bench — the accuracy-regression gate's data source.

Runs the ``utility`` experiment (padding-aware pMSE + rmse over
rho x horizon x algorithm, see :mod:`repro.experiments.utility`) and
writes every frontier cell as a gateable metric.  Unlike the speed
benches, the repetition count is **pinned** rather than read from
``REPRO_BENCH_REPS``: every sampled bit is seeded, so a fixed grid makes
the reported metrics byte-identical on any machine — the committed
baseline in ``benchmarks/baselines/BENCH_test_utility.json`` then gates
*accuracy* itself, not a noisy estimate of it.  An injected quality
regression (louder noise, broken consistency projection, a biased
sampler) moves pMSE/rmse beyond the tolerance and fails CI exactly the
way a speed regression does.
"""

import pytest

from repro.experiments.utility import frontier_metrics, run_utility_experiment

#: Pinned so the gated metrics are byte-reproducible across machines.
UTILITY_BENCH_REPS = 8
UTILITY_BENCH_SEED = 0


@pytest.mark.figure("utility")
def test_utility(benchmark, figure_report):
    result = benchmark.pedantic(
        lambda: run_utility_experiment(n_reps=UTILITY_BENCH_REPS, seed=UTILITY_BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    figure_report(result.render(), metrics=frontier_metrics(result))
    assert result.all_checks_pass, result.render()
