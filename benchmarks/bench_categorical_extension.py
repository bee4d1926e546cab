"""Categorical extension — accuracy and engine performance of Algorithm 1 at q > 2.

Not a paper figure: this regenerates the claim of §1 that the fixed-window
solution "naturally extend[s] to handle categorical data with more than 2
categories", measuring debiased error against ground truth, and pins the
performance contract of the unified window engine: the vectorized
categorical path (batched residue placement + one-sort order-statistic
record extension) must beat the scalar reference loops of
``tests/oracles/scalar.py`` (one draw per group residue, one draw per
synthetic record) by at least 5x at SIPP scale
(``n = 23374``, ``q = 3``, ``k = 3``).  The speedup is emitted as a
structured ``BENCH_*.json`` metric gated by ``check_regression.py``
against ``benchmarks/baselines/``.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from oracles.scalar import scalar_loops
from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.data.categorical import employment_status_panel
from repro.experiments.config import bench_reps
from repro.queries.categorical import CategoryAtLeastM
from repro.rng import spawn

#: The acceptance floor for the vectorized categorical engine.
MIN_ENGINE_SPEEDUP = 5.0


@pytest.mark.figure("ext-categorical")
def test_categorical_extension_accuracy(benchmark, figure_report):
    n, horizon, rho = 10000, 12, 0.01
    panel = employment_status_panel(n, horizon, seed=20)
    query = CategoryAtLeastM(2, 3, category=1, m=1)
    times = list(range(2, horizon + 1))
    reps = max(bench_reps() // 2, 5)

    def run_once(generator):
        synthesizer = CategoricalWindowSynthesizer(
            horizon=horizon, window=2, alphabet=3, rho=rho,
            seed=generator, noise_method="vectorized",
        )
        release = synthesizer.run(panel)
        return release.answer_series(query, times)

    def experiment():
        answers = np.array([run_once(g) for g in spawn(21, reps)])
        truth = np.array([query.evaluate(panel, t) for t in times])
        return answers, truth

    answers, truth = benchmark.pedantic(experiment, rounds=1, iterations=1)
    errors = np.abs(answers - truth[None, :])
    lines = [
        "### ext-categorical: Algorithm 1 over a 3-state alphabet",
        f"params: n={n}, T={horizon}, k=2, q=3, rho={rho}, reps={reps}",
        f"query: {query.name}",
        f"{'t':>3s} {'truth':>8s} {'median est':>11s} {'median |err|':>13s}",
    ]
    for i, t in enumerate(times):
        lines.append(
            f"{t:>3d} {truth[i]:>8.4f} {np.median(answers[:, i]):>11.4f} "
            f"{np.median(errors[:, i]):>13.4f}"
        )
    mean_bias = float(np.abs((answers - truth[None, :]).mean(axis=0)).max())
    lines.append(f"max |mean bias| over t: {mean_bias:.5f}")
    figure_report("\n".join(lines))

    # Shape checks: debiased answers unbiased, error flat in t.
    per_point_sd = answers.std(axis=0)
    standard_error = per_point_sd / np.sqrt(reps)
    assert (
        np.abs((answers - truth[None, :]).mean(axis=0)) <= 5 * standard_error + 1e-4
    ).all()
    medians = np.median(errors, axis=0)
    assert medians.max() <= 4 * max(medians.mean(), 1e-6)


@pytest.mark.figure("categorical-engine")
def test_categorical_engine_speedup(benchmark, figure_report):
    """Vectorized categorical engine vs the scalar reference loops at SIPP scale."""
    n, horizon, window, alphabet, rho = 23374, 12, 3, 3, 0.01
    panel = employment_status_panel(n, horizon, alphabet=alphabet, seed=22)

    def loops(engine):
        return scalar_loops() if engine == "scalar" else contextlib.nullcontext()

    def run_once(engine, seed):
        synthesizer = CategoricalWindowSynthesizer(
            horizon, window, alphabet, rho, seed=seed, noise_method="vectorized"
        )
        with loops(engine):
            start = time.perf_counter()
            synthesizer.run(panel)
            return time.perf_counter() - start

    def experiment():
        rounds = 3
        vectorized = min(run_once("vectorized", 30 + i) for i in range(rounds))
        scalar = min(run_once("scalar", 40 + i) for i in range(rounds))
        return vectorized, scalar

    vectorized, scalar = benchmark.pedantic(experiment, rounds=1, iterations=1)
    speedup = scalar / vectorized

    # Both must release identical histograms in noiseless mode — the
    # ratio compares two implementations of the *same* algorithm.
    releases = []
    for engine in ("vectorized", "scalar"):
        with loops(engine):
            releases.append(
                CategoricalWindowSynthesizer(
                    horizon, window, alphabet, math.inf, seed=50
                ).run(panel)
            )
    engines_agree = all(
        (releases[0].histogram(t) == releases[1].histogram(t)).all()
        for t in releases[0].released_times()
    )

    figure_report(
        "\n".join(
            [
                "### categorical-engine: vectorized vs scalar window engine",
                f"params: n={n}, T={horizon}, k={window}, q={alphabet}, rho={rho}",
                f"scalar reference      : {scalar * 1000:8.1f} ms/run",
                f"vectorized engine     : {vectorized * 1000:8.1f} ms/run",
                f"speedup               : {speedup:8.1f}x (floor {MIN_ENGINE_SPEEDUP}x)",
                f"noiseless equivalence : {'ok' if engines_agree else 'FAIL'}",
            ]
        ),
        metrics={"vectorized_speedup_vs_scalar": speedup},
    )
    assert engines_agree
    assert speedup >= MIN_ENGINE_SPEEDUP, (
        f"vectorized categorical engine only {speedup:.1f}x faster than the "
        f"scalar reference (floor {MIN_ENGINE_SPEEDUP}x)"
    )
