"""Multi-attribute composition — overhead and pinned-seed accuracy.

Not a paper figure: pins the performance and accuracy contract of
:class:`~repro.core.multi_attribute.MultiAttributeSynthesizer`.  Two
gated metrics land in ``BENCH_*.json`` for ``check_regression.py``:

* ``composition_overhead_ratio`` — runtime of the d=2 composite
  (employment q=3 x income q=4, one cross pair) over the summed runtimes
  of the two standalone engines on the same panels.  Machine-independent
  (a ratio of runs on the same box); the cross-histogram mechanism and
  the frame plumbing are the only extra work, so the ratio must stay
  small (direction: lower).
* ``multiattr_mean_abs_error`` — mean absolute debiased error over a
  pinned seed/rep grid (byte-reproducible: every sampled bit is seeded),
  gating the accuracy of the budget split (direction: lower).
"""

import math
import time

import numpy as np
import pytest

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.multi_attribute import MultiAttributeSynthesizer
from repro.data.categorical import (
    CategoricalDataset,
    categorical_markov,
    employment_status_panel,
    sticky_transitions,
)
from repro.queries.categorical import CategoryAtLeastM
from repro.rng import spawn

#: Acceptance ceiling for the composite-vs-standalone runtime ratio.
MAX_OVERHEAD_RATIO = 3.0

#: Pinned accuracy-grid parameters (deliberately not REPRO_BENCH_REPS:
#: the gated error metric must be byte-reproducible against the
#: committed baseline).
ACCURACY_REPS = 6
ACCURACY_SEED = 0


@pytest.mark.figure("multiattr-overhead")
def test_multi_attribute_composition_overhead(benchmark, figure_report):
    """d=2 composite vs the two standalone engines it wraps (ratio gate)."""
    n, horizon, window = 20000, 12, 3
    emp = employment_status_panel(n, horizon, seed=60)
    inc = categorical_markov(n, horizon, sticky_transitions(4), seed=61)
    specs = [
        {"name": "employment", "alphabet": 3},
        {"name": "income", "alphabet": 4},
    ]

    def run_composite(seed):
        synth = MultiAttributeSynthesizer(
            horizon, window, 0.02, attributes=specs, seed=seed,
        )
        start = time.perf_counter()
        synth.run({"employment": emp.matrix, "income": inc.matrix})
        return time.perf_counter() - start

    def run_standalone(panel, alphabet, seed):
        synth = CategoricalWindowSynthesizer(
            horizon, window, alphabet, 0.01, seed=seed,
        )
        start = time.perf_counter()
        synth.run(panel)
        return time.perf_counter() - start

    def experiment():
        rounds = 3
        composite = min(run_composite(70 + i) for i in range(rounds))
        standalone = min(
            run_standalone(emp, 3, 80 + i)
            + run_standalone(CategoricalDataset(inc.matrix, alphabet=4), 4, 90 + i)
            for i in range(rounds)
        )
        return composite, standalone

    composite, standalone = benchmark.pedantic(experiment, rounds=1, iterations=1)
    ratio = composite / standalone

    figure_report(
        "\n".join(
            [
                "### multiattr-overhead: composite vs standalone engines",
                f"params: n={n}, T={horizon}, k={window}, d=2 (q=3 x q=4)",
                f"standalone engines (sum): {standalone * 1000:8.1f} ms/run",
                f"d=2 composite           : {composite * 1000:8.1f} ms/run",
                f"overhead ratio          : {ratio:8.2f}x "
                f"(ceiling {MAX_OVERHEAD_RATIO}x)",
            ]
        ),
        metrics={"composition_overhead_ratio": ratio},
    )
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"d=2 composition costs {ratio:.2f}x the standalone engines "
        f"(ceiling {MAX_OVERHEAD_RATIO}x)"
    )


@pytest.mark.figure("multiattr-accuracy")
def test_multi_attribute_pinned_accuracy(benchmark, figure_report):
    """Pinned-seed debiased error of the d=2 budget split (exact gate)."""
    n, horizon, window, rho = 4000, 12, 3, 0.05
    emp = employment_status_panel(n, horizon, seed=62)
    inc = categorical_markov(n, horizon, sticky_transitions(4), seed=63)
    panels = {"employment": emp.matrix, "income": inc.matrix}
    specs = [
        {"name": "employment", "alphabet": 3},
        {"name": "income", "alphabet": 4},
    ]
    queries = {
        "employment": CategoryAtLeastM(window, 3, category=1, m=1),
        "income": CategoryAtLeastM(window, 4, category=1, m=1),
    }
    times = list(range(window, horizon + 1))

    oracle = MultiAttributeSynthesizer(
        horizon, window, math.inf, attributes=specs, seed=ACCURACY_SEED
    ).run(panels)
    truth = {
        name: np.array(
            [oracle.answer(queries[name], t, attribute=name) for t in times]
        )
        for name in panels
    }

    def experiment():
        errors = []
        for child in spawn(ACCURACY_SEED + 1, ACCURACY_REPS):
            release = MultiAttributeSynthesizer(
                horizon, window, rho, attributes=specs, seed=child,
            ).run(panels)
            for name in panels:
                answers = np.array(
                    [release.answer(queries[name], t, attribute=name) for t in times]
                )
                errors.append(np.abs(answers - truth[name]))
        return float(np.mean(errors))

    mean_abs_error = benchmark.pedantic(experiment, rounds=1, iterations=1)

    figure_report(
        "\n".join(
            [
                "### multiattr-accuracy: pinned-seed debiased error (d=2)",
                f"params: n={n}, T={horizon}, k={window}, rho={rho}, "
                f"reps={ACCURACY_REPS}, seed={ACCURACY_SEED}",
                f"mean |debiased error| : {mean_abs_error:.6f}",
            ]
        ),
        metrics={"multiattr_mean_abs_error": mean_abs_error},
    )
    assert 0.0 < mean_abs_error < 0.2