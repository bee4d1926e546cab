"""Ablation experiments and theory-bound checks.

These go beyond the paper's figures to probe the design decisions its text
calls out (DESIGN.md §5):

* ``abl-counter`` — Algorithm 2 instantiated with each registered stream
  counter ("stream counters enjoying improved concrete accuracy ... may
  yield improved practical results", §1.1);
* ``abl-npad``   — padding size vs negative-count events and error (§3.1's
  padding discussion; includes the clamping baseline at ``n_pad = 0``);
* ``abl-budget`` — uniform vs Corollary B.1 budget split across thresholds;
* ``abl-baseline`` — Algorithm 1 vs the recompute-from-scratch strawman
  (error and consistency violations, §1);
* ``thm32`` / ``corB1`` — empirical max errors vs the stated bounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.replication import cumulative_strategy, replicate_synthesizer
from repro.analysis.theory import corollary_b1_alpha, theorem_3_2_bound
from repro.baselines.recompute import RecomputeBaseline, ever_spell_fraction
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import two_state_markov
from repro.experiments.config import FigureResult
from repro.queries.cumulative import HammingAtLeast
from repro.queries.window import AtLeastMOnes
from repro.rng import SeedLike, spawn
from repro.streams.registry import available_counters

__all__ = [
    "run_counter_ablation",
    "run_padding_ablation",
    "run_budget_ablation",
    "run_baseline_comparison",
    "run_bound_checks",
    "ablation_panel",
]

_N = 4000
_HORIZON = 12


def ablation_panel(seed: int = 11, n: int = _N):
    """Markov panel shared by the ablations (poverty-like dynamics)."""
    return two_state_markov(n, _HORIZON, p_stay=0.85, p_enter=0.02, seed=seed)


def _cumulative_max_errors(
    panel,
    rho: float,
    n_reps: int,
    seed,
    *,
    counter: str = "binary_tree",
    budget: str = "corollary_b1",
    noise_method: str,
    strategy: str | None,
    n_jobs: int | None,
) -> np.ndarray:
    """Per-rep worst |error| over the full (threshold, time) grid.

    One :func:`replicate_synthesizer` call over every ``HammingAtLeast``
    threshold, so the ablations inherit the batched / process strategies.
    A ``"batched"`` request softens to ``"auto"`` when this particular
    counter has no rep axis — the counter ablation
    sweeps *every* registered counter, so a strict ``batched`` would abort
    the sweep on the first fallback-only name.
    """
    strategy = cumulative_strategy(strategy, counter)
    queries = [HammingAtLeast(b) for b in range(1, panel.horizon + 1)]
    times = list(range(1, panel.horizon + 1))

    def factory(generator):
        return CumulativeSynthesizer(
            horizon=panel.horizon,
            rho=rho,
            counter=counter,
            budget=budget,
            seed=generator,
            noise_method=noise_method,
        )

    replicated = replicate_synthesizer(
        factory, panel, queries, times, n_reps=n_reps, seed=seed,
        strategy=strategy, n_jobs=n_jobs,
    )
    return replicated.max_abs_error_per_rep()


def run_counter_ablation(
    rho: float = 0.05,
    n_reps: int = 10,
    seed: SeedLike = 0,
    noise_method: str = "vectorized",
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Algorithm 2 with every registered counter, same data and budget."""
    panel = ablation_panel()
    rows = []
    for name in available_counters():
        errors = _cumulative_max_errors(
            panel, rho, n_reps, seed, counter=name,
            noise_method=noise_method, strategy=strategy, n_jobs=n_jobs,
        )
        rows.append(
            {
                "counter": name,
                "max_error_median": float(np.median(errors)),
                "max_error_p90": float(np.percentile(errors, 90)),
            }
        )
    rows.sort(key=lambda row: row["max_error_median"])
    result = FigureResult(
        experiment_id="abl-counter",
        title="Algorithm 2 instantiated with different stream counters",
        parameters={
            "rho": rho,
            "n": panel.n_individuals,
            "T": _HORIZON,
            "reps": n_reps,
        },
        paper_expectation=(
            "The binary tree counter (paper's choice) beats the naive "
            "counter; improved counters may do better still (paper §1.1)."
        ),
        comparison_rows=rows,
        comparison_columns=["counter", "max_error_median", "max_error_p90"],
    )
    by_name = {row["counter"]: row["max_error_median"] for row in rows}
    result.check(
        "tree counter beats the naive per-step counter",
        by_name["binary_tree"] <= by_name["simple"],
    )
    result.check(
        "Honaker refinement does not hurt the tree counter",
        by_name["honaker"] <= by_name["binary_tree"] * 1.25,
    )
    return result


def run_padding_ablation(
    rho: float = 0.01,
    n_reps: int = 10,
    seed: SeedLike = 0,
    noise_method: str = "vectorized",
) -> FigureResult:
    """Padding levels from none (clamping baseline) to the Theorem 3.2 value."""
    panel = ablation_panel()
    window = 3
    beta = 0.05
    full = math.ceil(theorem_3_2_bound(_HORIZON, window, rho, beta))
    levels = [0, full // 4, full // 2, full]
    query = AtLeastMOnes(window, 1)
    times = list(range(window, _HORIZON + 1))
    rows = []
    for n_pad in levels:
        events = []
        errors = []
        for generator in spawn(seed, n_reps):
            synthesizer = FixedWindowSynthesizer(
                horizon=_HORIZON,
                window=window,
                rho=rho,
                n_pad=n_pad,
                seed=generator,
                noise_method=noise_method,
            )
            release = synthesizer.run(panel)
            events.append(release.negative_count_events)
            errors.append(
                max(
                    abs(release.answer(query, t) - query.evaluate(panel, t))
                    for t in times
                )
            )
        rows.append(
            {
                "n_pad": n_pad,
                "negative_events_mean": float(np.mean(events)),
                "runs_with_events": int(sum(1 for e in events if e > 0)),
                "max_error_median": float(np.median(errors)),
            }
        )
    result = FigureResult(
        experiment_id="abl-npad",
        title="Effect of the padding size n_pad (0 = naive clamping)",
        parameters={
            "rho": rho,
            "n": panel.n_individuals,
            "T": _HORIZON,
            "k": window,
            "reps": n_reps,
            "theorem_3_2_n_pad": full,
        },
        paper_expectation=(
            "Without padding, negative noisy counts force clamping events "
            "that break consistency; the Theorem 3.2 padding makes them "
            "vanishingly rare (probability beta)."
        ),
        comparison_rows=rows,
        comparison_columns=[
            "n_pad",
            "negative_events_mean",
            "runs_with_events",
            "max_error_median",
        ],
    )
    result.check(
        "no padding suffers clamping events",
        rows[0]["negative_events_mean"] > 0,
    )
    result.check(
        "full Theorem 3.2 padding avoids clamping events in every run",
        rows[-1]["runs_with_events"] == 0,
    )
    result.check(
        "events decrease monotonically with padding",
        all(
            rows[i]["negative_events_mean"] >= rows[i + 1]["negative_events_mean"]
            for i in range(len(rows) - 1)
        ),
    )
    return result


def run_budget_ablation(
    rho: float = 0.01,
    n_reps: int = 10,
    seed: SeedLike = 0,
    noise_method: str = "vectorized",
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Uniform vs Corollary B.1 budget split across thresholds."""
    panel = ablation_panel()
    rows = []
    for budget in ("uniform", "corollary_b1"):
        errors = _cumulative_max_errors(
            panel, rho, n_reps, seed, budget=budget,
            noise_method=noise_method, strategy=strategy, n_jobs=n_jobs,
        )
        rows.append(
            {
                "budget": budget,
                "max_error_median": float(np.median(errors)),
                "max_error_p90": float(np.percentile(errors, 90)),
            }
        )
    result = FigureResult(
        experiment_id="abl-budget",
        title="Budget split across thresholds: uniform vs Corollary B.1",
        parameters={
            "rho": rho,
            "n": panel.n_individuals,
            "T": _HORIZON,
            "reps": n_reps,
        },
        paper_expectation=(
            "Corollary B.1's cubic-log weights equalize per-counter bounds; "
            "worst-case error should be no worse than the uniform split."
        ),
        comparison_rows=rows,
        comparison_columns=["budget", "max_error_median", "max_error_p90"],
    )
    by_name = {row["budget"]: row["max_error_median"] for row in rows}
    result.check(
        "Corollary B.1 split is competitive with uniform (within 25%)",
        by_name["corollary_b1"] <= by_name["uniform"] * 1.25,
    )
    return result


def run_baseline_comparison(
    rho: float = 0.05,
    n_reps: int = 5,
    seed: SeedLike = 0,
    noise_method: str = "vectorized",
) -> FigureResult:
    """Algorithm 1 vs the recompute-from-scratch strawman."""
    panel = ablation_panel(n=2000)
    window = 3
    query = AtLeastMOnes(window, 1)
    times = list(range(window, _HORIZON + 1))
    spell_lengths = (5, 6)  # the paper's "6-month spell" pathology (and 5)

    algo_errors, algo_violations = [], []
    base_errors, base_violations = [], []
    for generator in spawn(seed, n_reps):
        children = spawn(generator, 2)
        synthesizer = FixedWindowSynthesizer(
            horizon=_HORIZON, window=window, rho=rho, seed=children[0],
            noise_method=noise_method,
        )
        release = synthesizer.run(panel)
        algo_errors.append(
            max(abs(release.answer(query, t) - query.evaluate(panel, t)) for t in times)
        )
        violations = 0
        for length in spell_lengths:
            series = [
                ever_spell_fraction(release.synthetic_data(t), length, t)
                for t in times
            ]
            violations += sum(1 for a, b in zip(series, series[1:]) if b < a - 1e-12)
        algo_violations.append(violations)

        baseline = RecomputeBaseline(
            horizon=_HORIZON, window=window, rho=rho, seed=children[1],
            noise_method=noise_method,
        )
        base_release = baseline.run(panel)
        base_errors.append(
            max(
                abs(base_release.answer(query, t) - query.evaluate(panel, t))
                for t in times
            )
        )
        base_violations.append(base_release.spell_violations(spell_lengths))

    rows = [
        {
            "method": "algorithm_1",
            "max_error_median": float(np.median(algo_errors)),
            "consistency_violations_mean": float(np.mean(algo_violations)),
        },
        {
            "method": "recompute_from_scratch",
            "max_error_median": float(np.median(base_errors)),
            "consistency_violations_mean": float(np.mean(base_violations)),
        },
    ]
    result = FigureResult(
        experiment_id="abl-baseline",
        title="Algorithm 1 vs recompute-from-scratch (error + consistency)",
        parameters={
            "rho": rho,
            "n": panel.n_individuals,
            "T": _HORIZON,
            "k": window,
            "reps": n_reps,
        },
        paper_expectation=(
            "Recomputing from scratch pays a sqrt(T) composition penalty and "
            "lets monotone 'ever experienced a spell' statistics decrease; "
            "Algorithm 1 keeps them monotone by construction (§1)."
        ),
        comparison_rows=rows,
        comparison_columns=["method", "max_error_median", "consistency_violations_mean"],
    )
    result.check(
        "Algorithm 1 never violates 'ever' monotonicity",
        float(np.mean(algo_violations)) == 0.0,
    )
    result.check(
        "recompute baseline produces consistency violations",
        float(np.mean(base_violations)) > 0.0,
    )
    result.check(
        "Algorithm 1 is more accurate than recompute-from-scratch",
        rows[0]["max_error_median"] <= rows[1]["max_error_median"],
    )
    return result


def run_bound_checks(
    n_reps: int = 20,
    seed: SeedLike = 0,
    rho: float = 0.05,
    noise_method: str = "vectorized",
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Empirical max errors vs Theorem 3.2 and Corollary B.1 bounds.

    ``strategy`` / ``n_jobs`` apply to the Corollary B.1 half (which
    replicates Algorithm 2); the Theorem 3.2 half inspects per-run
    histograms directly and stays a serial loop.
    """
    panel = ablation_panel()
    window = 3
    beta = 0.05

    # Theorem 3.2: per-bin padded-count error, all bins and steps.
    bound_32 = theorem_3_2_bound(_HORIZON, window, rho, beta)
    worst_errors = []
    for generator in spawn(seed, n_reps):
        synthesizer = FixedWindowSynthesizer(
            horizon=_HORIZON, window=window, rho=rho, seed=generator,
            noise_method=noise_method,
        )
        release = synthesizer.run(panel)
        n_pad = release.padding.n_pad
        worst = 0
        for t in range(window, _HORIZON + 1):
            true_counts = panel.suffix_histogram(t, window)
            released = release.histogram(t)
            worst = max(worst, int(np.abs(released - (true_counts + n_pad)).max()))
        worst_errors.append(worst)
    exceed_32 = sum(1 for err in worst_errors if err > bound_32)

    # Corollary B.1: fraction-scale error of Algorithm 2 over all (b, t).
    bound_b1 = corollary_b1_alpha(_HORIZON, rho, beta, panel.n_individuals)
    worst_cumulative = _cumulative_max_errors(
        panel, rho, n_reps, seed, noise_method=noise_method,
        strategy=strategy, n_jobs=n_jobs,
    )
    exceed_b1 = sum(1 for err in worst_cumulative if err > bound_b1)

    rows = [
        {
            "bound": "theorem_3_2 (counts)",
            "bound_value": float(bound_32),
            "empirical_median": float(np.median(worst_errors)),
            "empirical_max": float(np.max(worst_errors)),
            "runs_exceeding": exceed_32,
        },
        {
            "bound": "corollary_B1 (fractions)",
            "bound_value": float(bound_b1),
            "empirical_median": float(np.median(worst_cumulative)),
            "empirical_max": float(np.max(worst_cumulative)),
            "runs_exceeding": exceed_b1,
        },
    ]
    result = FigureResult(
        experiment_id="thm32",
        title="Empirical worst-case errors vs the paper's bounds",
        parameters={
            "rho": rho,
            "n": panel.n_individuals,
            "T": _HORIZON,
            "k": window,
            "beta": beta,
            "reps": n_reps,
        },
        paper_expectation=(
            "Observed worst-case errors stay below the stated bounds except "
            "with probability at most beta (respectively T*beta)."
        ),
        comparison_rows=rows,
        comparison_columns=[
            "bound",
            "bound_value",
            "empirical_median",
            "empirical_max",
            "runs_exceeding",
        ],
    )
    result.check("Theorem 3.2 bound holds in every run", exceed_32 == 0)
    result.check("Corollary B.1 bound holds in every run", exceed_b1 == 0)
    return result
