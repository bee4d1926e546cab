"""SIPP quarterly poverty experiments — Figures 1, 5, 6, 7.

The paper synthesizes the SIPP 2021 poverty panel (N=23374, T=12) with
window width ``k = 3`` and answers, per quarter, four statistics:
in poverty in at least one / at least two / at least two consecutive / all
three months.  Figure 1 shows the raw (biased) synthetic answers at
``rho = 0.005``; Figures 5-7 contrast biased and debiased answers at
``rho in {0.001, 0.005, 0.05}``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.replication import replicate_synthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.dataset import LongitudinalDataset
from repro.data.sipp import (
    SIPP_2021_HORIZON,
    SIPP_2021_N_HOUSEHOLDS,
    load_sipp_2021,
)
from repro.experiments.config import FigureResult
from repro.queries.workloads import quarter_ends, quarterly_poverty_workload
from repro.rng import SeedLike

__all__ = ["run_sipp_window_experiment", "sipp_panel"]

_WINDOW = 3


@lru_cache(maxsize=2)
def sipp_panel(n_households: int = SIPP_2021_N_HOUSEHOLDS) -> LongitudinalDataset:
    """The (simulated) SIPP 2021 panel, cached across experiments."""
    return load_sipp_2021(target_households=n_households)


def run_sipp_window_experiment(
    rho: float,
    n_reps: int,
    seed: SeedLike = 0,
    experiment_id: str = "fig1",
    debias: bool = False,
    data: LongitudinalDataset | None = None,
    include_debiased_panel: bool = True,
) -> FigureResult:
    """Reproduce one SIPP quarterly-poverty figure.

    Parameters
    ----------
    rho:
        Total zCDP budget (0.005 for Figures 1/6, 0.001 for 5, 0.05 for 7).
    debias:
        Whether the *headline* summaries use the debiasing step.  Figure 1
        plots the biased answers; the right panels of Figures 5-7 plot the
        debiased ones.
    include_debiased_panel:
        Also compute the debiased answers (the right panel) and run the
        unbiasedness checks on them.
    """
    panel = data if data is not None else sipp_panel()
    queries = quarterly_poverty_workload(_WINDOW)
    times = quarter_ends(panel.horizon, _WINDOW)

    def factory(generator):
        return FixedWindowSynthesizer(
            horizon=panel.horizon,
            window=_WINDOW,
            rho=rho,
            seed=generator,
        )

    headline = replicate_synthesizer(
        factory, panel, queries, times, n_reps=n_reps, seed=seed, debias=debias
    )
    result = FigureResult(
        experiment_id=experiment_id,
        title=(
            "Proportion of SIPP households in poverty per quarter (2021), "
            f"{'debiased' if debias else 'synthetic-data (biased)'} answers"
        ),
        parameters={
            "rho": rho,
            "k": _WINDOW,
            "n": panel.n_individuals,
            "T": panel.horizon,
            "reps": n_reps,
            "debias": debias,
        },
        paper_expectation=(
            "Biased answers overshoot the ground truth by the public padding "
            "amount; debiased answers are centered on the truth (X marks)."
        ),
        summaries=[
            _relabel(summary, f"{summary.label} [{'debiased' if debias else 'biased'}]")
            for summary in headline.summaries()
        ],
    )

    # Quarterly truths are ~0.08-0.15; at these budgets the per-query noise
    # scale is lambda/n and the band should cover the truth (debiased) or
    # sit strictly above it (biased: padding adds ~2^k*n_pad/n mass).
    if debias:
        for summary in headline.summaries():
            result.check(
                f"{summary.label}: |mean bias| small",
                summary.max_mean_bias < _bias_tolerance(rho, panel.n_individuals, n_reps),
            )
    else:
        # The padding pushes biased answers up by ~n_pad-scale mass; with
        # few repetitions the replication mean still fluctuates, so allow a
        # Monte-Carlo margin below the truth.
        margin = _bias_tolerance(rho, panel.n_individuals, n_reps)
        for summary in headline.summaries():
            result.check(
                f"{summary.label}: biased answers sit above the truth",
                bool((summary.mean >= summary.truth - margin).all()),
            )

    if include_debiased_panel and not debias:
        debiased = replicate_synthesizer(
            factory, panel, queries, times, n_reps=n_reps, seed=seed, debias=True
        )
        for summary in debiased.summaries():
            result.summaries.append(_relabel(summary, f"{summary.label} [debiased]"))
            result.check(
                f"{summary.label}: debiased mean unbiased",
                summary.max_mean_bias < _bias_tolerance(rho, panel.n_individuals, n_reps),
            )
    return result


def _relabel(summary, label: str):
    """Copy a frozen :class:`SeriesSummary` under a new label."""
    return type(summary)(
        x=summary.x,
        truth=summary.truth,
        median=summary.median,
        lower=summary.lower,
        upper=summary.upper,
        mean=summary.mean,
        label=label,
    )


def _bias_tolerance(rho: float, n: int, n_reps: int) -> float:
    """Monte-Carlo tolerance for the 'unbiased' checks.

    The per-query answer noise has stddev on the order of
    ``sqrt(2**k * (T-k+1) / (2 rho)) / n``; the replication mean averages it
    down by ``sqrt(n_reps)``.  Five standard errors keeps the check robust
    at small repetition counts.
    """
    import math

    per_rep_sd = math.sqrt((2**_WINDOW) * (SIPP_2021_HORIZON - _WINDOW + 1) / (2 * rho)) / n
    return 5.0 * per_rep_sd / math.sqrt(n_reps) + 1e-9
