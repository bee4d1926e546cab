"""SIPP cumulative poverty experiments — Figures 2 and 8.

Algorithm 2 synthesizes the SIPP panel and the release answers, for every
month ``t``, "what fraction of households were in poverty for at least
``b = 3`` of the first ``t`` months".  The paper shows the answers averaged
over 1000 repetitions match the ground truth ("our approach provides an
unbiased estimate of the cumulative time queries"), at ``rho = 0.005``.
Figure 8 is the appendix twin of Figure 2 with identical parameters; both
benchmark ids run this experiment.
"""

from __future__ import annotations

import math

from repro.analysis.replication import cumulative_strategy, replicate_synthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.data.dataset import LongitudinalDataset
from repro.experiments.config import FigureResult
from repro.experiments.sipp_window import sipp_panel
from repro.queries.cumulative import HammingAtLeast
from repro.rng import SeedLike

__all__ = ["run_sipp_cumulative_experiment"]


def run_sipp_cumulative_experiment(
    rho: float,
    n_reps: int,
    seed: SeedLike = 0,
    experiment_id: str = "fig2",
    b: int = 3,
    counter: str = "binary_tree",
    budget: str = "corollary_b1",
    data: LongitudinalDataset | None = None,
    noise_method: str = "vectorized",
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Reproduce Figure 2 / Figure 8.

    Parameters
    ----------
    rho:
        Total zCDP budget (0.005 in the paper).
    b:
        Threshold for the headline series ("at least b months in poverty";
        the paper focuses on ``b = 3`` while the release supports all
        thresholds simultaneously).
    counter / budget:
        Stream-counter name and budget split (paper: binary tree,
        Corollary B.1 weights).
    strategy / n_jobs:
        Replication strategy and process-pool width for
        :func:`~repro.analysis.replication.replicate_synthesizer`; the
        default ``auto`` runs this experiment's repetitions as one batched
        ``(R, T)`` state machine when the counter has a native bank.
    """
    panel = data if data is not None else sipp_panel()
    strategy = cumulative_strategy(strategy, counter)
    query = HammingAtLeast(b)
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
        factory, panel, [query], times, n_reps=n_reps, seed=seed,
        strategy=strategy, n_jobs=n_jobs,
    )
    summary = replicated.summary(0)

    result = FigureResult(
        experiment_id=experiment_id,
        title=(
            f"Proportion of SIPP households in poverty for at least {b} months "
            f"up to any given month (2021), rho={rho}"
        ),
        parameters={
            "rho": rho,
            "b": b,
            "n": panel.n_individuals,
            "T": panel.horizon,
            "reps": n_reps,
            "counter": counter,
            "budget": budget,
            "strategy": strategy,
        },
        paper_expectation=(
            "Synthetic-data answers averaged over repetitions accurately match "
            "the ground truth at every month (unbiased estimates)."
        ),
        summaries=[summary],
    )

    tolerance = _bias_tolerance(panel.horizon, rho, panel.n_individuals, n_reps)
    result.check("mean answers unbiased at every month", summary.max_mean_bias < tolerance)
    result.check(
        "truth before month b is zero and so are the answers",
        bool(
            (summary.truth[: b - 1] == 0).all()
            and (summary.median[: b - 1] <= tolerance).all()
        ),
    )
    result.check(
        "median series non-decreasing (cumulative statistic)",
        bool((summary.median[1:] - summary.median[:-1] >= -1e-12).all()),
    )
    return result


def _bias_tolerance(horizon: int, rho: float, n: int, n_reps: int) -> float:
    """Five standard errors of the replication mean for the b-th counter.

    Per-repetition answer noise is at most the tree-counter error scale
    ``sqrt(levels^2 * sigma_b^2) / n`` with the Corollary B.1 budget; a
    conservative simplification ``sqrt(T * levels / (2 rho_typical)) / n``
    with ``rho_typical = rho / T`` keeps the check counter-agnostic.
    """
    levels = max(math.ceil(math.log2(horizon)), 1)
    per_rep_sd = math.sqrt(levels * levels * horizon / (2 * rho)) / n
    return 5.0 * per_rep_sd / math.sqrt(n_reps) + 1e-9
