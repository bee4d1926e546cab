"""Experiment registry: id -> runner.

Every entry takes ``(n_reps, seed, strategy, n_jobs, alphabet,
attributes)`` and returns a :class:`~repro.experiments.config.FigureResult`.  The ids
match the per-experiment index in DESIGN.md §3.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigurationError
from repro.experiments.ablations import (
    run_baseline_comparison,
    run_bound_checks,
    run_budget_ablation,
    run_counter_ablation,
    run_padding_ablation,
)
from repro.experiments.categorical import run_categorical_experiment
from repro.experiments.churn import run_churn_experiment
from repro.experiments.config import FigureResult
from repro.experiments.multi_attribute import run_multiattr_experiment
from repro.experiments.serve_demo import run_serve_demo
from repro.experiments.simulated_window import run_simulated_window_experiment
from repro.experiments.sipp_cumulative import run_sipp_cumulative_experiment
from repro.experiments.sipp_window import run_sipp_window_experiment
from repro.experiments.sweeps import run_population_sweep, run_rho_sweep
from repro.experiments.utility import run_utility_experiment

__all__ = ["EXPERIMENTS", "get_experiment", "list_experiments"]

Runner = Callable[..., FigureResult]

_REPLICATION = ("strategy", "n_jobs")


def _entry(
    func: Runner,
    accepts: tuple[str, ...] = _REPLICATION,
    **fixed,
) -> Runner:
    """Adapt an experiment function to the registry's uniform signature.

    Every runner accepts the full knob set — ``strategy`` (replication
    strategy), ``n_jobs`` (process-pool width), ``alphabet`` (category
    count for the categorical figure), and ``attributes`` (attribute
    count for the multi-attribute figure) — so the CLI can thread one
    flag set through the whole registry.  ``accepts`` names the knobs this experiment
    actually consumes; the rest are accepted and dropped.  ``fixed``
    pins per-entry parameters (rho, experiment id, ...).
    """

    def runner(
        n_reps,
        seed=0,
        strategy=None,
        n_jobs=None,
        alphabet=None,
        attributes=None,
    ):
        knobs = {
            "strategy": strategy,
            "n_jobs": n_jobs,
            "alphabet": alphabet,
            "attributes": attributes,
        }
        kwargs = {name: knobs[name] for name in accepts}
        return func(n_reps=n_reps, seed=seed, **kwargs, **fixed)

    return runner


EXPERIMENTS: dict[str, Runner] = {
    # Paper figures
    "fig1": _entry(
        run_sipp_window_experiment, rho=0.005, experiment_id="fig1", debias=False,
    ),
    "fig2": _entry(
        run_sipp_cumulative_experiment, rho=0.005, experiment_id="fig2",
    ),
    "fig3": _entry(
        run_simulated_window_experiment, experiment_id="fig3", debias=True,
    ),
    "fig4": _entry(
        run_simulated_window_experiment, experiment_id="fig4", debias=False,
    ),
    "fig5": _entry(
        run_sipp_window_experiment, rho=0.001, experiment_id="fig5", debias=False,
    ),
    "fig6": _entry(
        run_sipp_window_experiment, rho=0.005, experiment_id="fig6", debias=False,
    ),
    "fig7": _entry(
        run_sipp_window_experiment, rho=0.05, experiment_id="fig7", debias=False,
    ),
    "fig8": _entry(
        run_sipp_cumulative_experiment, rho=0.005, experiment_id="fig8", b=3,
    ),
    # Bound checks and ablations
    "thm32": _entry(run_bound_checks),
    "corB1": _entry(run_bound_checks),
    "abl-counter": _entry(run_counter_ablation),
    "abl-npad": _entry(run_padding_ablation, ()),
    "abl-budget": _entry(run_budget_ablation),
    "abl-baseline": _entry(run_baseline_comparison, ()),
    "sweep-rho": _entry(run_rho_sweep),
    "sweep-n": _entry(run_population_sweep),
    # Dynamic populations: attrition sweep over a churning SIPP panel,
    # anchored by the zero-churn bit-exactness check.
    "churn": _entry(run_churn_experiment),
    # Multi-category extension: the categorical window synthesizer over
    # the employment-status workload, anchored by the q=2 == binary
    # bit-exactness check.
    "categorical": _entry(
        run_categorical_experiment, ("strategy", "n_jobs", "alphabet")
    ),
    # Multi-attribute composition: d per-attribute window engines under
    # one zCDP budget with cross-attribute marginals, anchored by the
    # d=1 == standalone-engine bit-exactness checks.
    "multiattr": _entry(run_multiattr_experiment, ("alphabet", "attributes")),
    # Online serving walkthrough (repro.serve): round-by-round ingestion,
    # checkpoint/resume byte-identity, tamper rejection, sharded budgets.
    "serve-demo": _entry(run_serve_demo),
    # Utility frontier: padding-aware pMSE + accuracy metrics over
    # rho x horizon x algorithm, anchored by the
    # oracle < Algorithm 1 < clamping ordering check.
    "utility": _entry(run_utility_experiment),
}


def get_experiment(experiment_id: str) -> Runner:
    """Look up a runner by id; raise with the available ids on miss."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def list_experiments() -> list[str]:
    """All experiment ids, sorted."""
    return sorted(EXPERIMENTS)
