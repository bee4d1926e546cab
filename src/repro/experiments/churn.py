"""``churn``: the attrition-sweep figure for dynamic populations.

The paper's experiments fix the SIPP panel's population up front by
deleting every household with a missing month; real SIPP panels attrit
wave by wave.  This experiment sweeps the monthly attrition hazard over a
simulated SIPP poverty panel with mid-stream entry (the dynamic-population
subsystem of :mod:`repro.core.population`) and measures how the noisy
cumulative release tracks the zero-fill ground truth as churn grows.

Self-checks pinned by the test suite and the CLI exit code:

* the zero-churn leg is **bit-exact** with the fixed-population path —
  the whole static suite doubles as a regression harness for the churn
  refactor;
* release invariants (monotone table, census equality) hold at every
  hazard;
* the released lifespan table reproduces the panel's churn schedule.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.metrics import SeriesSummary
from repro.core.cumulative import CumulativeSynthesizer
from repro.data.sipp import load_sipp_dynamic
from repro.experiments.config import FigureResult
from repro.queries import HammingAtLeast
from repro.rng import spawn

__all__ = ["run_churn_experiment", "CHURN_HAZARDS"]

#: Monthly attrition hazards swept by the figure; 0.0 is the equivalence
#: anchor, 0.025 the SIPP-calibrated default, the rest stress churn.
CHURN_HAZARDS = (0.0, 0.01, 0.025, 0.06)


def run_churn_experiment(
    n_reps: int = 25,
    seed: int = 0,
    *,
    rho: float = 0.005,
    b: int = 3,
    n_households: int = 2000,
    hazards=CHURN_HAZARDS,
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Run the attrition sweep and its dynamic-population self-checks.

    Parameters
    ----------
    n_reps:
        Noisy repetitions per hazard level.
    seed:
        Master seed; the panel per hazard and every repetition derive
        deterministic child streams from it.
    rho:
        Total zCDP budget per run (the paper's Figure 2 uses 0.005).
    b:
        Hamming-weight threshold of the tracked query (months in
        poverty).
    n_households:
        Ever-admitted household count of the simulated SIPP cut.
    hazards:
        Monthly attrition hazards to sweep; must include 0.0 so the
        bit-exactness anchor runs.
    strategy, n_jobs:
        Accepted for CLI uniformity and recorded; repetitions run
        serially because the batched replication engine replays static
        panels.

    Returns
    -------
    FigureResult
        One error series per hazard, a comparison table of attrition
        levels, and the equivalence/invariant checks.
    """
    result = FigureResult(
        experiment_id="churn",
        title="Cumulative release accuracy under dynamic-population churn",
        parameters={
            "rho": rho,
            "b": b,
            "n_households": n_households,
            "reps": n_reps,
            "hazards": tuple(float(h) for h in hazards),
            "strategy": strategy or "serial",
            "n_jobs": n_jobs,
        },
        paper_expectation=(
            "the zero-churn release is bit-exact with the static path, and "
            "error stays in the static regime as attrition grows (departed "
            "histories freeze instead of being deleted)"
        ),
    )
    query = HammingAtLeast(b)

    for hazard in hazards:
        panel = load_sipp_dynamic(
            seed=seed,
            target_households=n_households,
            attrition_hazard=float(hazard),
            entry_rate=0.02 if hazard > 0 else 0.0,
        )
        horizon = panel.horizon
        times = np.arange(1, horizon + 1)

        oracle = CumulativeSynthesizer(horizon, math.inf, seed=seed)
        oracle_release = oracle.run(panel)
        truth = np.array([oracle_release.answer(query, t) for t in times])

        samples = np.empty((n_reps, horizon))
        invariants_ok = True
        lifespan_ok = True
        for rep, child in enumerate(spawn(seed + 1, n_reps)):
            synth = CumulativeSynthesizer(horizon, rho, seed=child)
            release = synth.run(panel)
            samples[rep] = [release.answer(query, t) for t in times]
            invariants_ok = invariants_ok and synth.check_invariants()
            spans = synth.lifespans()
            lifespan_ok = lifespan_ok and bool(
                (spans[:, 0] == panel.entry_round).all()
                and (spans[:, 1] == panel.exit_round).all()
            )
        result.summaries.append(
            SeriesSummary.from_samples(
                times, samples, truth, label=f"hazard={float(hazard):g}"
            )
        )
        errors = np.abs(samples - truth[None, :]).mean(axis=0)
        retained = panel.n_active(horizon) / panel.n_ever
        result.comparison_rows.append(
            {
                "hazard": float(hazard),
                "n_ever": panel.n_ever,
                "retained_final": round(retained, 4),
                "max_mean_abs_err": round(float(errors.max()), 6),
            }
        )
        result.check(f"invariants hold (hazard={float(hazard):g})", invariants_ok)
        result.check(
            f"lifespan table matches the schedule (hazard={float(hazard):g})",
            lifespan_ok,
        )
        result.check(
            f"errors finite (hazard={float(hazard):g})",
            bool(np.isfinite(errors).all()),
        )

        if float(hazard) == 0.0:
            # Equivalence anchor: the zero-churn dynamic path must be
            # bit-exact with the fixed-population path, noise included.
            dynamic = CumulativeSynthesizer(horizon, rho, seed=seed + 2)
            fixed = CumulativeSynthesizer(horizon, rho, seed=seed + 2)
            dynamic_release = dynamic.run(panel)
            fixed_release = fixed.run(panel.as_longitudinal())
            result.check(
                "zero-churn bit-exact with static path",
                bool(
                    (
                        dynamic_release.threshold_table()
                        == fixed_release.threshold_table()
                    ).all()
                    and dynamic_release.synthetic_data()
                    == fixed_release.synthetic_data()
                    and dynamic.accountant.charges == fixed.accountant.charges
                ),
            )

    result.comparison_columns = [
        "hazard",
        "n_ever",
        "retained_final",
        "max_mean_abs_err",
    ]
    return result
