"""Scaling-law sweeps: error vs privacy budget and vs population size.

The paper's bounds predict two clean scalings for the debiased
fixed-window error (Theorem 3.2 / Corollary 3.3):

* ``error ∝ 1/sqrt(rho)`` at fixed ``n`` — halving the budget costs
  ``sqrt(2)`` in accuracy;
* ``error ∝ 1/n`` at fixed ``rho`` — the noise is additive in counts, so
  fraction-scale error vanishes as the panel grows.

These sweeps measure both empirically and fit the log-log slope; the
benchmarks assert the fitted exponents match the theory within tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.replication import replicate_synthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import two_state_markov
from repro.experiments.config import FigureResult
from repro.queries.window import AtLeastMOnes
from repro.rng import SeedLike

__all__ = ["run_rho_sweep", "run_population_sweep", "fit_loglog_slope"]

_HORIZON = 12
_WINDOW = 3


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    x = np.log(np.asarray(x, dtype=np.float64))
    y = np.log(np.asarray(y, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _mean_abs_error(panel, rho: float, n_reps: int, seed) -> float:
    """Mean |debiased error| of the ≥1-month query at the final round."""
    query = AtLeastMOnes(_WINDOW, 1)
    t = panel.horizon

    def factory(generator):
        return FixedWindowSynthesizer(
            horizon=panel.horizon,
            window=_WINDOW,
            rho=rho,
            seed=generator,
        )

    replicated = replicate_synthesizer(
        factory, panel, [query], [t], n_reps=n_reps, seed=seed
    )
    return float(np.abs(replicated.errors()).mean())


def run_rho_sweep(
    n_reps: int = 20,
    seed: SeedLike = 0,
    n: int = 8000,
    rhos: tuple[float, ...] = (0.002, 0.005, 0.02, 0.05, 0.2),
) -> FigureResult:
    """Error vs privacy budget at fixed population size.

    Theory predicts a log-log slope of −1/2 (error ∝ rho^{-1/2}).
    """
    panel = two_state_markov(n, _HORIZON, p_stay=0.85, p_enter=0.02, seed=17)
    rows = []
    errors = []
    for rho in rhos:
        error = _mean_abs_error(panel, rho, n_reps, seed)
        errors.append(error)
        rows.append({"rho": rho, "mean_abs_error": error})
    slope = fit_loglog_slope(np.asarray(rhos), np.asarray(errors))
    result = FigureResult(
        experiment_id="sweep-rho",
        title="Debiased error vs privacy budget rho (fixed n)",
        parameters={"n": n, "T": _HORIZON, "k": _WINDOW, "reps": n_reps},
        paper_expectation=(
            "Theorem 3.2: error scales like rho^(-1/2); fitted log-log "
            "slope should be near -0.5."
        ),
        comparison_rows=rows + [{"rho": "log-log slope", "mean_abs_error": slope}],
        comparison_columns=["rho", "mean_abs_error"],
    )
    result.check(
        "error decreases monotonically in rho", errors == sorted(errors, reverse=True)
    )
    result.check("log-log slope within [-0.75, -0.25]", -0.75 <= slope <= -0.25)
    return result


def run_population_sweep(
    n_reps: int = 20,
    seed: SeedLike = 0,
    rho: float = 0.02,
    sizes: tuple[int, ...] = (1000, 2000, 4000, 8000, 16000),
) -> FigureResult:
    """Error vs population size at fixed budget.

    Theory predicts a log-log slope of −1 (error ∝ 1/n): the count-scale
    noise is independent of ``n``, so the fraction-scale error shrinks
    linearly.
    """
    rows = []
    errors = []
    for n in sizes:
        panel = two_state_markov(n, _HORIZON, p_stay=0.85, p_enter=0.02, seed=18)
        error = _mean_abs_error(panel, rho, n_reps, seed)
        errors.append(error)
        rows.append({"n": n, "mean_abs_error": error})
    slope = fit_loglog_slope(np.asarray(sizes, dtype=np.float64), np.asarray(errors))
    result = FigureResult(
        experiment_id="sweep-n",
        title="Debiased error vs population size n (fixed rho)",
        parameters={"rho": rho, "T": _HORIZON, "k": _WINDOW, "reps": n_reps},
        paper_expectation=(
            "Corollary 3.3: fraction-scale error scales like 1/n; fitted "
            "log-log slope should be near -1."
        ),
        comparison_rows=rows + [{"n": "log-log slope", "mean_abs_error": slope}],
        comparison_columns=["n", "mean_abs_error"],
    )
    result.check("error decreases monotonically in n", errors == sorted(errors, reverse=True))
    result.check("log-log slope within [-1.35, -0.65]", -1.35 <= slope <= -0.65)
    return result
