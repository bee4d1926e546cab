"""``multiattr``: multi-attribute record streams under one zCDP budget.

Not a paper figure: the paper's algorithms release one attribute per
individual per round, and :class:`~repro.core.multi_attribute.MultiAttributeSynthesizer`
composes them — one window engine per attribute over a shared population
ledger, a single total budget split across attributes and cross-attribute
marginals, and row-consistent synthetic records.  This experiment
exercises the default employment-status (``q = 3``) x income-bracket
(``q = 4``) workload and pins the structural guarantees:

* with a single attribute the composite synthesizer is **bit-exact**
  with the standalone engines (binary and categorical) — noise draws,
  synthetic records, and zCDP ledger included — because the sole
  attribute inherits the master generator and the full budget;
* per-attribute and cross-pair zCDP spends sum to the configured total,
  and a 2:1 attribute weighting moves the split accordingly;
* with the budget effectively removed the released cross-attribute
  counts equal the nonprivate joint histogram exactly, and the derived
  marginal is a proper distribution;
* debiased per-attribute answers stay unbiased at smoke rep counts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.metrics import SeriesSummary
from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.multi_attribute import MultiAttributeSynthesizer
from repro.data.categorical import (
    categorical_markov,
    employment_status_panel,
    sticky_transitions,
)
from repro.data.dataset import LongitudinalDataset
from repro.data.generators import two_state_markov
from repro.experiments.config import FigureResult, resolve_attributes
from repro.queries.categorical import CategoryAtLeastM
from repro.rng import spawn

__all__ = ["run_multiattr_experiment"]


def _workload(
    n: int, horizon: int, d: int, seed: int
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """The d-attribute panel: employment, income bracket, extra markovs."""
    panels: dict[str, np.ndarray] = {}
    specs: list[dict] = []
    panels["employment"] = employment_status_panel(n, horizon, seed=seed).matrix
    specs.append({"name": "employment", "alphabet": 3})
    if d >= 2:
        panels["income"] = categorical_markov(
            n, horizon, sticky_transitions(4), seed=seed + 1
        ).matrix
        specs.append({"name": "income", "alphabet": 4})
    for extra in range(2, d):
        panels[f"attr{extra}"] = categorical_markov(
            n, horizon, sticky_transitions(4), seed=seed + extra
        ).matrix
        specs.append({"name": f"attr{extra}", "alphabet": 4})
    return panels, specs


def _binary_anchor_bit_exact(horizon: int, window: int, rho: float, seed: int) -> bool:
    """``d = 1`` binary multi-attribute must equal the binary synthesizer."""
    matrix = two_state_markov(500, horizon, 0.2, 0.3, seed=seed).matrix
    binary = FixedWindowSynthesizer(horizon, window, rho, seed=seed + 1)
    multi = MultiAttributeSynthesizer(
        horizon,
        window,
        rho,
        attributes=[{"name": "poverty", "alphabet": 2}],
        seed=seed + 1,
    )
    binary_release = binary.run(LongitudinalDataset(matrix))
    multi_release = multi.run({"poverty": matrix})
    inner = multi_release.attribute("poverty")
    histograms_equal = all(
        (binary_release.histogram(t) == inner.histogram(t)).all()
        for t in binary_release.released_times()
    )
    records = multi_release.synthetic_records(horizon)
    panels_equal = bool(
        (
            binary_release.synthetic_data().matrix[:, horizon - 1]
            == records.sole()
        ).all()
    )
    ledgers_equal = binary.accountant.spent == multi.accountant.spent
    return histograms_equal and panels_equal and ledgers_equal


def _categorical_anchor_bit_exact(
    horizon: int, window: int, rho: float, seed: int
) -> bool:
    """``d = 1`` categorical multi-attribute must equal the q-ary engine."""
    panel = employment_status_panel(400, horizon, seed=seed)
    single = CategoricalWindowSynthesizer(
        horizon, window, 3, rho, seed=seed + 1
    )
    multi = MultiAttributeSynthesizer(
        horizon,
        window,
        rho,
        attributes=[{"name": "employment", "alphabet": 3}],
        seed=seed + 1,
    )
    single_release = single.run(panel)
    multi_release = multi.run({"employment": panel.matrix})
    inner = multi_release.attribute("employment")
    return all(
        (single_release.histogram(t) == inner.histogram(t)).all()
        for t in single_release.released_times()
    ) and single.accountant.charges == tuple(
        (label.split(": ", 1)[1], rho_)
        for label, rho_ in multi.accountant.charges
    )


def _component_spends(synth: MultiAttributeSynthesizer) -> dict[str, float]:
    """Total zCDP spent per component, keyed by the charge-label prefix."""
    spends: dict[str, float] = {}
    for label, rho in synth.accountant.charges:
        prefix = label.split(": ", 1)[0]
        spends[prefix] = spends.get(prefix, 0.0) + rho
    return spends


def _cross_consistency(
    panels: dict[str, np.ndarray], specs: list[dict], window: int, seed: int
) -> bool:
    """Noiseless cross counts must equal the true joint histogram."""
    names = list(panels)[:2]
    horizon = panels[names[0]].shape[1]
    specs = specs[:2]
    synth = MultiAttributeSynthesizer(
        horizon, window, math.inf, attributes=specs, seed=seed
    )
    release = synth.run({name: panels[name] for name in names})
    q_a = specs[0]["alphabet"]
    q_b = specs[1]["alphabet"]
    for t in range(1, horizon + 1):
        codes = panels[names[0]][:, t - 1] * q_b + panels[names[1]][:, t - 1]
        truth = np.bincount(codes.astype(np.int64), minlength=q_a * q_b)
        if not (release.cross_counts(names[0], names[1], t) == truth).all():
            return False
        marginal = release.cross_marginal(names[0], names[1], t)
        if marginal.shape != (q_a * q_b,) or not math.isclose(
            float(marginal.sum()), 1.0, rel_tol=1e-12
        ):
            return False
    return True


def run_multiattr_experiment(
    n_reps: int = 25,
    seed: int = 0,
    *,
    rho: float = 0.05,
    attributes: int | None = None,
    window: int = 3,
    n_individuals: int = 2000,
    horizon: int = 12,
    alphabet: int | None = None,
) -> FigureResult:
    """Run the multi-attribute figure and its composition self-checks.

    Parameters
    ----------
    n_reps:
        Noisy repetitions.
    seed:
        Master seed; panels and repetitions derive child streams from it.
    rho:
        Total zCDP budget per run, split across attributes and cross
        pairs.
    attributes:
        Number of attributes ``d >= 2`` for the main figure (the CLI's
        ``--attributes`` / ``$REPRO_ATTRIBUTES``; default 2 — employment
        status x income bracket).  The ``d = 1`` bit-exactness anchors
        always run regardless.
    window:
        Window width ``k``.
    n_individuals:
        Panel size.
    horizon:
        Number of monthly rounds ``T``.
    alphabet:
        Accepted for registry uniformity and ignored (the workload fixes
        each attribute's alphabet).

    Returns
    -------
    FigureResult
        One debiased-answer series per attribute plus the bit-exactness,
        budget-composition, and cross-consistency checks.
    """
    del alphabet  # the workload pins per-attribute alphabets
    d = max(2, resolve_attributes(attributes))
    result = FigureResult(
        experiment_id="multiattr",
        title=f"Multi-attribute continual release over d={d} attributes",
        parameters={
            "rho": rho,
            "attributes": d,
            "window": window,
            "n": n_individuals,
            "horizon": horizon,
            "reps": n_reps,
        },
        paper_expectation=(
            "per-attribute window releases compose under one zCDP budget: "
            "d=1 reduces bit-exactly to the standalone engines, component "
            "spends sum to the configured total, and noiseless "
            "cross-attribute marginals match the nonprivate joint histogram"
        ),
    )
    panels, specs = _workload(n_individuals, horizon, d, seed + 100)
    queries = {
        name: CategoryAtLeastM(window, spec["alphabet"], category=1, m=1)
        for name, spec in zip(panels, specs)
    }
    times = list(range(window, horizon + 1))

    # Ground truth from a noiseless run (exact histograms, exact debias).
    oracle = MultiAttributeSynthesizer(
        horizon, window, math.inf, attributes=specs, seed=seed
    ).run(panels)
    truth = {
        name: np.array([oracle.answer(queries[name], t, attribute=name) for t in times])
        for name in panels
    }

    samples = {name: np.empty((n_reps, len(times))) for name in panels}
    for rep, child in enumerate(spawn(seed + 1, n_reps)):
        synth = MultiAttributeSynthesizer(
            horizon, window, rho, attributes=specs, seed=child
        )
        release = synth.run(panels)
        for name in panels:
            samples[name][rep] = [
                release.answer(queries[name], t, attribute=name) for t in times
            ]
        if rep == 0:
            spends = _component_spends(synth)
            result.check(
                "component spends sum to the configured budget",
                math.isclose(math.fsum(spends.values()), rho, rel_tol=1e-9)
                and math.isclose(synth.zcdp_spent(), rho, rel_tol=1e-9),
            )
            result.comparison_rows = [
                {"component": prefix, "zcdp_spent": round(spent, 8)}
                for prefix, spent in spends.items()
            ]
            result.comparison_columns = ["component", "zcdp_spent"]

    result.summaries = [
        SeriesSummary.from_samples(
            times, samples[name], truth[name], label=f"{name} (debiased)"
        )
        for name in panels
    ]
    all_samples = np.stack([samples[name] for name in panels])
    all_truth = np.stack([truth[name] for name in panels])
    result.check("answers finite", bool(np.isfinite(all_samples).all()))
    errors = all_samples - all_truth[:, None, :]
    pooled_sd = errors.std(axis=(1, 2))[:, None]
    standard_error = pooled_sd / np.sqrt(n_reps)
    result.check(
        "debiased answers unbiased",
        bool((np.abs(errors.mean(axis=1)) <= 5 * standard_error + 1e-3).all()),
    )

    # Weighted budget split: a 2:1 weighting moves the attribute spends.
    weighted = MultiAttributeSynthesizer(
        horizon,
        window,
        rho,
        attributes=[
            {**specs[0], "weight": 2.0},
            {**specs[1], "weight": 1.0},
        ],
        cross=[],
        seed=seed + 2,
    )
    weighted.run({name: panels[name] for name in list(panels)[:2]})
    weighted_spends = _component_spends(weighted)
    names = list(panels)[:2]
    result.check(
        "attribute weights steer the budget split 2:1",
        math.isclose(
            weighted_spends[names[0]], 2 * weighted_spends[names[1]], rel_tol=1e-9
        ),
    )

    # Composition anchors (the sole-attribute fast-path contract).
    result.check(
        "d=1 bit-exact with the binary window synthesizer (noise + ledger)",
        _binary_anchor_bit_exact(horizon, window, rho, seed + 3),
    )
    result.check(
        "d=1 bit-exact with the categorical window synthesizer",
        _categorical_anchor_bit_exact(horizon, window, rho, seed + 4),
    )
    result.check(
        "noiseless cross marginals match the nonprivate joint histogram",
        _cross_consistency(panels, specs, window, seed + 5),
    )
    return result
