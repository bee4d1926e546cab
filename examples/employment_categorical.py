"""Categorical extension: continual synthetic employment-status data.

The paper notes its fixed-window solution "naturally extend[s] to handle
categorical data with more than 2 categories" (§1).  This example tracks a
3-state SIPP-style employment variable — employed (0), unemployed (1), out
of the labor force (2) — releases continual synthetic data preserving all
two-month transition patterns, attaches noise-aware confidence intervals,
and exports the synthetic microdata + public metadata to CSV for analysts.

Run:  python examples/employment_categorical.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.data.categorical import categorical_markov
from repro.data.io import load_panel_csv, save_release_csv
from repro.queries.categorical import CategoricalPatternQuery, CategoryAtLeastM

N = 15000
HORIZON = 12
WINDOW = 2  # month-to-month transition patterns
ALPHABET = 3
RHO = 0.01

STATE_NAMES = {0: "employed", 1: "unemployed", 2: "out of labor force"}

# Monthly transition dynamics: employment is sticky, unemployment churns.
TRANSITIONS = np.array(
    [
        [0.955, 0.025, 0.020],  # employed ->
        [0.280, 0.600, 0.120],  # unemployed ->
        [0.040, 0.060, 0.900],  # out of labor force ->
    ]
)


def main() -> None:
    panel = categorical_markov(
        N, HORIZON, TRANSITIONS, initial=[0.78, 0.05, 0.17], seed=30
    )
    print(f"panel: {panel.n_individuals} workers x {panel.horizon} months, "
          f"{panel.alphabet} labor-force states")

    synthesizer = CategoricalWindowSynthesizer(
        horizon=HORIZON,
        window=WINDOW,
        alphabet=ALPHABET,
        rho=RHO,
        seed=31,
    )
    release = synthesizer.run(panel)
    print(
        f"release: {release.n_synthetic} synthetic workers, "
        f"n_pad={release.n_pad} per bin ({ALPHABET**WINDOW} bins), "
        f"rho spent={synthesizer.accountant.spent:.4f}"
    )

    # Transition-pattern queries: e.g. "unemployed -> employed" this month.
    print("\nmonth-to-month transition fractions at t=6 (debiased vs truth):")
    for from_state in range(ALPHABET):
        for to_state in range(ALPHABET):
            query = CategoricalPatternQuery(2, (from_state, to_state), ALPHABET)
            estimate = release.answer(query, 6)
            truth = query.evaluate(panel, 6)
            print(
                f"  {STATE_NAMES[from_state]:<19s} -> {STATE_NAMES[to_state]:<19s} "
                f"estimate={estimate:.4f}  truth={truth:.4f}"
            )

    # A workload-style query: unemployed in at least 1 of the last 2 months.
    # answer_series is the query's row of the release's answer grid.
    query = CategoryAtLeastM(WINDOW, ALPHABET, category=1, m=1)
    times = list(range(WINDOW, HORIZON + 1, 2))
    estimates = release.answer_series(query, times)
    print(f"\n'{query.name}' over time:")
    for t, estimate in zip(times, estimates):
        truth = query.evaluate(panel, t)
        print(f"  t={t:2d}  estimate={estimate:.4f}  truth={truth:.4f}")

    # Export for analysts: microdata CSV + public metadata JSON.
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = save_release_csv(release, Path(tmp), stem="employment")
        reloaded = load_panel_csv(csv_path, alphabet=ALPHABET)
        print(
            f"\nexported {csv_path.name} ({reloaded.n_individuals} rows) "
            f"+ {json_path.name} (public debiasing metadata)"
        )

    print(
        "\nAnalysts can reproduce every debiased answer offline from the "
        "CSV + metadata alone — padding and window width are public."
    )


if __name__ == "__main__":
    main()
