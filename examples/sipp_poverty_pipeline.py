"""The full SIPP poverty pipeline — the paper's Section 5 walkthrough.

Steps, mirroring the paper exactly:

1. obtain raw SIPP-like person-month records (here: simulated, since the
   census download is unavailable offline — see DESIGN.md §4);
2. preprocess: one series per household, binarize THINCPOVT2 < 1, drop
   households with missing months;
3. synthesize with Algorithm 1 (k=3 quarterly windows, rho=0.005);
4. answer the four Figure-1 statistics per quarter, biased and debiased,
   against the ground truth.

Run:  python examples/sipp_poverty_pipeline.py
"""

from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.sipp import preprocess_sipp, simulate_sipp_raw
from repro.queries.workloads import quarter_ends, quarterly_poverty_workload

RHO = 0.005
WINDOW = 3


def main() -> None:
    # Step 1: raw person-month records (multiple persons per household,
    # continuous income-to-poverty ratios, missing interviews).
    raw = simulate_sipp_raw(n_households=26000, seed=2021)
    print(f"raw SIPP-like records: {raw.n_rows} person-months")

    # Step 2: the paper's preprocessing.
    panel = preprocess_sipp(raw)
    print(
        f"after preprocessing: {panel.n_individuals} complete households "
        f"x {panel.horizon} months "
        f"(monthly poverty rate {panel.matrix.mean():.3f})"
    )

    # Step 3: continual synthesis.
    synthesizer = FixedWindowSynthesizer(
        horizon=panel.horizon,
        window=WINDOW,
        rho=RHO,
        seed=94,
    )
    release = synthesizer.run(panel)
    print(
        f"release: {release.n_synthetic} synthetic households, "
        f"n_pad={release.padding.n_pad} per bin, "
        f"negative-count events={release.negative_count_events}"
    )

    # Step 4: the Figure-1 statistics.
    workload = quarterly_poverty_workload(WINDOW)
    quarters = quarter_ends(panel.horizon, WINDOW)
    header = f"{'query':<30s} {'quarter':>7s} {'truth':>8s} {'biased':>8s} {'debiased':>9s}"
    print("\n" + header)
    print("-" * len(header))
    for query in workload:
        for quarter_index, t in enumerate(quarters, start=1):
            truth = query.evaluate(panel, t)
            biased = release.answer(query, t, debias=False)
            debiased = release.answer(query, t, debias=True)
            print(
                f"{query.name:<30s} {quarter_index:>7d} {truth:>8.4f} "
                f"{biased:>8.4f} {debiased:>9.4f}"
            )

    print(
        "\nNote how the biased answers overshoot the truth by the public "
        "padding mass while the debiased answers track it — the contrast "
        "between the left and right panels of Figures 5-7."
    )


if __name__ == "__main__":
    main()
