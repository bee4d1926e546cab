"""Quickstart: continual DP synthetic data in ~40 lines.

Loads the (simulated) SIPP 2021 poverty panel, runs both of the paper's
synthesizers at the paper's privacy budget, and answers a few queries.

Run:  python examples/quickstart.py
"""

from repro import (
    AtLeastMOnes,
    CumulativeSynthesizer,
    FixedWindowSynthesizer,
    HammingAtLeast,
    load_sipp_2021,
)

RHO = 0.005  # total zCDP budget, as in the paper's experiments


def main() -> None:
    # N=23374 households x T=12 months; 1 = household in poverty that month.
    panel = load_sipp_2021(seed=0)
    print(f"panel: {panel.n_individuals} households x {panel.horizon} months")

    # --- Algorithm 1: preserve every quarterly (k=3) window histogram.
    window_synth = FixedWindowSynthesizer(
        horizon=panel.horizon, window=3, rho=RHO, seed=1
    )
    window_release = window_synth.run(panel)
    query = AtLeastMOnes(3, 1)  # in poverty at least one month of the quarter
    print("\nquarterly 'at least one month in poverty' (debiased vs truth):")
    for t in (3, 6, 9, 12):
        estimate = window_release.answer(query, t)  # debiased by default
        truth = query.evaluate(panel, t)
        print(f"  t={t:2d}  estimate={estimate:.4f}  truth={truth:.4f}")

    # --- Algorithm 2: preserve every cumulative Hamming-weight threshold.
    cumulative_synth = CumulativeSynthesizer(
        horizon=panel.horizon, rho=RHO, seed=2
    )
    cumulative_release = cumulative_synth.run(panel)
    query = HammingAtLeast(3)  # at least 3 months in poverty so far
    print("\ncumulative 'at least 3 months in poverty' (synthetic vs truth):")
    for t in (3, 6, 9, 12):
        estimate = cumulative_release.answer(query, t)
        truth = query.evaluate(panel, t)
        print(f"  t={t:2d}  estimate={estimate:.4f}  truth={truth:.4f}")

    # Both releases are actual record panels you can hand to any analyst.
    synthetic = window_release.synthetic_data()
    print(
        f"\nsynthetic panel: {synthetic.n_individuals} records "
        f"(original n={window_release.n_original}, "
        f"padding n_pad={window_release.padding.n_pad} per bin)"
    )
    print(f"privacy spent: rho={window_synth.accountant.spent:.4f} zCDP "
          f"= ({window_synth.accountant.epsilon(1e-6):.2f}, 1e-6)-DP")


if __name__ == "__main__":
    main()
