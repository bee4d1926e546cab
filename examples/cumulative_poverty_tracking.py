"""Streaming cumulative tracking — Algorithm 2 month by month.

Demonstrates the *continual* nature of the release: reports arrive one
month at a time, and after every month the synthesizer emits an updated
synthetic panel whose Hamming-weight census matches the monotonized private
counters exactly.  All thresholds b = 1..T are maintained simultaneously at
no extra privacy cost (the release of Figures 2/8 picks out b = 3).

Run:  python examples/cumulative_poverty_tracking.py
"""

from repro.core.cumulative import CumulativeSynthesizer
from repro.data.generators import two_state_markov
from repro.queries.cumulative import HammingAtLeast

N = 10000
HORIZON = 12
RHO = 0.01
THRESHOLDS = (1, 3, 6)


def main() -> None:
    # Poverty-like panel: persistent spells, ~11% monthly rate.
    panel = two_state_markov(
        N, HORIZON, p_stay=0.87, p_enter=0.017, seed=5
    )
    synthesizer = CumulativeSynthesizer(
        horizon=HORIZON, rho=RHO, seed=6
    )

    print(f"streaming {HORIZON} monthly reports for {N} households (rho={RHO})")
    header = "month  " + "  ".join(
        f"b>={b}: est/truth" for b in THRESHOLDS
    )
    print(header)
    print("-" * len(header))

    # The synthesizer consumes one report vector per month; the release is
    # usable after every single month — that is the continual guarantee.
    for t, column in enumerate(panel.columns(), start=1):
        release = synthesizer.observe(column)
        cells = []
        for b in THRESHOLDS:
            estimate = release.answer(HammingAtLeast(b), t)
            truth = HammingAtLeast(b).evaluate(panel, t)
            cells.append(f"{estimate:.4f}/{truth:.4f}")
        print(f"{t:>5d}  " + "  ".join(f"{cell:>15s}" for cell in cells))

    # The synthetic panel itself is consistent: individual histories only
    # ever grow, so every cumulative statistic is monotone by construction.
    release = synthesizer.release
    assert synthesizer.check_invariants(), "release invariants violated"
    table = release.threshold_table()
    print("\nmonotonized threshold table S^_b^t (rows t=0..12, cols b=0..6):")
    for t in range(table.shape[0]):
        print("  " + " ".join(f"{table[t, b]:>6d}" for b in range(7)))

    print(
        f"\nprivacy: rho={synthesizer.accountant.spent:.4f} zCDP across "
        f"{len(synthesizer.accountant.charges)} per-threshold stream counters"
    )


if __name__ == "__main__":
    main()
