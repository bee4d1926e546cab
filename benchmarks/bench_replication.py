"""Replication engine benchmarks: batched vs process vs serial.

The paper's figures repeat each synthesizer 1000 times on the same panel;
PR 1 vectorized stage 1 *within* a run, this module measures the
cross-repetition axis: ``replicate_synthesizer(strategy="batched")`` runs
all repetitions of Algorithm 2 as one ``(R, T)`` NumPy state machine.

Acceptance criteria asserted here:

* ≥10x batched-vs-serial wall-clock for 1000-rep cumulative replication at
  SIPP scale (horizon 12, n=23374); smoke runs (``REPRO_BENCH_REPS`` below
  100) assert a relaxed 3x so CI stays meaningful at small rep counts.
* Batched replication is bit-exact with serial in noiseless mode under a
  fixed seed, and charges a zCDP ledger identical to a serial run's.
* The vectorized ``_choose_within_groups`` (synthetic-store record
  selection) beats the per-group ``generator.choice`` loop it replaced.

Besides the human-readable figure report, the run emits a machine-readable
``benchmarks/reports/BENCH_replication.json`` with ops/sec and speedups —
CI parses it and archives it as the perf trajectory artifact.

Run explicitly (benchmarks are not collected by the tier-1 suite):

    PYTHONPATH=src python -m pytest benchmarks/bench_replication.py -v
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.replication import replicate_synthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.replicated import replicate_cumulative
from repro.core.synthetic_store import _choose_within_groups
from repro.exceptions import ConsistencyError
from repro.experiments.config import bench_reps, default_n_jobs
from repro.experiments.sipp_window import sipp_panel
from repro.queries.cumulative import HammingAtLeast
from repro.rng import as_generator

RHO = 0.005  # the paper's Figure 2 budget
JSON_PATH = Path(__file__).parent / "reports" / "BENCH_replication.json"


@pytest.fixture(scope="module")
def panel():
    """The SIPP-scale panel (n=23374, T=12) every figure replicates over."""
    return sipp_panel()


def _factory(panel, rho=RHO):
    def factory(generator):
        return CumulativeSynthesizer(
            horizon=panel.horizon, rho=rho, seed=generator, noise_method="vectorized"
        )

    return factory


class TestReplicationSpeedup:
    def test_batched_speedup_at_sipp_scale(self, panel, figure_report):
        reps = bench_reps(fallback=1000)
        queries = [HammingAtLeast(3)]
        times = list(range(1, panel.horizon + 1))
        timings = {}
        for strategy in ("serial", "process", "batched"):
            start = time.perf_counter()
            replicate_synthesizer(
                _factory(panel), panel, queries, times,
                n_reps=reps, seed=0, strategy=strategy,
            )
            timings[strategy] = time.perf_counter() - start
        speedups = {s: timings["serial"] / timings[s] for s in timings}

        payload = {
            "benchmark": "replication",
            "workload": {
                "figure": "fig2 (cumulative, HammingAtLeast(3))",
                "n_reps": reps,
                "horizon": panel.horizon,
                "n_individuals": panel.n_individuals,
                "rho": RHO,
                # Worker pool width the process strategy ran with — the
                # process timing is meaningless without it.
                "process_n_jobs": default_n_jobs(),
            },
            "timings_s": {s: round(t, 6) for s, t in timings.items()},
            "ops_per_sec": {s: round(reps / t, 3) for s, t in timings.items()},
            "speedup_vs_serial": {s: round(v, 3) for s, v in speedups.items()},
        }
        JSON_PATH.parent.mkdir(exist_ok=True)
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

        figure_report(
            f"cumulative replication, R={reps}, T={panel.horizon}, "
            f"n={panel.n_individuals}\n"
            + "\n".join(
                f"  {s:8s}: {timings[s]:8.3f}s  ({reps / timings[s]:8.1f} reps/s, "
                f"{speedups[s]:6.1f}x vs serial)"
                for s in ("serial", "process", "batched")
            )
            + f"\n  JSON artifact: {JSON_PATH}",
            metrics={
                "batched_speedup_vs_serial": speedups["batched"],
                "batched_reps_per_sec": reps / timings["batched"],
            },
        )
        assert timings["batched"] < timings["serial"]
        # Acceptance: >= 10x at paper scale; smoke runs assert a relaxed 3x.
        target = 10.0 if reps >= 100 else 3.0
        assert speedups["batched"] >= target, payload


class TestBatchedEquivalence:
    def test_noiseless_bit_exact_under_fixed_seed(self, panel):
        queries = [HammingAtLeast(1), HammingAtLeast(3), HammingAtLeast(6)]
        times = list(range(1, panel.horizon + 1))
        kwargs = dict(
            dataset=panel, queries=queries, times=times, n_reps=3, seed=123
        )
        serial = replicate_synthesizer(
            _factory(panel, rho=math.inf), strategy="serial", **kwargs
        )
        batched = replicate_synthesizer(
            _factory(panel, rho=math.inf), strategy="batched", **kwargs
        )
        assert (serial.answers == batched.answers).all()
        assert (serial.truth == batched.truth).all()

    def test_zcdp_ledger_identical_per_rep(self, panel):
        replicated = replicate_cumulative(panel, 2, rho=RHO, seed=1)
        serial = CumulativeSynthesizer(
            horizon=panel.horizon, rho=RHO, seed=2, noise_method="vectorized"
        )
        serial.run(panel)
        assert replicated.accountant.charges == serial.accountant.charges


def _choose_within_groups_loop(group_of, n_groups, picks_per_group, generator):
    """The pre-vectorization reference: one ``generator.choice`` per group."""
    order = np.argsort(group_of, kind="stable")
    sorted_groups = group_of[order]
    boundaries = np.searchsorted(sorted_groups, np.arange(n_groups + 1))
    chosen = []
    for g in range(n_groups):
        start, stop = boundaries[g], boundaries[g + 1]
        need = int(picks_per_group[g])
        size = stop - start
        if need < 0 or need > size:
            raise ConsistencyError(
                f"group {g} has {size} records but {need} were requested"
            )
        if need == 0:
            continue
        members = order[start:stop]
        picked = generator.choice(size, size=need, replace=False)
        chosen.append(members[picked])
    if not chosen:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chosen)


class TestChooseWithinGroups:
    def test_vectorized_selection_speedup(self, panel, figure_report):
        # The synthetic-store hot path: n records bucketed by Hamming
        # weight, a quota drawn from each bucket, every round.
        n = panel.n_individuals
        n_groups = panel.horizon + 1
        rng = np.random.default_rng(0)
        group_of = rng.integers(0, n_groups, size=n).astype(np.int64)
        sizes = np.bincount(group_of, minlength=n_groups)
        picks = (sizes * 0.3).astype(np.int64)
        rounds = 30

        loop_generator, vec_generator = as_generator(1), as_generator(1)
        loop_times, vec_times = [], []
        # Interleaved, best of five blocks each: a burst of host noise
        # cannot land on one side only.
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(rounds):
                loop_chosen = _choose_within_groups_loop(
                    group_of, n_groups, picks, loop_generator
                )
            loop_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(rounds):
                vec_chosen = _choose_within_groups(group_of, n_groups, picks, vec_generator)
            vec_times.append(time.perf_counter() - start)
        loop_elapsed, vec_elapsed = min(loop_times), min(vec_times)

        # Same per-group quotas exactly, whichever implementation.
        assert (
            np.bincount(group_of[vec_chosen], minlength=n_groups) == picks
        ).all()
        assert vec_chosen.shape == loop_chosen.shape

        speedup = loop_elapsed / vec_elapsed
        figure_report(
            f"_choose_within_groups, n={n}, groups={n_groups}, {rounds} rounds\n"
            f"  per-group choice loop : {loop_elapsed / rounds * 1e3:7.2f} ms/round\n"
            f"  order-statistic cuts  : {vec_elapsed / rounds * 1e3:7.2f} ms/round\n"
            f"  speedup               : {speedup:7.1f}x",
            metrics={"selection_speedup": speedup},
        )
        assert vec_elapsed < loop_elapsed, (loop_elapsed, vec_elapsed)
