"""The four benchmark workloads.

Each workload builds all of its inputs from the seed before any timing,
then runs *passes*: one pass drives a fresh service (or a fresh panel)
over the same inputs, timing only the calls a user would wait for, and
runs the output checks untimed afterwards.  Services are built with the
defaults users get — no ``engine=``, ``noise_method=``, ``materialize=``,
``strategy=``, ``executor=`` or ``policy=`` argument is ever passed.

Metric definitions live in ``perfbench/README.md``; the short version
(every time is rescaled to the reference host's speed by
:meth:`PassStats.at_speed`, see :mod:`perfbench.hostspeed`):

``setup_s``
    Construction through the first published release (the paper-figures
    workload: ``preprocess_sipp`` of the raw file), median of every setup.
``ingest_user_rounds_per_s``
    Active users summed over post-setup rounds / the time to publish them,
    median over passes (paper-figures: user-rounds synthesized by the
    Figure 1 runs per second).
``publish_ms_p50`` / ``publish_ms_p90``
    Pooled latencies of post-setup rounds that carry no checkpoint
    (paper-figures: one Figure 1 run).
``answer_cells_per_s``
    (query, round) cells / cold-cache ``answer_batch`` time, read right
    after each release, median over passes (paper-figures: cells of the
    Figure 2 answer grid per second).
``peak_rss_mib``
    ``VmHWM`` above the resident set measured once the inputs exist; the
    high-water mark is reset before every pass, median over passes.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks, stats
from repro.analysis.theory import corollary_b1_alpha, theorem_3_2_bound
from repro.data import sipp
from repro.data.categorical import employment_status_panel
from repro.data.generators import churn_two_state_markov, two_state_markov
from repro.experiments.sipp_cumulative import run_sipp_cumulative_experiment
from repro.experiments.sipp_window import run_sipp_window_experiment
from repro.queries.categorical import CategoryAtLeastM
from repro.queries.cumulative import HammingAtLeast
from repro.queries.workloads import quarterly_poverty_workload
from repro.serve import StreamingSynthesizer, SupervisedService

#: End-to-end metrics every workload reports: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ingest_user_rounds_per_s": ("user-rounds/s", "higher"),
    "publish_ms_p50": ("ms", "lower"),
    "publish_ms_p90": ("ms", "lower"),
    "answer_cells_per_s": ("cells/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: SIPP poverty dynamics (the calibration of :mod:`repro.data.sipp`):
#: monthly poverty rate and month-to-month persistence.
POVERTY_RATE = 0.115
POVERTY_PERSISTENCE = 0.87
POVERTY_ENTER = POVERTY_RATE * (1.0 - POVERTY_PERSISTENCE) / (1.0 - POVERTY_RATE)

#: Confidence parameter of the accuracy checks (failure odds per check).
BETA = 1e-6


def derived_seed(*words: int) -> int:
    """A 32-bit seed derived from ``words`` (input seed, stream, pass...)."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


@dataclass
class Context:
    """Operation accounting for one run: attempted vs failed operations."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, messages) -> None:
        for message in messages:
            self.failed += 1
            self.failures.append(message)


@dataclass
class PassStats:
    """Timings of one pass in seconds, as measured until :meth:`at_speed` rescales them."""

    setup_s: float = 0.0
    rounds: list[tuple[int, float, int]] = field(default_factory=list)  # (t, s, users)
    read_cells: int = 0
    read_s: float = 0.0
    recover_s: float | None = None
    fig1_s: list[float] = field(default_factory=list)
    fig2_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0  # wall time, as measured: it decides when a run has enough
    peak_mib: float = 0.0  # resident high-water mark above the post-input RSS
    traced: bool = False

    def at_speed(self, speed: float) -> None:
        """Rescale every reported timing to the reference host's speed."""
        self.setup_s *= speed
        self.rounds = [(t, seconds * speed, users) for t, seconds, users in self.rounds]
        self.read_s *= speed
        if self.recover_s is not None:
            self.recover_s *= speed
        self.fig1_s = [seconds * speed for seconds in self.fig1_s]
        self.fig2_s = [seconds * speed for seconds in self.fig2_s]


class Clock:
    """Times the regions of a pass and switches span recording on inside them."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.total = 0.0
        self._start = 0.0

    def round(self, number: int) -> None:
        if self.recorder is not None:
            self.recorder.round_number = number

    def start(self) -> None:
        if self.recorder is not None:
            self.recorder.enabled = True
        self._start = time.perf_counter()

    def stop(self) -> float:
        elapsed = time.perf_counter() - self._start
        if self.recorder is not None:
            self.recorder.enabled = False
        self.total += elapsed
        return elapsed


class Workload:
    """Common pass loop and metric summary of the round-based workloads."""

    name = ""
    #: Setups repeated after the passes, so ``setup_s`` is a median of many.
    extra_setups = 0
    #: Rounds divisible by this carry a checkpoint (0: none).
    checkpoint_every = 0
    #: Reference kernels the host speed is measured with (perfbench.hostspeed).
    reference_kernels = ("python", "numpy")

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, ctx: Context, index: int, recorder=None) -> PassStats:
        raise NotImplementedError

    def setup_once(self, index: int) -> float:
        raise NotImplementedError

    def ordinary_latencies(self, passes) -> list[float]:
        samples = [(t, seconds) for p in passes for t, seconds, _ in p.rounds]
        return stats.split_rounds(samples, self.checkpoint_every)[0]

    def enough(self, passes) -> bool:
        """Whether the pooled samples support every reported percentile."""
        return len(self.ordinary_latencies(passes)) >= stats.min_samples_for(90)

    def pass_rate(self, p: PassStats) -> float:
        """Ingest rate of one pass (the tracing-overhead reference)."""
        return sum(users for _, _, users in p.rounds) / sum(s for _, s, _ in p.rounds)

    def summarize(self, passes, setups) -> tuple[dict, dict]:
        """End-to-end metrics (``END_TO_END`` names) and printed-only extras."""
        ordinary = self.ordinary_latencies(passes)
        metrics = {
            "setup_s": stats.median(setups),
            "ingest_user_rounds_per_s": stats.median([self.pass_rate(p) for p in passes]),
            "publish_ms_p50": 1e3 * stats.percentile(ordinary, 50),
            "publish_ms_p90": 1e3 * stats.percentile(ordinary, 90),
            "answer_cells_per_s": stats.median([p.read_cells / p.read_s for p in passes]),
        }
        extras = {"publish_samples": (len(ordinary), "rounds")}
        return metrics, extras

    def _read(self, clock: Clock, ctx: Context, p: PassStats, answer_batch, queries, times):
        clock.start()
        grid = answer_batch(queries, times)
        p.read_s += clock.stop()
        p.read_cells += grid.size
        ctx.attempted += 1
        return grid


class CumulativeLong(Workload):
    """Algorithm 2 at a long horizon: the exact-noise, lazy-store workload."""

    name = "cumulative-long"
    n, horizon, rho = 20_000, 128, 0.005
    extra_setups = 40
    # The exact sampler's interpreter arithmetic is ~90% of the timed work,
    # and across host states it slows like the python kernel, not the
    # array kernel (README, rule 5).
    reference_kernels = ("python",)

    def prepare(self, seed: int) -> None:
        panel = two_state_markov(
            self.n, self.horizon, POVERTY_PERSISTENCE, POVERTY_ENTER,
            seed=derived_seed(seed, 0),
        )
        self.columns = np.ascontiguousarray(panel.matrix.T, dtype=np.int8)
        self.seed = seed
        self.queries = [HammingAtLeast(b) for b in range(1, self.horizon + 1)]
        self.truth = checks.cumulative_truth(self.columns)
        self.alpha = corollary_b1_alpha(self.horizon, self.rho, BETA, self.n)

    def _build(self, index: int):
        service = StreamingSynthesizer.cumulative(
            self.horizon, self.rho, seed=derived_seed(self.seed, 1, index)
        )
        return service, service.observe(self.columns[0])

    def setup_once(self, index: int) -> float:
        start = time.perf_counter()
        self._build(10_000 + index)
        return time.perf_counter() - start

    def run_pass(self, ctx: Context, index: int, recorder=None) -> PassStats:
        p = PassStats()
        clock = Clock(recorder)
        clock.round(1)
        clock.start()
        service, release = self._build(index)
        p.setup_s = clock.stop()
        ctx.attempted += 1
        accountant = service.synthesizer.accountant
        spent = [accountant.spent]
        times = list(range(1, self.horizon + 1))
        self._read(clock, ctx, p, release.answer_batch, self.queries, times[:1])
        for t in range(2, self.horizon + 1):
            clock.round(t)
            clock.start()
            release = service.observe(self.columns[t - 1])
            p.rounds.append((t, clock.stop(), self.n))
            ctx.attempted += 1
            spent.append(accountant.spent)
            grid = self._read(clock, ctx, p, release.answer_batch, self.queries, times[:t])
        p.timed_s = clock.total
        ctx.fail(checks.check_spend(spent, self.rho))
        ctx.fail(checks.check_cumulative_accuracy(grid, self.truth, self.alpha))
        cells = checks.sample_cells(grid.shape, 64, derived_seed(self.seed, 2, index))
        ctx.fail(checks.check_batch_matches_scalar(grid, release.answer, self.queries, times, cells))
        return p


class WindowWide(Workload):
    """Categorical Algorithm 1 over a million users: the store-extension workload."""

    name = "window-wide"
    n, horizon, alphabet, window, rho = 1_000_000, 36, 3, 3, 0.005
    extra_setups = 2
    chunks = 4

    def prepare(self, seed: int) -> None:
        # Generated in slices so the generator's float temporaries stay small.
        parts = []
        for chunk in range(self.chunks):
            panel = employment_status_panel(
                self.n // self.chunks, self.horizon, alphabet=self.alphabet,
                seed=derived_seed(seed, 0, chunk),
            )
            parts.append(np.asarray(panel.matrix, dtype=np.int8))
            del panel
        self.columns = np.ascontiguousarray(np.concatenate(parts).T)
        del parts
        self.seed = seed
        self.queries = [
            CategoryAtLeastM(self.window, self.alphabet, category=c, m=m)
            for c in range(self.alphabet)
            for m in range(1, self.window + 1)
        ]
        self.truth = checks.window_histograms(self.columns, self.window, self.alphabet)
        self.bound = theorem_3_2_bound(
            self.horizon, self.window, self.rho, BETA, alphabet=self.alphabet
        )

    def _build(self, index: int):
        service = StreamingSynthesizer.categorical_window(
            self.horizon, self.window, self.alphabet, self.rho,
            seed=derived_seed(self.seed, 1, index),
        )
        spent = []
        for t in range(1, self.window + 1):
            release = service.observe(self.columns[t - 1])
            spent.append(service.synthesizer.accountant.spent)
        return service, release, spent

    def setup_once(self, index: int) -> float:
        start = time.perf_counter()
        self._build(10_000 + index)
        return time.perf_counter() - start

    def run_pass(self, ctx: Context, index: int, recorder=None) -> PassStats:
        p = PassStats()
        clock = Clock(recorder)
        clock.round(self.window)
        clock.start()
        service, release, spent = self._build(index)
        p.setup_s = clock.stop()
        ctx.attempted += self.window
        accountant = service.synthesizer.accountant
        times = list(range(self.window, self.horizon + 1))
        self._read(clock, ctx, p, release.answer_batch, self.queries, times[:1])
        for t in range(self.window + 1, self.horizon + 1):
            clock.round(t)
            clock.start()
            release = service.observe(self.columns[t - 1])
            p.rounds.append((t, clock.stop(), self.n))
            ctx.attempted += 1
            spent.append(accountant.spent)
            grid = self._read(
                clock, ctx, p, release.answer_batch, self.queries, times[: t - self.window + 1]
            )
        p.timed_s = clock.total
        if recorder is not None:
            recorder.count("core.window_engine", "negative_count_events",
                           release.negative_count_events)
        ctx.fail(checks.check_spend(spent, self.rho))
        ctx.fail(
            checks.check_window_accuracy(
                release.histogram, self.truth, release.padding.n_pad, self.bound
            )
        )
        cells = checks.sample_cells(grid.shape, 32, derived_seed(self.seed, 2, index))
        ctx.fail(checks.check_batch_matches_scalar(grid, release.answer, self.queries, times, cells))
        return p


class ServeSupervised(Workload):
    """Journaled, checkpointed, sharded serving under churn, then recovery."""

    name = "serve-supervised"
    n_ever, horizon, window, shards, rho = 125_000, 60, 3, 2, 0.005
    entry_rate = 0.6
    extra_setups = 10

    def prepare(self, seed: int) -> None:
        panel = churn_two_state_markov(
            self.n_ever, self.horizon, POVERTY_PERSISTENCE, POVERTY_ENTER,
            entry_rate=self.entry_rate, exit_hazard=sipp.SIPP_MONTHLY_ATTRITION,
            seed=derived_seed(seed, 0),
        )
        self.rounds = [
            (column.astype(np.int8), int(entrants), np.asarray(exits, dtype=np.int64))
            for column, entrants, exits in panel.rounds()
        ]
        del panel
        self.seed = seed
        self.queries = quarterly_poverty_workload(self.window)
        self.probes = {"poverty_any_month": self.queries[0]}

    def _directory(self, index: int) -> str:
        """A fresh state directory on the real disk, removed after its pass."""
        path = os.path.join(self.out_dir, f"state-{os.getpid()}-{index}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _build(self, directory: str, index: int):
        service = SupervisedService(
            directory,
            n_shards=self.shards,
            algorithm="fixed_window",
            seed=derived_seed(self.seed, 1, index),
            probe_queries=self.probes,
            horizon=self.horizon,
            window=self.window,
            rho=self.rho,
        )
        records = []
        for t in range(1, self.window + 1):
            column, entrants, exits = self.rounds[t - 1]
            records.append(service.observe(column, entrants=entrants, exits=exits))
        return service, records

    def setup_once(self, index: int) -> float:
        directory = self._directory(10_000 + index)
        start = time.perf_counter()
        service, _ = self._build(directory, 10_000 + index)
        elapsed = time.perf_counter() - start
        service.close()
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed

    def run_pass(self, ctx: Context, index: int, recorder=None) -> PassStats:
        p = PassStats()
        clock = Clock(recorder)
        directory = self._directory(index)
        clock.round(self.window)
        clock.start()
        service, records = self._build(directory, index)
        p.setup_s = clock.stop()
        ctx.attempted += self.window
        self.checkpoint_every = service.policy.checkpoint_every
        spent = [record.zcdp_spent for record in records]
        times = list(range(self.window, self.horizon + 1))
        self._read(clock, ctx, p, service.answer_batch, self.queries, times[:1])
        for t in range(self.window + 1, self.horizon + 1):
            column, entrants, exits = self.rounds[t - 1]
            clock.round(t)
            clock.start()
            record = service.observe(column, entrants=entrants, exits=exits)
            p.rounds.append((t, clock.stop(), column.shape[0]))
            ctx.attempted += 1
            spent.append(record.zcdp_spent)
            grid = self._read(
                clock, ctx, p, service.answer_batch, self.queries, times[: t - self.window + 1]
            )
        ctx.fail(checks.check_spend(spent, self.rho))
        cells = checks.sample_cells(grid.shape, 32, derived_seed(self.seed, 2, index))
        ctx.fail(checks.check_batch_matches_scalar(grid, service.answer, self.queries, times, cells))
        probe = self.probes["poverty_any_month"]
        probe_before = [service.answer(probe, t) for t in times]
        negative = sum(shard.release.negative_count_events for shard in service.service.shards)
        events = list(service.events)
        service.close()  # no final checkpoint: recovery replays the journal tail

        clock.round(self.horizon)
        clock.start()
        recovered = SupervisedService.attach(directory, probe_queries=self.probes)
        p.recover_s = clock.stop()
        ctx.attempted += 1
        p.timed_s = clock.total
        replayed = self._replayed(recovered.events[-1])
        if replayed is None:
            ctx.fail([f"recovery did not replay the journal: {recovered.events[-1]!r}"])
        ctx.fail(checks.check_identical(
            "analyst workload", grid, recovered.answer_batch(self.queries, times)
        ))
        ctx.fail(checks.check_identical(
            "probe", probe_before, [recovered.answer(probe, t) for t in times]
        ))
        events += recovered.events
        recovered.close()
        shutil.rmtree(directory, ignore_errors=True)
        if recorder is not None:
            recorder.count("serve.supervisor", "replayed_rounds", replayed or 0)
            recorder.count("serve.supervisor", "retries", sum("failed" in e for e in events))
            recorder.count("core.window_engine", "negative_count_events", negative)
        return p

    @staticmethod
    def _replayed(event: str) -> int | None:
        """Rounds replayed, parsed from the supervisor's recovery event."""
        marker = " journal rounds replayed"
        if "checkpoint round" not in event or not event.endswith(marker):
            return None
        return int(event[: -len(marker)].rsplit(" ", 1)[-1])

    def summarize(self, passes, setups):
        metrics, extras = super().summarize(passes, setups)
        samples = [(t, s) for p in passes for t, s, _ in p.rounds]
        checkpoint = stats.split_rounds(samples, self.checkpoint_every)[1]
        extras["checkpoint_ms"] = (1e3 * stats.median(checkpoint), "ms")
        extras["checkpoint_samples"] = (len(checkpoint), "rounds")
        extras["recover_s"] = (stats.median([p.recover_s for p in passes]), "s")
        return metrics, extras


class PaperFigures(Workload):
    """Figures 1 and 2 regenerated on a freshly preprocessed SIPP-sized panel."""

    name = "paper-figures"
    rho = 0.005
    fig1_reps, fig2_reps = 1, 1000
    fig1_seconds, fig2_seconds = 2.5, 2.0
    extra_setups = 4

    def prepare(self, seed: int) -> None:
        # Oversampled like repro.data.sipp.load_sipp_2021, so that enough
        # households survive preprocessing to subsample the paper's count.
        raw_households = math.ceil(sipp.SIPP_2021_N_HOUSEHOLDS * 1.10)
        self.raw = sipp.simulate_sipp_raw(raw_households, seed=derived_seed(seed, 0))
        self.seed = seed
        self.months = sipp.SIPP_2021_HORIZON
        self.user_rounds = sipp.SIPP_2021_N_HOUSEHOLDS * self.months

    def _subsample(self, panel, index: int):
        """The preprocessed panel cut to the paper's household count."""
        rng = np.random.default_rng(derived_seed(self.seed, 3, index))
        keep = rng.choice(panel.n_individuals, size=sipp.SIPP_2021_N_HOUSEHOLDS, replace=False)
        return panel.subset(np.sort(keep))

    def setup_once(self, index: int) -> float:
        start = time.perf_counter()
        sipp.preprocess_sipp(self.raw)
        return time.perf_counter() - start

    def run_pass(self, ctx: Context, index: int, recorder=None) -> PassStats:
        p = PassStats()
        clock = Clock(recorder)
        clock.start()
        preprocessed = sipp.preprocess_sipp(self.raw)
        p.setup_s = clock.stop()
        panel = self._subsample(preprocessed, index)
        run = 0
        while sum(p.fig1_s) < self.fig1_seconds:
            run += 1
            clock.round(run)
            clock.start()
            result = run_sipp_window_experiment(
                self.rho, self.fig1_reps, seed=derived_seed(self.seed, 4, index, run), data=panel
            )
            p.fig1_s.append(clock.stop())
            ctx.attempted += 1
            ctx.fail(checks.check_figure(result))
        while sum(p.fig2_s) < self.fig2_seconds:
            run += 1
            clock.round(run)
            clock.start()
            result = run_sipp_cumulative_experiment(
                self.rho, self.fig2_reps, seed=derived_seed(self.seed, 5, index, run), data=panel
            )
            p.fig2_s.append(clock.stop())
            ctx.attempted += 1
            ctx.fail(checks.check_figure(result))
        p.timed_s = clock.total
        return p

    def enough(self, passes) -> bool:
        return sum(len(p.fig1_s) for p in passes) >= stats.min_samples_for(90)

    def pass_rate(self, p: PassStats) -> float:
        return self.fig1_reps * len(p.fig1_s) / sum(p.fig1_s)

    def summarize(self, passes, setups):
        runs = [seconds for p in passes for seconds in p.fig1_s]
        # Each Figure 1 repetition synthesizes the panel twice: the biased
        # headline series and the debiased panel.
        legs = 2 * self.fig1_reps * self.user_rounds
        metrics = {
            "setup_s": stats.median(setups),
            "ingest_user_rounds_per_s": stats.median(
                [legs * len(p.fig1_s) / sum(p.fig1_s) for p in passes]
            ),
            "publish_ms_p50": 1e3 * stats.percentile(runs, 50),
            "publish_ms_p90": 1e3 * stats.percentile(runs, 90),
            "answer_cells_per_s": stats.median(
                [self.fig2_reps * self.months * len(p.fig2_s) / sum(p.fig2_s) for p in passes]
            ),
        }
        extras = {
            "fig1_reps_per_s": (stats.median([self.pass_rate(p) for p in passes]), "reps/s"),
            "fig2_reps_per_s": (
                stats.median([self.fig2_reps * len(p.fig2_s) / sum(p.fig2_s) for p in passes]),
                "reps/s",
            ),
            "figure1_runs": (len(runs), "runs"),
        }
        return metrics, extras


WORKLOADS = {
    workload.name: workload
    for workload in (CumulativeLong, WindowWide, ServeSupervised, PaperFigures)
}
