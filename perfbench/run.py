"""Benchmark command for the continual-release synthesizers.

Run one workload (one fresh process per run)::

    python3 perfbench/run.py --workload cumulative-long --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1`` (a traced run
also prints the per-layer table and the tracing overhead).

Run all four workloads, each in a fresh process::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Steadiness report — every workload N times in alternation, seeds
``seed .. seed+N-1``, with median, quartiles and IQR/median next to the
bound in ``BENCHMARK.json``; ``--sets 2`` repeats that with fresh seeds
and checks that the two medians agree within the bounds::

    python3 perfbench/run.py --steadiness 10 --sets 2 --seed 100 --seconds 20

Timings are reported at reference host speed: the host's speed is
sampled between passes with a fixed reference unit of work and every
timing is rescaled by it (see ``perfbench/hostspeed.py``), so a change of
host state moves the printed ``host speed`` rather than the metrics.

The library is imported from ``src/`` next to this directory; without it
the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("cumulative-long", "window-wide", "serve-supervised", "paper-figures")
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Safety stop for the pass loop, far above what any workload needs.
MAX_PASSES = 400


def clean_environment() -> dict:
    """Drop every ``REPRO_*`` knob and pin native thread pools to one thread.

    Runs before numpy is imported, so the BLAS pools start single-threaded
    and the library sees only its defaults.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for key in THREAD_VARIABLES:
        os.environ[key] = "1"
    return dict(os.environ)


def import_library() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no library source at {SRC}; nothing to measure")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; print its report and JSON result."""
    import gc

    from perfbench import hostspeed, stats, tracing, workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[name](OUT)
    speed = hostspeed.HostSpeed(workload.reference_kernels)
    workload.prepare(seed)
    gc.collect()
    baseline = stats.rss_mib()
    if baseline is None or not stats.reset_peak_rss():
        raise SystemExit("perfbench: cannot reset the RSS high-water mark (/proc/self/clear_refs)")

    ctx = workloads.Context()
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    passes = []
    pending = []  # passes not yet rescaled to the host speed
    broken = 0
    speed.sample()
    while len(passes) < MAX_PASSES and broken < 3:
        index = len(passes) + broken
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
            recorder.pass_index = index
        stats.reset_peak_rss()
        try:
            result = workload.run_pass(ctx, index, recorder if traced else None)
            result.peak_mib = stats.peak_rss_mib() - baseline
        except Exception as exc:  # a failed operation: count it, keep measuring
            ctx.fail([f"pass {index}: {type(exc).__name__}: {exc}"])
            broken += 1
            continue
        finally:
            if traced:
                tracer.remove()
            gc.collect()
        result.traced = traced
        passes.append(result)
        pending.append(result)
        if speed.due():
            speed.close_stretch(pending)
        plain = [p for p in passes if not p.traced]
        timed = sum(p.timed_s for p in passes)
        if trace:
            if timed >= seconds and plain and len(plain) < len(passes):
                break
        elif timed >= seconds and workload.enough(plain):
            break

    if pending:
        speed.close_stretch(pending)
    plain = [p for p in passes if not p.traced]
    setups = [p.setup_s for p in plain]
    if not trace:
        before = speed.samples[-1]
        extra = [workload.setup_once(i) for i in range(workload.extra_setups)]
        at = hostspeed.between(before, speed.sample())
        setups += [elapsed * at for elapsed in extra]

    print(f"workload {name}  seed {seed}  passes {len(passes)}  "
          f"timed {sum(p.timed_s for p in passes):.1f} s")
    print(f"host speed {stats.median(speed.samples):.3f} of the reference host "
          f"(range {min(speed.samples):.3f}-{max(speed.samples):.3f} over "
          f"{len(speed.samples)} samples); timings below are at reference speed")
    try:
        metrics, extras = workload.summarize(plain, setups)
    except (ValueError, ZeroDivisionError) as exc:
        if not trace:
            raise
        print(f"  end-to-end metrics need more untraced passes ({exc})")
        metrics, extras = {}, {}
    extras["host_speed"] = (stats.median(speed.samples), "x")
    metrics["peak_rss_mib"] = stats.median([p.peak_mib for p in plain])
    for key, value in metrics.items():
        unit = workloads.END_TO_END[key][0]
        print(f"  {key:<26} {value:>14.6g} {unit}")
    for key, (value, unit) in extras.items():
        print(f"  {key:<26} {value:>14.6g} {unit}   (reported, not gated)")
    print(f"operations: attempted {ctx.attempted}, failed {ctx.failed}")
    for message in ctx.failures[:20]:
        print(f"  FAILED: {message}")

    if trace:
        traced_passes = [p for p in passes if p.traced]
        spans = recorder.spans
        layers = tracing.layer_metrics(
            spans, recorder.counters, len(traced_passes),
            int(1e9 * sum(p.timed_s for p in traced_passes)),
        )
        print(tracing.format_table(layers))
        rate_plain = stats.median([workload.pass_rate(p) for p in plain])
        rate_traced = stats.median([workload.pass_rate(p) for p in traced_passes])
        print(f"tracing overhead: {rate_plain / rate_traced - 1.0:+.1%} "
              f"(untraced {rate_plain:.6g}/s vs traced {rate_traced:.6g}/s, median per pass)")
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv")
        tracing.write_spans(spans_path, spans)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        values = {
            f"{layer}.{metric}": value
            for layer, entries in layers.items()
            for metric, value in entries.items()
        }
        reported = {
            key: {"value": values[key], "unit": unit}
            for key, (unit, _) in tracing.PER_LAYER.items()
        }
    else:
        reported = {
            key: {"value": metrics[key], "unit": unit}
            for key, (unit, _) in workloads.END_TO_END.items()
        }
    return {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": reported,
        "extras": {key: value for key, (value, _) in extras.items()},
    }


def run_child(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Run one workload in a fresh process; return its JSON result (plus extras)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--details",
    ]
    completed = subprocess.run(command, env=env, capture_output=True, text=True, check=False)
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {name} seed {seed} exited with {completed.returncode}")
    return json.loads(lines[-1])


def load_bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def steadiness(runs: int, sets: int, seed: int, seconds: float, env: dict) -> int:
    """Run every workload ``runs`` times in alternation, ``sets`` times over."""
    from perfbench import stats

    bounds = load_bounds()
    results = {name: [[] for _ in range(sets)] for name in WORKLOAD_NAMES}
    for set_index in range(sets):
        for run in range(runs):
            run_seed = seed + set_index * runs + run
            for name in WORKLOAD_NAMES:
                results[name][set_index].append(run_child(name, run_seed, seconds, False, env))
    os.makedirs(OUT, exist_ok=True)
    raw_path = os.path.join(OUT, f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(raw_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    ok = True
    print(f"\nsteadiness: {runs} runs per workload per set, {sets} set(s); raw results in "
          f"{os.path.relpath(raw_path, ROOT)}")
    print(f"{'workload':<17} {'metric':<26} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'IQR/med':>8} {'bound':>6}  verdict")
    for name in WORKLOAD_NAMES:
        medians = {}
        keys = list(results[name][0][0]["metrics"]) + list(results[name][0][0]["extras"])
        for key in keys:
            for set_index, runs_of_set in enumerate(results[name]):
                if key in runs_of_set[0]["metrics"]:
                    values = [r["metrics"][key]["value"] for r in runs_of_set]
                else:
                    values = [r["extras"][key] for r in runs_of_set]
                mid, q1, q3, spread = stats.quartile_spread(values)
                medians.setdefault(key, []).append(mid)
                bound = bounds.get(key, {}).get("bound")
                if bound is None:
                    verdict = "reported only"
                elif key == "setup_s":
                    verdict = "spread not gated"
                elif spread < bound / 3:
                    verdict = "steady (< bound/3)"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict, ok = "TOO NOISY", False
                shown = "-" if bound is None else f"{bound:.2f}"
                print(f"{name:<17} {key:<26} {set_index + 1:>3} {mid:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>8.3f} {shown:>6}  {verdict}")
            if sets > 1 and key in bounds:
                first, second = medians[key][0], medians[key][1]
                worse = (second - first) / first
                if bounds[key]["better"] == "higher":
                    worse = -worse
                agree = worse <= bounds[key]["bound"]
                ok = ok and agree
                print(f"{'':<17} {key:<26} set 2 vs set 1: {worse:+.3f} worse "
                      f"({'agree' if agree else 'DISAGREE'})")
        failures = sum(r["failed"] for runs_of_set in results[name] for r in runs_of_set)
        ok = ok and failures == 0
        print(f"{name:<17} failed operations over all runs: {failures}")
    return 0 if ok else 1


def main(argv=None) -> int:
    env = clean_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0,
                        help="run every workload N times in alternation and report spreads")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --steadiness: independent sets of N runs to compare")
    parser.add_argument("--details", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_library()

    if args.steadiness:
        return steadiness(args.steadiness, args.sets, args.seed, args.seconds, env)
    if args.workload == "all":
        failed = 0
        for name in WORKLOAD_NAMES:
            result = run_child(name, args.seed, args.seconds, bool(args.trace), env)
            failed += result["failed"]
        return 0 if failed == 0 else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.details:
        del result["extras"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
