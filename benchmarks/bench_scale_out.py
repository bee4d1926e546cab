"""Scale-out benchmark: process-parallel shard stepping + streaming checkpoints.

Exercises the :mod:`repro.serve.executor` strategies at row scale and
asserts the two properties the scale-out layer exists for:

1. **Bit-exactness under parallelism** — the ``process`` strategy's
   merged answers, ledgers, and checkpoint bundle are byte-identical to
   ``serial``'s at benchmark scale, not just at unit-test scale.
2. **Sublinear checkpoint memory** — the streaming (v3) bundle writer
   spools arrays chunk-by-chunk, so its transient allocation peak stays
   far below the monolithic in-RAM ``arrays.npz`` (v2) writer's and
   barely grows with the state size.

Scale is controlled by environment variables so the same module serves
the CI smoke leg and full runs:

* ``REPRO_SCALE_ROWS`` — population size (default ``200_000``; the
  10M-user target of the scale-out work is ``REPRO_SCALE_ROWS=10000000``
  on a machine with the RAM and cores for it).
* ``REPRO_SCALE_ROUNDS`` — rounds to ingest (default ``6``).

Emitted metrics: ``rounds_per_sec`` (process strategy throughput),
``parallel_speedup_vs_serial`` (wall-clock ratio; only *asserted* when
the machine has >= 4 CPUs — a 1-core runner cannot show a speedup), and
``checkpoint_peak_ratio`` (streaming-vs-monolithic writer allocation
peak, a machine-portable ratio gated by the committed baseline).
"""

import io
import multiprocessing as mp
import os
import time
import tracemalloc

import numpy as np
import pytest

from oracles.checkpoint_v2 import write_bundle_v2
from repro.queries import HammingAtLeast
from repro.serve import ShardedService, StreamingSynthesizer, write_bundle

ROWS = int(os.environ.get("REPRO_SCALE_ROWS", "200000"))
ROUNDS = int(os.environ.get("REPRO_SCALE_ROUNDS", "6"))
K = 4

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process executor needs the fork start method",
)


def _columns(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=ROWS, dtype=np.int64) for _ in range(ROUNDS)]


def _drive(executor: str, columns) -> tuple[ShardedService, float]:
    service = ShardedService(
        K,
        algorithm="cumulative",
        horizon=ROUNDS,
        rho=0.5,
        seed=11,
        executor=executor,
    )
    start = time.perf_counter()
    for column in columns:
        service.observe(column)
    return service, time.perf_counter() - start


def _observables(service) -> dict:
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    return {
        "answers": [service.answer(HammingAtLeast(2), t) for t in (1, ROUNDS)],
        "ledgers": service.shard_ledgers(),
        "bundle": buffer.getvalue(),
    }


@needs_fork
@pytest.mark.figure("scale_out")
def test_process_executor_speedup_and_bit_exactness(figure_report, rss_probe):
    columns = _columns(seed=23)
    serial, serial_s = _drive("serial", columns)
    process, process_s = _drive("process", columns)

    reference = _observables(serial)
    observed = _observables(process)
    process.close()
    serial.close()
    assert observed["answers"] == reference["answers"]
    assert observed["ledgers"] == reference["ledgers"]
    assert observed["bundle"] == reference["bundle"]

    speedup = serial_s / process_s
    rounds_per_sec = ROUNDS / process_s
    cores = os.cpu_count() or 1
    if cores >= 4:
        # On capable hardware the four workers must actually run in
        # parallel; on small CI runners the bit-exactness is the contract.
        assert speedup >= 2.0, (
            f"process executor managed only {speedup:.2f}x over serial "
            f"with {cores} CPUs"
        )

    figure_report(
        "\n".join(
            [
                "scale-out: process-parallel shard stepping "
                f"(rows={ROWS}, rounds={ROUNDS}, K={K}, cpus={cores})",
                f"  serial   : {serial_s:8.3f} s",
                f"  process  : {process_s:8.3f} s "
                f"({rounds_per_sec:.2f} rounds/s)",
                f"  speedup  : {speedup:8.2f} x "
                "(asserted >= 2x only with >= 4 CPUs)",
                f"  peak rss : {rss_probe():8.1f} MiB",
                "  bit-exact: answers, ledgers, and checkpoint bundle "
                "match serial",
            ]
        ),
        metrics={
            "rounds_per_sec": rounds_per_sec,
            "parallel_speedup_vs_serial": speedup,
        },
    )


def _write_peak(write, path, state: dict, **options) -> int:
    """Transient allocation peak (bytes) of one bundle write to disk.

    The version-3 writer deflates every array member at zlib level 1
    (its one compression rule), so its peak includes one compressor's
    state.  The version-2 writer, the test oracle in
    ``tests/oracles/checkpoint_v2.py``, is called with
    ``compress_arrays=False``, so its peak is the monolithic in-RAM npz
    buffer rather than DEFLATE work: the comparison isolates buffering
    behaviour (monolithic npz vs per-array spooling).
    """
    tracemalloc.start()
    try:
        write(path, "streaming", {"bench": True}, state, **options)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _state_nbytes(node) -> int:
    if isinstance(node, np.ndarray):
        return node.nbytes
    if isinstance(node, dict):
        return sum(_state_nbytes(value) for value in node.values())
    return 0


@pytest.mark.figure("scale_out")
def test_streaming_checkpoint_memory_is_sublinear(figure_report, rss_probe, tmp_path):
    rng = np.random.default_rng(7)
    synth = StreamingSynthesizer.cumulative(horizon=ROUNDS, rho=0.5, seed=3)
    for _ in range(ROUNDS):
        synth.observe(rng.integers(0, 2, size=ROWS, dtype=np.int64))
    state = synth.synthesizer.state_dict()
    state_mb = _state_nbytes(state) / 1024**2

    streaming_peak = _write_peak(write_bundle, tmp_path / "v3.ckpt", state)
    monolithic_peak = _write_peak(
        write_bundle_v2, tmp_path / "v2.ckpt", state, compress_arrays=False
    )
    ratio = streaming_peak / monolithic_peak
    # The monolithic writer materializes the whole npz in RAM before the
    # zip sees a byte, so its peak tracks the total state size; the
    # streaming writer's peak tracks the largest single array (capped by
    # the 16 MiB spool chunk), which is what makes 10M-row checkpoints
    # possible without doubling resident memory.
    assert ratio < 1.0, (
        f"streaming writer peaked at {streaming_peak} bytes vs the "
        f"monolithic writer's {monolithic_peak}"
    )

    figure_report(
        "\n".join(
            [
                f"streaming checkpoint writer (rows={ROWS}, "
                f"state={state_mb:.1f} MiB)",
                f"  monolithic (v2) peak: {monolithic_peak / 1024**2:8.1f} MiB",
                f"  streaming  (v3) peak: {streaming_peak / 1024**2:8.1f} MiB",
                f"  peak ratio          : {ratio:8.3f} (lower is better)",
                f"  peak rss            : {rss_probe():8.1f} MiB",
            ]
        ),
        metrics={"checkpoint_peak_ratio": ratio},
    )
