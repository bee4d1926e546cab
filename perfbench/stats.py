"""Summary statistics and memory probes shared by the workloads and the report.

Every helper here is pure (or reads only ``/proc/self``), so the unit
tests in ``perfbench/tests`` can pin their arithmetic down exactly.
"""

from __future__ import annotations

import math
import statistics

#: A reported percentile needs at least this many samples strictly above it.
MIN_BEYOND = 10


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` sorted samples lie beyond the ``percentile`` cut.

    The cut sits at rank ``ceil(n * percentile / 100)`` (nearest-rank
    definition), so ``n - rank`` samples are strictly beyond it.
    """
    if n <= 0:
        return 0
    rank = max(1, math.ceil(n * percentile / 100.0))
    return n - rank


def min_samples_for(percentile: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples past ``percentile``."""
    n = 1
    while samples_beyond(n, percentile) < beyond:
        n += 1
    return n


def percentile(values, pct: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile that refuses to extrapolate past thin tails.

    Raises
    ------
    ValueError
        When fewer than ``beyond`` samples lie beyond the percentile: such
        a figure is decided by a handful of rounds and does not repeat.
    """
    data = sorted(values)
    if samples_beyond(len(data), pct) < beyond:
        raise ValueError(
            f"p{pct:g} of {len(data)} samples has fewer than {beyond} samples beyond it"
        )
    rank = max(1, math.ceil(len(data) * pct / 100.0))
    return float(data[rank - 1])


def median(values) -> float:
    """Median of a non-empty sequence, as a float."""
    return float(statistics.median(values))


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    data = [float(v) for v in values]
    mid = statistics.median(data)
    if len(data) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(data, n=4)
    spread = (q3 - q1) / abs(mid) if mid else math.inf
    return mid, q1, q3, spread


def split_rounds(samples, every: int):
    """Split ``(round, value)`` samples into ordinary and checkpoint rounds.

    A supervised service checkpoints after every round divisible by
    ``every`` (``0`` disables checkpoints), and such a round costs several
    ordinary ones; mixing the two kinds would let a tail percentile land
    on whichever kind happens to sit at the cut.
    """
    ordinary, checkpoint = [], []
    for round_number, value in samples:
        if every and round_number % every == 0:
            checkpoint.append(value)
        else:
            ordinary.append(value)
    return ordinary, checkpoint


# ----------------------------------------------------------------------
# Resident-set probes (Linux /proc)
# ----------------------------------------------------------------------


def _status_kib(field: str) -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def rss_mib() -> float | None:
    """Current resident set size (``VmRSS``) in MiB, or ``None`` off Linux."""
    kib = _status_kib("VmRSS")
    return None if kib is None else kib / 1024.0


def peak_rss_mib() -> float | None:
    """Resident high-water mark (``VmHWM``) in MiB, or ``None`` off Linux."""
    kib = _status_kib("VmHWM")
    return None if kib is None else kib / 1024.0


def reset_peak_rss() -> bool:
    """Reset ``VmHWM`` to the current RSS by writing ``5`` to ``clear_refs``.

    Returns whether the reset took effect, so a caller can refuse to
    report a peak that would still include the input generator.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True
