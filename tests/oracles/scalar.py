"""Scalar reference loops for the counter bank, the group correction and the store.

The product runs each algorithm once, batched.  These are the same
algorithms written one counter, one group and one record at a time, the
way the paper states them:

* :func:`scalar_counter_table` drives one
  :class:`~repro.streams.base.StreamCounter` per Hamming-weight threshold,
  counter ``b`` created at round ``b`` from its own seed;
* :func:`fallback_reference` puts those per-threshold counters inside a
  :class:`~repro.core.cumulative.CumulativeSynthesizer` by swapping its
  bank for a :class:`~repro.streams.bank.FallbackBank` over the
  synthesizer's own counter seeds;
* :func:`scalar_group_correction` places each overlap group's residue with
  one ``generator.choice`` call per group;
* :func:`scalar_assign` extends the records in index order, each drawing
  its next symbol from its suffix group's remaining quota;
* :func:`scalar_loops` patches the last two into the window engine and
  the synthetic store for the duration of a ``with`` block.

The loops draw from the generator differently than the batched paths, so
under noise they give other (equally distributed) outputs; noiseless
releases, ledgers and the uniform laws are what must agree.
"""

import contextlib
from unittest import mock

import numpy as np

from repro.core import synthetic_store, window_engine
from repro.core.consistency import group_totals
from repro.exceptions import ConfigurationError, NegativeCountError
from repro.streams.bank import FallbackBank
from repro.streams.registry import make_counter


def scalar_counter_table(name, horizon, rho_per_threshold, increments, seeds):
    """Feed a ``(T, T)`` increment table through one counter per threshold.

    Counter ``b`` (1-indexed) has horizon ``T - b + 1``, budget
    ``rho_per_threshold[b - 1]`` and seed ``seeds[b - 1]``, and starts at
    round ``b``.  Returns the ``(T, T)`` table of estimates, row ``t - 1``
    holding rounds ``1..t`` (the layout of
    :meth:`~repro.streams.bank.CounterBank.run`).
    """
    counters = []
    out = np.zeros((horizon, horizon), dtype=np.float64)
    for t in range(1, horizon + 1):
        counters.append(
            make_counter(
                name,
                horizon=horizon - t + 1,
                rho=float(rho_per_threshold[t - 1]),
                seed=seeds[t - 1],
            )
        )
        for b in range(1, t + 1):
            out[t - 1, b - 1] = counters[b - 1].feed(int(increments[t - 1, b - 1]))
    return out


def fallback_reference(synth):
    """Run a fresh cumulative synthesizer's thresholds on per-threshold counters.

    Replaces the bank of ``synth`` (which must not have observed anything)
    with a :class:`~repro.streams.bank.FallbackBank` built from the
    synthesizer's own configuration and counter seeds, and returns it.
    """
    if synth.t:
        raise ConfigurationError("fallback_reference() needs a fresh synthesizer")
    synth._bank = FallbackBank(
        synth.horizon,
        synth.rho_per_threshold,
        seeds=synth._counter_seeds,
        counter=synth.counter_name,
    )
    return synth


def scalar_group_correction(
    previous_counts, noisy_counts, alphabet, generator, on_negative="redistribute"
):
    """:func:`~repro.core.consistency.apply_group_correction`, one group at a time."""
    previous = np.asarray(previous_counts, dtype=np.int64)
    noisy = np.asarray(noisy_counts, dtype=np.int64)
    totals = group_totals(previous, alphabet)
    n_bins = previous.shape[0]
    children = noisy.reshape(n_bins // alphabet, alphabet).copy()
    base, residue = np.divmod(totals - children.sum(axis=1), alphabet)
    children += base[:, None]
    for z in np.flatnonzero(residue):
        picks = generator.choice(alphabet, size=int(residue[z]), replace=False)
        children[z, picks] += 1

    negative_groups = (children < 0).any(axis=1)
    n_events = int(negative_groups.sum())
    if n_events and on_negative == "raise":
        raise NegativeCountError(
            f"target counts went negative for overlap group "
            f"z={int(np.flatnonzero(negative_groups)[0])}"
        )
    for z in np.flatnonzero(negative_groups):
        row = np.maximum(children[z], 0)
        excess = int(row.sum() - totals[z])
        while excess > 0:
            top = int(row.argmax())
            take = min(excess, int(row[top]))
            row[top] -= take
            excess -= take
        children[z] = row
    return children.reshape(n_bins), n_events


def scalar_assign(group_of, n_groups, quotas, generator, sizes=None):
    """:func:`~repro.core.synthetic_store._assign_within_groups`, one record at a time.

    Walks the records in index order; each draws its label without
    replacement from its group's remaining quota.  When only label 0 is
    requested nothing is drawn.
    """
    remaining = np.asarray(quotas, dtype=np.int64).copy()
    labels = np.zeros(group_of.shape[0], dtype=np.int64)
    if not remaining[:, 1:].any():
        return labels
    for i in range(group_of.shape[0]):
        row = remaining[group_of[i]]
        u = int(generator.integers(int(row.sum())))
        c = 0
        acc = int(row[0])
        while u >= acc:
            c += 1
            acc += int(row[c])
        labels[i] = c
        row[c] -= 1
    return labels


@contextlib.contextmanager
def scalar_loops():
    """Run window synthesizers on :func:`scalar_group_correction` and :func:`scalar_assign`.

    Binary windows project with the paired correction, so only their
    record extension changes; categorical windows change in both steps.
    """
    with mock.patch.object(
        window_engine, "apply_group_correction", scalar_group_correction
    ), mock.patch.object(synthetic_store, "_assign_within_groups", scalar_assign):
        yield
