"""Argsort reference implementations of the synthetic-store selection helpers.

:func:`repro.core.synthetic_store._choose_within_groups` and
:func:`repro.core.synthetic_store._assign_within_groups` written the direct
way: one ``generator.random(n)`` key per record, a full argsort by
group, then composite ``group + key``, then record index, and an explicit
within-group rank per record.  That is the store's documented rule: a
group's members rank by their composite keys, equal composites by index.
Sorting by group first keeps each group's block contiguous even when a
key rounds its composite up onto the next group's integer.

The production helpers must return what these return and leave the
generator in the same state.  ``oracle_choose`` returns indices in sorted
key order, so compare it as a set.
"""

import numpy as np

from repro.exceptions import ConsistencyError


def _rank_order(group_of, keys):
    """Record indices by group, then composite ``group + key``, then index."""
    return np.lexsort((np.arange(group_of.shape[0]), group_of + keys, group_of))


def oracle_choose(group_of, n_groups, picks_per_group, generator):
    """Pick ``picks_per_group[g]`` random members of each group (argsort form)."""
    picks_per_group = np.asarray(picks_per_group, dtype=np.int64)
    sizes = np.bincount(group_of, minlength=n_groups)[:n_groups]
    bad = (picks_per_group < 0) | (picks_per_group > sizes)
    if bad.any():
        g = int(np.flatnonzero(bad)[0])
        raise ConsistencyError(
            f"group {g} has {int(sizes[g])} records but "
            f"{int(picks_per_group[g])} were requested"
        )
    if not picks_per_group.any():
        return np.zeros(0, dtype=np.int64)
    keys = generator.random(group_of.shape[0])
    order = _rank_order(group_of, keys)
    sorted_groups = group_of[order]
    n_labels = max(n_groups, int(sorted_groups[-1]) + 1)
    starts = np.searchsorted(sorted_groups, np.arange(n_labels))
    quota = np.zeros(n_labels, dtype=np.int64)
    quota[:n_groups] = picks_per_group
    rank = np.arange(order.shape[0], dtype=np.int64) - starts[sorted_groups]
    return order[rank < quota[sorted_groups]]


def oracle_assign(group_of, n_groups, quotas, generator):
    """Label records so group ``g`` gets ``quotas[g, l]`` of label ``l`` (argsort form)."""
    quotas = np.asarray(quotas, dtype=np.int64)
    n_labels = quotas.shape[1]
    sizes = np.bincount(group_of, minlength=n_groups)[:n_groups]
    bad = (quotas < 0).any(axis=1) | (quotas.sum(axis=1) != sizes)
    if bad.any():
        g = int(np.flatnonzero(bad)[0])
        raise ConsistencyError(
            f"group {g} has {int(sizes[g])} records but label quotas "
            f"{quotas[g].tolist()} were requested"
        )
    labels = np.zeros(group_of.shape[0], dtype=np.int64)
    if not quotas[:, 1:].any():
        return labels
    keys = generator.random(group_of.shape[0])
    order = _rank_order(group_of, keys)
    sorted_groups = group_of[order]
    starts = np.searchsorted(sorted_groups, np.arange(n_groups))
    rank = np.arange(order.shape[0], dtype=np.int64) - starts[sorted_groups]
    # Descending-label thresholds: label L-1 takes each group's first
    # quotas[g, L-1] ranks, label L-2 the next quotas[g, L-2] ranks, ...
    cuts = quotas[:, ::-1].cumsum(axis=1)
    passed = (rank[:, None] >= cuts[sorted_groups]).sum(axis=1)
    labels[order] = n_labels - 1 - passed
    return labels
