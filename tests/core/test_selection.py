"""The synthetic store's order-statistic selection against its argsort oracle.

``_assign_within_groups`` and ``_choose_within_groups`` rank every group
uniformly at random from one key per record and cut label blocks out of
the ranks.  They read each cut's key off a value sort (below about 2**15
records) or off bucketed order statistics (above it) instead of
argsorting the records, and must select exactly what the argsort
reference in ``tests/oracles/selection.py`` selects, from the same
generator draws, on both paths — that is what keeps every window and
cumulative checkpoint byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.selection import oracle_assign, oracle_choose
from repro.core.synthetic_store import (
    _assign_within_groups,
    _bucket_width,
    _choose_within_groups,
)
from repro.exceptions import ConsistencyError
from repro.rng import as_generator


@st.composite
def grouped_quotas(draw, min_records=0, max_records=20_000):
    """Records in groups (some empty) with zero, full and split label quotas."""
    n_labels = draw(st.integers(2, 5))
    n_groups = draw(st.integers(1, 10))
    n = draw(st.integers(min_records, max_records))
    modes = draw(
        st.lists(
            st.sampled_from(["forced", "full", "split"]),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(n_groups) * (rng.random(n_groups) < 0.75)
    weights[0] += 1e-3
    group_of = rng.choice(n_groups, size=n, p=weights / weights.sum())
    sizes = np.bincount(group_of, minlength=n_groups)
    quotas = np.zeros((n_groups, n_labels), dtype=np.int64)
    for g, (mode, size) in enumerate(zip(modes, sizes, strict=True)):
        if mode == "forced":
            quotas[g, 0] = size
        elif mode == "full":
            quotas[g, rng.integers(n_labels)] = size
        else:
            cuts = np.sort(rng.integers(0, size + 1, size=n_labels - 1))
            quotas[g] = np.diff(np.concatenate([[0], cuts, [size]]))
    return group_of, quotas


class TestAgainstArgsortOracle:
    @given(case=grouped_quotas(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_assign_matches_oracle_labels_and_stream(self, case, seed):
        group_of, quotas = case
        n_groups = quotas.shape[0]
        ours, theirs = as_generator(seed), as_generator(seed)
        labels = _assign_within_groups(group_of, n_groups, quotas, ours)
        expected = oracle_assign(group_of, n_groups, quotas, theirs)
        assert labels.dtype == np.uint8
        assert (labels == expected).all()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(
        case=grouped_quotas(),
        hidden=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_choose_matches_oracle_choice_and_stream(self, case, hidden, seed):
        # Labels at or above ``n_groups`` have quota 0 and are never chosen.
        group_of, quotas = case
        n_groups = max(quotas.shape[0] - hidden, 1)
        picks = quotas[:n_groups, -1]
        ours, theirs = as_generator(seed), as_generator(seed)
        chosen = _choose_within_groups(group_of, n_groups, picks, ours)
        expected = oracle_choose(group_of, n_groups, picks, theirs)
        assert (chosen == np.sort(expected)).all()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(case=grouped_quotas(1 << 15, 70_000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_assign_matches_oracle_at_bucketed_scale(self, case, seed):
        group_of, quotas = case
        n_groups = quotas.shape[0]
        ours, theirs = as_generator(seed), as_generator(seed)
        labels = _assign_within_groups(group_of, n_groups, quotas, ours)
        expected = oracle_assign(group_of, n_groups, quotas, theirs)
        assert (labels == expected).all()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(
        case=grouped_quotas(1 << 15, 70_000),
        hidden=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_choose_matches_oracle_at_bucketed_scale(self, case, hidden, seed):
        group_of, quotas = case
        n_groups = max(quotas.shape[0] - hidden, 1)
        picks = quotas[:n_groups, -1]
        ours, theirs = as_generator(seed), as_generator(seed)
        chosen = _choose_within_groups(group_of, n_groups, picks, ours)
        expected = oracle_choose(group_of, n_groups, picks, theirs)
        assert (chosen == np.sort(expected)).all()
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestSizeRule:
    """Which path runs is worked out from the group sizes, never set."""

    def test_sort_below_two_to_the_fifteen_records(self):
        assert _bucket_width(np.array([16_383, 16_384]), 1) == 0
        assert _bucket_width(np.array([16_384, 16_384]), 1) == 1024

    def test_sort_when_buckets_would_average_under_four_records(self):
        # One large weight group beside a hundred small ones.
        sizes = np.concatenate([[60_000], np.full(100, 50)])
        assert _bucket_width(sizes, 1) == 0
        assert _bucket_width(np.concatenate([[60_000], np.full(3, 50)]), 1) == 2048

    def test_width_is_a_power_of_two_with_room_for_every_cut(self):
        for sizes, n_cuts in (([40_000], 1), ([30_000] * 9, 2), ([5_000] * 20, 4)):
            width = _bucket_width(np.array(sizes), n_cuts)
            assert width & (width - 1) == 0
            assert width >= 16 * (n_cuts + 1)

    @pytest.mark.parametrize("n", [(1 << 15) - 1, 1 << 15])
    def test_both_sides_of_the_rule_match_the_oracle(self, n):
        generator = np.random.default_rng(n)
        group_of = generator.integers(0, 9, size=n)
        sizes = np.bincount(group_of, minlength=9)
        quotas = np.stack([generator.multinomial(size, [1 / 3] * 3) for size in sizes])
        assert (_bucket_width(sizes, 2) > 0) == (n >= 1 << 15)
        ours, theirs = as_generator(5), as_generator(5)
        labels = _assign_within_groups(group_of, 9, quotas, ours)
        assert (labels == oracle_assign(group_of, 9, quotas, theirs)).all()
        assert ours.bit_generator.state == theirs.bit_generator.state


class _PresetKeys:
    """Generator stand-in whose single ``random(n)`` call returns preset keys."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.float64)
        self.calls = 0

    def random(self, size):
        assert size == self.keys.shape[0]
        self.calls += 1
        return self.keys.copy()


class TestTies:
    # Group 1 holds records 1, 2, 4, 5, 7 and 8; four of them share the
    # key 0.5, so both of its cuts (2 and 4) fall inside the tie.
    GROUP_OF = np.array([0, 1, 1, 0, 1, 1, 0, 1, 1])
    KEYS = [0.3, 0.5, 0.25, 0.1, 0.5, 0.75, 0.9, 0.5, 0.5]

    def test_tied_keys_straddling_cuts_go_by_index(self):
        quotas = np.array([[1, 1, 1], [2, 2, 2]])
        stand_in = _PresetKeys(self.KEYS)
        labels = _assign_within_groups(self.GROUP_OF, 2, quotas, stand_in)
        # Group 0 by key: 3, 0, 6.  Group 1 by (key, index): 2, then
        # 1, 4, 7, 8 (tied), then 5.
        assert labels.tolist() == [1, 2, 2, 2, 1, 0, 0, 1, 0]
        assert stand_in.calls == 1
        for g in range(2):
            for label in range(3):
                in_block = (self.GROUP_OF == g) & (labels == label)
                assert in_block.sum() == quotas[g, label]
        expected = oracle_assign(self.GROUP_OF, 2, quotas, _PresetKeys(self.KEYS))
        assert (labels == expected).all()

    def test_choose_breaks_a_straddling_tie_by_index(self):
        picks = np.array([2, 3])
        chosen = _choose_within_groups(self.GROUP_OF, 2, picks, _PresetKeys(self.KEYS))
        assert chosen.tolist() == [0, 1, 2, 3, 4]
        expected = oracle_choose(self.GROUP_OF, 2, picks, _PresetKeys(self.KEYS))
        assert chosen.tolist() == sorted(expected.tolist())

    def test_keys_rounding_onto_the_next_group_rank_within_their_own(self):
        # 1 + (1 - 2**-53) rounds to 2.0, the composite key of group 2's
        # zero key: the two groups tie across their boundary.  Ranks stay
        # per group, so each group still gets exactly its quota.
        group_of = np.array([2, 1, 1, 2])
        keys = [0.0, 1 - 2.0**-53, 1 - 2.0**-53, 0.5]
        quotas = np.array([[0, 0], [1, 1], [1, 1]])
        labels = _assign_within_groups(group_of, 3, quotas, _PresetKeys(keys))
        assert labels.tolist() == [1, 1, 0, 0]


class TestContract:
    def test_choose_returns_ascending_indices(self):
        generator = as_generator(4)
        group_of = generator.integers(0, 5, size=1000)
        picks = np.bincount(group_of, minlength=5) // 3
        chosen = _choose_within_groups(group_of, 5, picks, generator)
        assert chosen.dtype == np.int64
        assert (np.diff(chosen) > 0).all()
        assert (np.bincount(group_of[chosen], minlength=5) == picks).all()

    def test_nothing_requested_draws_nothing(self):
        generator = as_generator(6)
        before = generator.bit_generator.state
        group_of = np.array([0, 1, 1, 2])
        chosen = _choose_within_groups(group_of, 3, np.zeros(3, dtype=int), generator)
        assert chosen.size == 0
        assert generator.bit_generator.state == before

    def test_precounted_sizes_are_checked(self):
        group_of, quotas = np.array([0, 0, 1]), np.array([[1, 1], [0, 1]])
        with pytest.raises(ConsistencyError, match="group 1 has 2 records"):
            _assign_within_groups(group_of, 2, quotas, as_generator(0), np.array([2, 2]))


def _uniform_keys(n_groups, seed, n=40_000):
    """``n`` records in ``n_groups`` groups with uniform keys, plus a generator."""
    generator = np.random.default_rng(seed)
    return generator, generator.integers(0, n_groups, size=n), generator.random(n)


def _split_quotas(generator, sizes, n_labels):
    """Random label quotas summing to each group's size."""
    return np.stack([generator.multinomial(size, [1 / n_labels] * n_labels) for size in sizes])


def _assert_assign_matches_oracle(group_of, quotas, keys):
    n_groups = quotas.shape[0]
    sizes = np.bincount(group_of, minlength=n_groups)[:n_groups]
    assert _bucket_width(sizes, quotas.shape[1] - 1) >= 2  # the bucketed path runs
    ours, theirs = _PresetKeys(keys), _PresetKeys(keys)
    labels = _assign_within_groups(group_of, n_groups, quotas, ours)
    expected = oracle_assign(group_of, n_groups, quotas, theirs)
    assert (labels == expected).all()
    assert ours.calls == theirs.calls == 1
    return labels


class TestBucketedEdges:
    """Preset keys that land on the bucketed path's boundaries."""

    def test_ties_straddling_two_cuts_inside_one_bucket(self):
        generator, group_of, keys = _uniform_keys(3, 1)
        members = np.flatnonzero(group_of == 1)
        tied = np.sort(generator.choice(members, size=6, replace=False))
        keys[tied] = 0.3
        below = np.count_nonzero(keys[members] < 0.3)
        quotas = _split_quotas(generator, np.bincount(group_of, minlength=3), 3)
        # Label 2 takes the lowest below + 2 ranks, label 1 the next 2:
        # both cuts fall inside the six-way tie.
        quotas[1] = [members.size - below - 4, 2, below + 2]
        labels = _assert_assign_matches_oracle(group_of, quotas, keys)
        assert labels[tied].tolist() == [2, 2, 1, 1, 0, 0]

    @pytest.mark.parametrize("group", [0, 1, 2])
    def test_cut_value_exactly_on_a_bucket_edge(self, group):
        generator, group_of, keys = _uniform_keys(3, 2)
        sizes = np.bincount(group_of, minlength=3)
        width = _bucket_width(sizes, 1)
        members = np.flatnonzero(group_of == group)
        edge = members[7]
        keys[edge] = 37 / width  # (group + key) * width is the integer edge
        cut = np.count_nonzero(keys[members] < keys[edge])
        quotas = _split_quotas(generator, sizes, 2)
        quotas[group] = [members.size - cut, cut]  # the edge key is the order statistic
        labels = _assert_assign_matches_oracle(group_of, quotas, keys)
        assert labels[edge] == 0

    def test_keys_rounding_onto_the_next_groups_integer(self):
        # 1 + (1 - 2**-53) rounds to 2.0 and 2 + (1 - 2**-52) to 3.0: each
        # record's composite lands in the next group's first bucket, where
        # it ties with a zero key of that group.
        generator, group_of, keys = _uniform_keys(4, 3)
        sizes = np.bincount(group_of, minlength=4)
        rounding = [np.flatnonzero(group_of == 1)[5], np.flatnonzero(group_of == 2)[9]]
        keys[rounding[0]] = 1 - 2.0**-53
        keys[rounding[1]] = 1 - 2.0**-52
        assert keys[rounding[0]] + 1 == 2.0 and keys[rounding[1]] + 2 == 3.0
        zeros = [np.flatnonzero(group_of == 2)[0], np.flatnonzero(group_of == 3)[4]]
        keys[zeros] = 0.0
        quotas = _split_quotas(generator, sizes, 3)
        labels = _assert_assign_matches_oracle(group_of, quotas, keys)
        # A group's largest key ranks last (label 0), its zero key first (label 2).
        assert labels[rounding].tolist() == [0, 0]
        assert labels[zeros].tolist() == [2, 2]

    def test_forced_full_and_empty_groups(self):
        generator, group_of, keys = _uniform_keys(6, 4)
        group_of[group_of == 2] = 5  # group 2 is empty
        sizes = np.bincount(group_of, minlength=6)
        quotas = _split_quotas(generator, sizes, 3)
        quotas[0] = [sizes[0], 0, 0]  # forced
        quotas[1] = [0, 0, sizes[1]]  # full, lowest ranks' label
        quotas[3] = [0, sizes[3], 0]  # full, a middle label
        labels = _assert_assign_matches_oracle(group_of, quotas, keys)
        assert (labels[group_of == 0] == 0).all()
        assert (labels[group_of == 1] == 2).all()
        assert (labels[group_of == 3] == 1).all()

    def test_choose_ignores_labels_at_or_above_n_groups(self):
        generator, group_of, keys = _uniform_keys(8, 5)
        sizes = np.bincount(group_of, minlength=8)
        picks = np.array([0, sizes[1], sizes[2] // 3, 1, sizes[4] - 1])
        assert _bucket_width(sizes, 1) >= 2
        chosen = _choose_within_groups(group_of, 5, picks, _PresetKeys(keys))
        expected = oracle_choose(group_of, 5, picks, _PresetKeys(keys))
        assert chosen.tolist() == sorted(expected.tolist())
        assert (group_of[chosen] < 5).all()
        assert (np.bincount(group_of[chosen], minlength=8)[:5] == picks).all()
