"""Percentile rule, checkpoint-round split, quartile spread and RSS reset."""

import statistics

import numpy as np
import pytest

from perfbench import stats


def test_p90_needs_a_hundred_samples():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(50) == 20


def test_percentile_refuses_thin_tails():
    values = list(range(1, 100))  # 99 samples: only 9 beyond p90
    with pytest.raises(ValueError, match="fewer than 10 samples beyond"):
        stats.percentile(values, 90)
    assert stats.percentile(list(range(1, 101)), 90) == 90.0
    assert stats.percentile(list(range(1, 101)), 50) == 50.0


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = list(range(200, 0, -1))
    assert stats.percentile(values, 90) == 180.0


def test_checkpoint_rounds_are_split_out():
    samples = [(t, float(t)) for t in range(4, 61)]
    ordinary, checkpoint = stats.split_rounds(samples, 16)
    assert checkpoint == [16.0, 32.0, 48.0]
    assert len(ordinary) == len(samples) - 3
    assert 32.0 not in ordinary
    everything, none = stats.split_rounds(samples, 0)
    assert len(everything) == len(samples) and none == []


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 12.0]
    mid, q1, q3, spread = stats.quartile_spread(values)
    expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected_q1, expected_q3)
    assert mid == statistics.median(values)
    assert spread == pytest.approx((expected_q3 - expected_q1) / mid)


def test_rss_reset_forgets_a_freed_peak():
    if stats.rss_mib() is None or not stats.reset_peak_rss():
        pytest.skip("needs Linux /proc/self/status and a writable clear_refs")
    block = np.ones(64 * 2**20 // 8)  # 64 MiB, every page touched
    assert stats.peak_rss_mib() - stats.rss_mib() < 8  # still resident: peak ~ current
    del block
    peak_before_reset = stats.peak_rss_mib()
    assert stats.reset_peak_rss()
    after = stats.peak_rss_mib()
    assert after < peak_before_reset - 32
    assert after - stats.rss_mib() < 8
