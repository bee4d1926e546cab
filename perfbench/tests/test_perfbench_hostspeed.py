"""Host-speed sampling and the rescaling of pass timings to the reference host."""

import math
import tracemalloc

import pytest

from perfbench import hostspeed
from perfbench.workloads import PassStats


def test_between_is_the_geometric_mean():
    assert hostspeed.between(0.5, 2.0) == pytest.approx(1.0)
    assert hostspeed.between(0.8, 0.8) == pytest.approx(0.8)


def test_at_speed_rescales_every_reported_timing_but_not_the_wall_clock():
    p = PassStats(setup_s=2.0, read_s=4.0, recover_s=1.0, timed_s=10.0)
    p.rounds = [(4, 0.5, 100), (5, 0.25, 90)]
    p.fig1_s, p.fig2_s = [1.0, 3.0], [2.0]
    p.at_speed(0.5)
    assert (p.setup_s, p.read_s, p.recover_s) == (1.0, 2.0, 0.5)
    assert p.rounds == [(4, 0.25, 100), (5, 0.125, 90)]
    assert (p.fig1_s, p.fig2_s) == ([0.5, 1.5], [1.0])
    assert p.timed_s == 10.0
    unread = PassStats(recover_s=None)
    unread.at_speed(2.0)
    assert unread.recover_s is None


def test_close_stretch_applies_the_bracketing_speed_to_pending_passes(monkeypatch):
    speed = hostspeed.HostSpeed()
    speed.samples = [0.25]
    monkeypatch.setattr(speed, "sample", lambda: 1.0)
    pending = [PassStats(setup_s=1.0), PassStats(setup_s=3.0)]
    first, second = pending
    assert speed.close_stretch(pending) == pytest.approx(0.5)
    assert pending == []
    assert (first.setup_s, second.setup_s) == (pytest.approx(0.5), pytest.approx(1.5))


@pytest.mark.parametrize("kernels", [("python", "numpy"), ("python",)])
def test_a_sample_is_a_positive_finite_speed_and_is_recorded(kernels):
    speed = hostspeed.HostSpeed(kernels)
    assert tuple(speed.kernels) == kernels
    value = speed.sample()
    assert math.isfinite(value) and value > 0
    assert speed.samples == [value]
    assert not speed.due()


def test_the_numpy_kernel_allocates_no_arrays_per_call():
    kernel = hostspeed.NumpyKernel()
    kernel()
    tracemalloc.start()
    try:
        kernel()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # far below one of its 4 MB int64 buffers
