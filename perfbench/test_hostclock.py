"""Tests of the host clock's rescaling in ``hostclock.py``.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import gc
import time

import pytest

from hostclock import REFERENCE_S, HostClock, calibration_loop, scaled


def test_reference_speed_counts_wall_time():
    samples = [(0.0, REFERENCE_S), (1.0, REFERENCE_S)]
    assert scaled(samples, 0.25, 1.75) == pytest.approx(1.5)


def test_half_speed_counts_half():
    samples = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (2.0, REFERENCE_S)]
    assert scaled(samples, 0.0, 3.0) == pytest.approx(1.0 + 0.5 + 1.0)


def test_first_and_last_sample_cover_the_ends():
    samples = [(0.0, 2 * REFERENCE_S), (1.0, REFERENCE_S)]
    assert scaled(samples, -1.0, 0.0) == pytest.approx(0.5)
    assert scaled(samples, 1.0, 4.0) == pytest.approx(3.0)


def test_without_samples_it_is_wall_time():
    assert scaled([], 0.5, 2.0) == 1.5


def test_calibration_leaves_collection_as_it_found_it():
    calibration_loop()
    assert gc.isenabled()
    gc.disable()
    try:
        calibration_loop()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_clock_samples_and_leaves_calibration_out():
    with HostClock() as clock:
        began = clock.raw()
        sum(range(2_000_000))
        ended = clock.raw()
    assert len(clock.samples) >= 2
    assert clock.scaled(began, ended) > 0
    calibrating = sum(took for _, took in clock.samples)
    raw = clock.raw()
    wall = time.monotonic() - clock.started_at
    assert wall - raw == pytest.approx(calibrating, abs=1e-3)


def test_clock_without_sampling_reads_wall_time():
    with HostClock(sampling=False) as clock:
        assert clock.samples == []
        assert clock.scaled(0.0, 1.0) == 1.0
