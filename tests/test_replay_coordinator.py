"""Unit tests for the lock-step time coordinator."""

import pytest

from repro.replay import CoordinatorError, TimeCoordinator
from repro.sim import Simulator


def test_interval_validation():
    with pytest.raises(ValueError):
        TimeCoordinator(Simulator(), interval=0)


def test_requires_participants():
    sim = Simulator()
    coord = TimeCoordinator(sim)
    proc = sim.process(coord.run(100.0))
    with pytest.raises(ValueError):
        sim.run()
    assert proc.triggered


def test_intervals_cover_duration():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []

    def participant(start, end):
        windows.append((start, end))
        yield sim.timeout(1.0)

    coord.register(participant)
    sim.process(coord.run(1000.0))
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 900.0), (900.0, 1000.0)]
    assert coord.intervals_completed == 4
    assert coord.trace_time == 1000.0


def test_barrier_waits_for_slowest_participant():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)
    starts = []

    def fast(start, end):
        starts.append(("fast", start, sim.now))
        yield sim.timeout(1.0)

    def slow(start, end):
        starts.append(("slow", start, sim.now))
        yield sim.timeout(10.0)

    coord.register(fast)
    coord.register(slow)
    sim.process(coord.run(200.0))
    sim.run()
    # Interval 2 starts only after slow finished interval 1 (wall 10.0).
    assert ("fast", 100.0, 10.0) in starts
    assert sim.now == 20.0  # two intervals, each paced by `slow`


def test_final_partial_interval_counts():
    """duration % interval != 0: the short tail interval still counts."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []

    def participant(start, end):
        windows.append((start, end))
        yield sim.timeout(1.0)

    coord.register(participant)
    sim.process(coord.run(750.0))
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 750.0)]
    assert coord.intervals_completed == 3
    assert coord.trace_time == 750.0


def test_duration_shorter_than_interval():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []

    def participant(start, end):
        windows.append((start, end))
        yield sim.timeout(1.0)

    coord.register(participant)
    sim.process(coord.run(10.0))
    sim.run()
    assert windows == [(0.0, 10.0)]
    assert coord.intervals_completed == 1
    assert coord.trace_time == 10.0


def test_participant_failure_mid_interval():
    """A raising participant fails the run cleanly; the progress counters
    stay at the last *completed* interval."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def healthy(start, end):
        yield sim.timeout(1.0)

    def flaky(start, end):
        yield sim.timeout(0.5)
        if start >= 100.0:  # fails during the second interval
            raise RuntimeError("driver lost its trace shard")
        yield sim.timeout(0.5)

    coord.register(healthy)
    coord.register(flaky)
    proc = sim.process(coord.run(300.0))
    with pytest.raises(CoordinatorError, match=r"\[100, 200\)"):
        sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, CoordinatorError)
    assert coord.intervals_completed == 1
    assert coord.trace_time == 100.0
    # The simulator stays usable: surviving participants drain quietly.
    sim.run()


def test_two_participants_failing_same_interval():
    """The second failure must not escape the simulator as a raw
    exception after the coordinator already aborted (regression: late
    failures were never defused)."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def fail_fast(start, end):
        yield sim.timeout(0.5)
        raise RuntimeError("first")

    def fail_slow(start, end):
        yield sim.timeout(1.0)
        raise RuntimeError("second")

    coord.register(fail_fast)
    coord.register(fail_slow)
    sim.process(coord.run(300.0))
    with pytest.raises(CoordinatorError, match="first"):
        sim.run()
    assert coord.intervals_completed == 0
    assert coord.trace_time == 0.0
    # Draining the queue hits fail_slow's failure; it must be defused.
    sim.run()


def test_interval_too_small_to_advance():
    sim = Simulator(start_time=0.0)
    coord = TimeCoordinator(sim, interval=1e-13)
    coord.trace_time = 1e16  # resume far into a huge trace
    coord.register(lambda start, end: iter(()))
    sim.process(coord.run(1e16 + 10.0))
    with pytest.raises(CoordinatorError, match="too small"):
        sim.run()


def test_wall_clock_decoupled_from_trace_time():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)

    def quick(start, end):
        yield sim.timeout(2.0)

    coord.register(quick)
    sim.process(coord.run(3000.0))
    sim.run()
    # 10 intervals x 2s wall each: trace time 3000, wall time 20.
    assert coord.trace_time == 3000.0
    assert sim.now == pytest.approx(20.0)


def test_closing_an_abandoned_run_raises_nothing():
    """GeneratorExit passes through the barrier unwrapped, so closing (or
    collecting) a coordinator left mid-interval is silent."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def participant(start, end):
        yield sim.timeout(1.0)

    coord.register(participant)
    gen = coord.run(300.0)
    next(gen)
    gen.close()
