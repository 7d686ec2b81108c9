"""Unit tests for FcfsResource, Lock and Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    EventTracer,
    FcfsResource,
    Interrupt,
    Lock,
    Resource,
    SimulationError,
    Simulator,
)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_serialises_users():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(sim, name, hold):
        with res.request() as req:
            yield req
            log.append((name, "start", sim.now))
            yield sim.timeout(hold)
            log.append((name, "end", sim.now))

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 3.0))
    sim.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 5.0),
    ]


def test_resource_parallel_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)
            ends.append(sim.now)

    for _ in range(4):
        sim.process(user(sim))
    sim.run()
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(3.0)

    sim.process(user(sim))
    sim.run(until=10.0)
    assert res.busy_time() == pytest.approx(3.0)


def test_resource_busy_time_counts_in_flight_use():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(8.0)

    sim.process(user(sim))
    sim.run(until=4.0)
    assert res.busy_time() == pytest.approx(4.0)


def test_resource_queue_length_and_count():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(5.0)

    def waiter(sim):
        with res.request() as req:
            yield req

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=1.0)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_release_unknown_request_is_noop():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    sim.run()
    res.release(req)
    res.release(req)  # double release tolerated
    assert res.count == 0


# -- FcfsResource ------------------------------------------------------------


def test_fcfs_idle_gap_restarts_at_now():
    sim = Simulator()
    res = FcfsResource(sim)
    ends = []

    def user(sim):
        yield res.hold(1.0)
        ends.append(sim.now)
        yield sim.sleep(4.0)
        yield res.hold(1.0)
        ends.append(sim.now)

    sim.process(user(sim))
    sim.run(until=10.0)
    assert ends == [1.0, 6.0]
    assert res.busy_time() == 2.0


def test_fcfs_rejects_negative_hold():
    res = FcfsResource(Simulator())
    with pytest.raises(ValueError):
        res.hold(-1.0)


def test_sleep_until_rejects_the_past():
    sim = Simulator(start_time=5.0)
    with pytest.raises(ValueError):
        sim.sleep_until(4.0)


@pytest.mark.parametrize("traced", [False, True])
def test_sleep_until_fires_at_the_absolute_time(traced):
    # now + (when - now) rounds to 1.0 here, not to ``when``.
    now, when = 2.0**-53, 1.0 + 2.0**-52
    assert now + (when - now) != when
    sim = Simulator(start_time=now)
    if traced:
        EventTracer(sim)
    fired = []

    def proc(sim):
        yield sim.sleep_until(when)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == [when]


_durations = st.one_of(
    st.just(0.0),
    st.sampled_from([0.001, 0.0125, 0.1, 0.3]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
# Zero gaps put several arrivals at the same instant; long gaps leave the
# server idle between bursts.
_gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=2.0, max_value=10.0, allow_nan=False),
)


def _drive(schedule, sample_at, traced, use_hold):
    """Replay ``schedule`` through a hold() server or Resource + sleep.

    Returns every completion time (by job), ``busy_time()`` read by each
    job as it completes and at each arrival, and ``busy_time()`` read at
    each of the ``sample_at`` instants.
    """
    sim = Simulator()
    if traced:
        EventTracer(sim)
    if use_hold:
        res = FcfsResource(sim)
    else:
        res = Resource(sim, capacity=1)
    completions = {}
    boundary_busy = []

    def job(sim, index, duration):
        if use_hold:
            yield res.hold(duration)
        else:
            with res.request() as req:
                yield req
                yield sim.sleep(duration)
        completions[index] = sim.now
        boundary_busy.append((index, res.busy_time()))

    def arrivals(sim):
        for index, (gap, duration) in enumerate(schedule):
            if gap:
                yield sim.sleep(gap)
            boundary_busy.append(("arrival", res.busy_time()))
            sim.process(job(sim, index, duration))

    sim.process(arrivals(sim))
    sampled = []
    for t in sorted(sample_at):
        sim.run(until=t)
        sampled.append(res.busy_time())
    sim.run()
    sampled.append(res.busy_time())
    return completions, boundary_busy, sampled


@settings(max_examples=150, deadline=None)
@given(
    schedule=st.lists(st.tuples(_gaps, _durations), min_size=1, max_size=25),
    sample_at=st.lists(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False), max_size=12
    ),
    traced=st.booleans(),
)
def test_fcfs_hold_equals_resource_plus_sleep(schedule, sample_at, traced):
    by_resource = _drive(schedule, sample_at, traced, use_hold=False)
    by_hold = _drive(schedule, sample_at, traced, use_hold=True)
    # Bit-identical: plain ==, never approx.
    assert by_hold[0] == by_resource[0]
    assert sorted(by_hold[1], key=repr) == sorted(by_resource[1], key=repr)
    assert by_hold[2] == by_resource[2]


# -- Lock ----------------------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True])
def test_interrupted_lock_waiter_is_withdrawn(traced):
    sim = Simulator()
    if traced:
        EventTracer(sim)
    lock = Lock(sim)
    log = []

    def holder(sim):
        yield lock.acquire()
        yield sim.sleep(5.0)
        lock.release()

    def waiter(sim, name):
        try:
            yield lock.acquire()
        except Interrupt:
            log.append((name, "interrupted", sim.now))
            # Queue again: behind b now, not in the withdrawn place.
            yield lock.acquire()
        log.append((name, "granted", sim.now))
        lock.release()

    def attacker(sim, target):
        yield sim.sleep(1.0)
        target.interrupt()

    sim.process(holder(sim))
    a = sim.process(waiter(sim, "a"))
    sim.process(waiter(sim, "b"))
    sim.process(attacker(sim, a))
    sim.run()
    assert log == [
        ("a", "interrupted", 1.0),
        ("b", "granted", 5.0),
        ("a", "granted", 5.0),
    ]
    assert not lock.locked


def test_lock_misuse_is_an_error():
    sim = Simulator()
    lock = Lock(sim)
    with pytest.raises(SimulationError):
        lock.acquire()
    with pytest.raises(SimulationError):
        lock.release()


# A holder's critical section: a list of waits, each a plain sleep or a
# hold on a CPU shared with every other job (so holders block across
# other processes' waits), with zero-length waits for same-instant ties.
_section = st.lists(
    st.tuples(st.sampled_from(["sleep", "cpu"]), _durations), max_size=4
)


def _drive_lock(schedule, traced, use_lock):
    """Replay ``schedule`` through a Lock or a capacity-1 Resource.

    Every job takes a CPU hold, claims the lock, runs its critical
    section and releases.  Returns the log of every job's steps (grants,
    waits, releases) in processing order, with their times.
    """
    sim = Simulator()
    if traced:
        EventTracer(sim)
    cpu = FcfsResource(sim)
    lock = Lock(sim) if use_lock else Resource(sim, capacity=1)
    log = []

    def section(sim, index, waits):
        for kind, duration in waits:
            if kind == "cpu":
                yield cpu.hold(duration)
            else:
                yield sim.sleep(duration)
            log.append((kind, index, sim.now))

    def job(sim, index, accept, waits):
        yield cpu.hold(accept)
        log.append(("accepted", index, sim.now))
        if use_lock:
            yield lock.acquire()
            log.append(("grant", index, sim.now))
            yield from section(sim, index, waits)
            log.append(("release", index, sim.now))
            lock.release()
        else:
            with lock.request() as req:
                yield req
                log.append(("grant", index, sim.now))
                yield from section(sim, index, waits)
                log.append(("release", index, sim.now))
        log.append(("after", index, sim.now))

    def arrivals(sim):
        for index, (gap, accept, waits) in enumerate(schedule):
            if gap:
                yield sim.sleep(gap)
            sim.process(job(sim, index, accept, waits))

    sim.process(arrivals(sim))
    sim.run()
    return log, sim.now


@settings(max_examples=150, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(_gaps, _durations, _section), min_size=1, max_size=20
    ),
    traced=st.booleans(),
)
def test_lock_equals_capacity_one_resource(schedule, traced):
    by_resource = _drive_lock(schedule, traced, use_lock=False)
    by_lock = _drive_lock(schedule, traced, use_lock=True)
    # Same grants, same order, same times: plain ==, never approx.
    assert by_lock == by_resource
