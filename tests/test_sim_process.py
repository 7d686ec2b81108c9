"""Unit tests for generator processes, joins, interrupts, conditions and
direct wakes."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EventTracer,
    FcfsResource,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
)


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "finished"

    p = sim.process(proc(sim))
    sim.run()
    assert p.processed
    assert p.value == "finished"
    assert not p.is_alive


def test_process_sees_timeout_values():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="tick")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["tick"]


def test_join_waits_for_child():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(3.0)
        return 99

    def parent(sim):
        result = yield sim.process(child(sim))
        log.append((sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [(3.0, 99)]


def test_exception_in_process_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_unjoined_process_exception_escapes_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    sim.process(proc(sim))
    with pytest.raises(KeyError):
        sim.run()


def test_unjoined_process_failure_stops_run_when_it_happens():
    sim = Simulator()
    sim.timeout(10.0)

    def proc(sim):
        yield sim.timeout(2.0)
        raise KeyError("oops")

    sim.process(proc(sim))
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == 2.0


def test_process_joined_after_it_returned_resumes_with_value():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def late_joiner(sim, proc):
        yield sim.timeout(5.0)
        value = yield proc
        log.append((sim.now, value))

    proc = sim.process(child(sim))
    sim.process(late_joiner(sim, proc))
    sim.run()
    assert log == [(5.0, "done")]
    assert proc.processed and proc.value == "done"
    # Conditions over a finished process see its value too.
    either = AnyOf(sim, [proc])
    both = AllOf(sim, [proc, sim.timeout(1.0, value="tick")])
    sim.run()
    assert either.ok and either.value[proc] == "done"
    assert both.ok and both.value[proc] == "done"


def test_tracer_counts_every_process_termination():
    sim = Simulator()
    tracer = EventTracer(sim)

    def quick(sim, delay):
        yield sim.timeout(delay)
        return delay

    def joiner(sim, proc):
        value = yield proc
        return value

    procs = [sim.process(quick(sim, float(i))) for i in range(4)]
    sim.process(joiner(sim, procs[0]))
    sim.run()
    # Four unjoined children plus the joiner itself: every termination is
    # a processed Process event while a tracer watches.
    assert tracer.counts["Process"] == 5
    assert all(p.processed for p in procs)


def test_yield_non_event_is_error():
    sim = Simulator()

    def proc(sim):
        yield 42

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_process_of_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_waiting_on_already_processed_event():
    sim = Simulator()
    log = []
    evt = sim.event()
    evt.succeed("early")

    def late(sim):
        yield sim.timeout(5.0)
        value = yield evt  # already processed by now
        log.append((sim.now, value))

    sim.process(late(sim))
    sim.run()
    assert log == [(5.0, "early")]


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    def attacker(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("reason")

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert log == [(2.0, "reason")]


def test_interrupt_detaches_from_target():
    sim = Simulator()
    log = []

    def victim(sim):
        timeout = sim.timeout(10.0)
        try:
            yield timeout
        except Interrupt:
            pass
        # Wait on the same timeout again after the interrupt.
        yield timeout
        log.append(sim.now)

    def attacker(sim, target):
        yield sim.timeout(1.0)
        target.interrupt()

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert log == [10.0]


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_all_of_waits_for_all():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(4.0, value="b")
        results = yield AllOf(sim, [t1, t2])
        log.append((sim.now, results[t1], results[t2]))

    sim.process(proc(sim))
    sim.run()
    assert log == [(4.0, "a", "b")]


def test_any_of_fires_on_first():
    sim = Simulator()
    log = []

    def proc(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        results = yield AnyOf(sim, [fast, slow])
        log.append((sim.now, fast in results, slow in results))

    sim.process(proc(sim))
    sim.run()
    assert log == [(1.0, True, False)]


def test_condition_operators():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(2.0)
        yield t1 & t2
        log.append(sim.now)
        t3 = sim.timeout(1.0)
        t4 = sim.timeout(5.0)
        yield t3 | t4
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [2.0, 3.0]


def test_empty_all_of_triggers_immediately():
    sim = Simulator()
    log = []

    def proc(sim):
        result = yield AllOf(sim, [])
        log.append(len(result))

    sim.process(proc(sim))
    sim.run()
    assert log == [0]


def test_condition_value_mapping_api():
    sim = Simulator()
    holder = {}

    def proc(sim):
        t = sim.timeout(1.0, value="x")
        holder["cv"] = yield AllOf(sim, [t])
        holder["t"] = t

    sim.process(proc(sim))
    sim.run()
    cv, t = holder["cv"], holder["t"]
    assert cv[t] == "x"
    assert list(cv) == [t]
    assert cv.todict() == {t: "x"}
    with pytest.raises(KeyError):
        _ = cv[sim.event()]


def test_condition_failure_propagates():
    sim = Simulator()
    caught = []

    def failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    def proc(sim):
        try:
            yield AllOf(sim, [sim.process(failing(sim)), sim.timeout(10.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc(sim))
    sim.run()
    assert caught == ["inner"]


def test_nested_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(worker(sim, "a", 1.0))
    sim.process(worker(sim, "b", 1.0))
    sim.process(worker(sim, "c", 0.5))
    sim.run()
    assert order == ["c", "a", "b"]


def test_active_process_visible_during_resume():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


# -- direct wakes ------------------------------------------------------------


@pytest.mark.parametrize("wait", ["sleep", "hold"])
def test_interrupt_orphans_a_pending_wake(wait):
    sim = Simulator()
    cpu = FcfsResource(sim)
    log = []

    def victim(sim):
        try:
            if wait == "sleep":
                yield sim.sleep(10.0)
            else:
                yield cpu.hold(10.0)
        except Interrupt:
            log.append(("interrupted", sim.now))
        # Re-armed: the orphaned entry at t=10 must not cut this short.
        yield sim.sleep(20.0)
        log.append(("slept", sim.now))

    def attacker(sim, target):
        yield sim.sleep(1.0)
        target.interrupt()

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run(until=5.0)
    assert log == [("interrupted", 1.0)]
    # The orphaned entry stays queued and still counts for peek().
    assert sim.peek() == 10.0
    sim.run(until=15.0)
    assert log == [("interrupted", 1.0)]
    assert sim.peek() == 21.0
    sim.run()
    assert log == [("interrupted", 1.0), ("slept", 21.0)]
    assert sim.now == 21.0
    assert not v.is_alive


def test_orphaned_wake_still_advances_the_clock():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.sleep(10.0)
        except Interrupt:
            return

    def attacker(sim, target):
        yield sim.sleep(1.0)
        target.interrupt()

    sim.process(attacker(sim, sim.process(victim(sim))))
    sim.run()
    # Exactly what an abandoned timeout does: it pops at t=10, resuming
    # nobody.
    assert sim.now == 10.0
    assert sim.peek() == float("inf")


def test_yielding_another_process_wake_is_an_error():
    sim = Simulator()
    tokens = []

    def sleeper(sim):
        tokens.append(sim.sleep(5.0))
        yield tokens[0]

    def thief(sim):
        yield sim.sleep(1.0)
        yield tokens[0]

    sim.process(sleeper(sim))
    sim.process(thief(sim))
    with pytest.raises(SimulationError, match="yielded <Wake of <Process sleeper>>"):
        sim.run()


def test_sleeping_twice_before_one_yield_is_an_error():
    sim = Simulator()

    def proc(sim):
        sim.sleep(1.0)
        yield sim.sleep(2.0)

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="slept twice"):
        sim.run()


def test_yielding_an_event_with_a_wake_armed_is_an_error():
    sim = Simulator()

    def proc(sim):
        sim.sleep(1.0)
        yield sim.timeout(2.0)

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="with its wake armed"):
        sim.run()


def test_yielding_a_spent_wake_is_an_error():
    sim = Simulator()

    def proc(sim):
        token = sim.sleep(1.0)
        yield token
        yield token

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="spent wake"):
        sim.run()


def test_sleep_outside_a_process_is_a_timeout():
    sim = Simulator()
    assert isinstance(sim.sleep(1.0), Timeout)
    assert isinstance(sim.sleep_until(2.0), Timeout)
    sim.run()
    assert sim.now == 2.0


def test_finished_process_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        sim = Simulator()

        def proc(sim):
            yield sim.sleep(1.0)

        generator = proc(sim)
        ref = weakref.ref(generator)
        sim.process(generator)
        del generator
        sim.run()
        # Process <-> wake would be a cycle; termination breaks it, so
        # reference counting alone frees the process and its generator.
        assert ref() is None
    finally:
        gc.enable()
