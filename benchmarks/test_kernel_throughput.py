"""Simulation-kernel throughput benchmarks.

Not a paper table — engineering due diligence for the substrate: the
replay experiments push ~10^6 events per run, so the kernel's events/
second figure bounds the whole suite's runtime.  These run with real
statistical rounds (unlike the one-shot replay benchmarks).
"""

from repro.sim import AllOf, FcfsResource, Lock, Resource, Simulator


def test_timeout_event_throughput(benchmark):
    """Schedule-and-process rate for bare timeouts."""

    def run():
        sim = Simulator()
        fired = [0]

        def bump():
            fired[0] += 1

        for i in range(10_000):
            sim.schedule_callback(float(i % 97), bump)
        sim.run()
        return fired[0]

    assert benchmark(run) == 10_000


def test_process_switch_throughput(benchmark):
    """Generator-process resume rate (ping-pong on plain events)."""

    def run():
        sim = Simulator()
        ping, pong = [sim.event()], [sim.event()]
        rounds = 2_000
        done = [0]

        def left(sim):
            for _ in range(rounds):
                ping[0].succeed()
                yield pong[0]
                pong[0] = sim.event()
                done[0] += 1

        def right(sim):
            for _ in range(rounds):
                yield ping[0]
                ping[0] = sim.event()
                pong[0].succeed()

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 2_000


def test_resource_contention_throughput(benchmark):
    """FIFO resource grant/release rate under contention."""

    def run():
        sim = Simulator()
        cpu = Resource(sim, capacity=2)
        done = [0]

        def worker(sim):
            for _ in range(50):
                with cpu.request() as req:
                    yield req
                    yield sim.timeout(0.001)
            done[0] += 1

        for _ in range(40):
            sim.process(worker(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 40


def test_fcfs_hold_throughput(benchmark):
    """Busy-until holds on a capacity-1 server: the same worker loop as
    above, one direct wake per hold instead of a grant and a sleep."""

    def run():
        sim = Simulator()
        cpu = FcfsResource(sim)
        done = [0]

        def worker(sim):
            for _ in range(50):
                yield cpu.hold(0.001)
            done[0] += 1

        for _ in range(40):
            sim.process(worker(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 40


def test_lock_contention_throughput(benchmark):
    """FIFO lock acquire/hold/release under contention (the accept lock):
    each grant and each hold is one direct wake of the worker."""

    def run():
        sim = Simulator()
        lock = Lock(sim)
        done = [0]

        def worker(sim):
            for _ in range(50):
                yield lock.acquire()
                yield sim.sleep(0.001)
                lock.release()
            done[0] += 1

        for _ in range(40):
            sim.process(worker(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 40


def test_condition_fanin_throughput(benchmark):
    """AllOf over many events (the coordinator's barrier pattern)."""

    def run():
        sim = Simulator()
        finished = [False]

        def waiter(sim):
            yield AllOf(sim, [sim.timeout(float(i % 13)) for i in range(2_000)])
            finished[0] = True

        sim.process(waiter(sim))
        sim.run()
        return finished[0]

    assert benchmark(run)

def test_hit_path_callback_throughput(benchmark):
    """Zero-allocation hit flow: chained ``call_later`` ping-pong.

    Mirrors ``ProxyCache.request_fast`` per cache hit — lookup callback,
    serve callback, next request — with no Event, Timeout or generator
    anywhere in the loop.
    """

    def run():
        sim = Simulator()
        fired = [0]
        rounds = 5_000

        def lookup():
            sim.call_later(0.0002, serve)

        def serve():
            fired[0] += 1
            if fired[0] < rounds:
                sim.call_later(0.0008, lookup)

        sim.call_later(0.0008, lookup)
        sim.run()
        return fired[0]

    assert benchmark(run) == 5_000


def test_timeout_storm_throughput(benchmark):
    """Timers spread over ~1000 s of simulated time, scheduled up front:
    a 10,000-entry heap drained in time order."""

    def run():
        sim = Simulator()
        fired = [0]

        def bump():
            fired[0] += 1

        for i in range(10_000):
            sim.schedule_callback(float((i * 37) % 1009), bump)
        sim.run()
        return fired[0]

    assert benchmark(run) == 10_000


def test_sleep_pool_throughput(benchmark):
    """Direct wakes: one process sleeping in a tight loop."""

    def run():
        sim = Simulator()
        done = [0]
        rounds = 10_000

        def proc(sim):
            for _ in range(rounds):
                yield sim.sleep(0.001)
                done[0] += 1

        sim.process(proc(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 10_000
