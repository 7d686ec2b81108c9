"""Shared resources for simulation processes.

* :class:`FcfsResource` — a single-unit first-come-first-served server
  kept as busy-until arithmetic.  The server's CPU and disk are these:
  every charge is a pure delay, so a hold is one direct wake.
* :class:`Lock` — a FIFO mutex held across other waits (the server's
  accept lock is held across a blocking INVALIDATE fan-out); a grant
  wakes the waiting process directly.
* :class:`Resource` — a counted resource with FIFO queueing, real
  grant/release events and busy-time accounting.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from .core import NORMAL, PARKED, Event, SimulationError, Simulator, Wake

__all__ = ["FcfsResource", "Lock", "Resource", "Request"]


class FcfsResource:
    """A single-unit FCFS server modelled with busy-until time.

    ``yield res.hold(d)`` has exactly the timing of::

        with resource.request() as req:   # capacity-1 Resource
            yield req
            yield sim.sleep(d)

    A hold starts at ``max(now, busy_until)``, ends at ``start + d`` and
    returns one :meth:`Simulator.sleep_until` wake at that absolute end
    time — no request event, no grant, no release and one generator
    resumption instead of two.  Work is committed the moment
    :meth:`hold` is called, so a hold can be neither interrupted nor
    cancelled; use a :class:`Lock` or :class:`Resource` for claims that
    need either.

    :meth:`busy_time` matches :class:`Resource`'s accounting bit for bit:
    the durations of completed holds are summed in FIFO order, then the
    elapsed part of the hold in progress is added.
    """

    __slots__ = ("sim", "_busy_until", "_busy_time", "_holds")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._busy_until = sim.now
        self._busy_time = 0.0
        #: ``(start, end)`` of holds not yet folded into ``_busy_time``.
        self._holds: Deque[Tuple[float, float]] = deque()

    def hold(self, duration: float) -> Any:
        """Queue ``duration`` seconds of service; yield the returned token.

        It fires when the service completes.  Like
        :meth:`Simulator.sleep`, it must be yielded immediately.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration {duration!r}")
        sim = self.sim
        now = sim._now
        holds = self._holds
        if holds and holds[0][1] <= now:
            self._fold(now)
        start = self._busy_until
        if start < now:
            start = now
        end = start + duration
        self._busy_until = end
        holds.append((start, end))
        return sim.sleep_until(end)

    def busy_time(self) -> float:
        """Cumulative busy seconds up to the current instant."""
        now = self.sim.now
        self._fold(now)
        holds = self._holds
        if holds and holds[0][0] < now:
            return self._busy_time + (now - holds[0][0])
        return self._busy_time

    def _fold(self, now: float) -> None:
        """Add completed holds to the total, oldest first."""
        holds = self._holds
        while holds and holds[0][1] <= now:
            start, end = holds.popleft()
            self._busy_time += end - start


class Request(Event):
    """A pending claim on a :class:`Resource`; usable as a context manager.

    Also the traced form of a :class:`Lock` grant.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: Any) -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (used on interrupt)."""
        self.resource.release(self)


class Lock:
    """A FIFO mutual-exclusion lock whose grants wake the waiter directly.

    ``yield lock.acquire()`` ... ``lock.release()``, from a running
    process, has exactly the timing of a capacity-1 :class:`Resource`
    claim: a grant resumes the waiter at ``(now, NORMAL)``, the key
    ``Request.succeed()`` gets at grant time.  The grant is the process's
    own :class:`~repro.sim.core.Wake` (a real :class:`Request` while a
    tracer is attached), so there is no request event and no busy-time
    accounting.  The token must be yielded immediately.  A waiter
    interrupted while queued is withdrawn and never granted; one
    interrupted after its grant was scheduled holds the lock.
    """

    __slots__ = ("sim", "_locked", "_waiters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._locked = False
        self._waiters: Deque[Wake] = deque()

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._locked

    def acquire(self) -> Any:
        """Claim the lock; yield the returned token to wait for the grant."""
        process = self.sim._active_process
        if process is None:
            raise SimulationError("Lock.acquire() outside a process")
        wake = process._wake
        if wake.seq:
            raise SimulationError(f"{process!r} acquired with a wake pending")
        if not self._locked:
            self._locked = True
            return self._grant(wake)
        wake.seq = PARKED
        wake.queue = self._waiters
        self._waiters.append(wake)
        return wake

    def release(self) -> None:
        """Release the lock (its holder calls this); grant the next waiter."""
        if not self._locked:
            raise SimulationError("Lock.release() of an unlocked lock")
        if self._waiters:
            wake = self._waiters.popleft()
            wake.queue = None
            self._grant(wake)
        else:
            self._locked = False

    def _grant(self, wake: Wake) -> Any:
        """Resume ``wake``'s process at ``(now, NORMAL)``; return the token."""
        sim = self.sim
        if sim._tracer is None:
            wake.seq = sim._schedule_at(wake, sim._now, NORMAL)
            return wake
        request = Request(self)
        if wake.seq == PARKED:
            # Hand the queued waiter over to the event, as if it had
            # yielded the event itself (so an interrupt detaches it).
            wake.seq = 0
            process = wake.process
            process._target = request
            request.callbacks.append(process._resume)
        request.succeed()
        return request


class Resource:
    """A counted resource with FIFO queueing.

    Usage::

        with resource.request() as req:
            yield req
            yield sim.timeout(work)

    Utilisation accounting: the resource records total busy time (summed
    over units in use), which :class:`repro.metrics.iostat.IostatSampler`
    turns into an iostat-style utilisation percentage.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        self._busy_time = 0.0
        self._last_change = sim.now

    # -- accounting ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Cumulative unit-seconds of use up to the current instant."""
        return self._busy_time + self.count * (self.sim.now - self._last_change)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self.count * (now - self._last_change)
        self._last_change = now

    # -- protocol -----------------------------------------------------------

    def request(self) -> Request:
        """Queue a claim for one unit; the returned event triggers on grant."""
        request = Request(self)
        self._queue.append(request)
        self._grant()
        return request

    def release(self, request: Request) -> None:
        """Return a unit (or withdraw an un-granted request)."""
        if request in self._users:
            self._account()
            self._users.remove(request)
            self._grant()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # releasing twice is a no-op

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._account()
            self._users.append(request)
            request.succeed()

