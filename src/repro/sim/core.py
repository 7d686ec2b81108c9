"""Discrete-event simulation kernel: events and the simulator loop.

This module provides the event machinery used by every other subsystem in
the reproduction.  It is deliberately simpy-like (generator-based processes
yield events and are resumed when those events trigger) but implemented from
scratch so the repository has no third-party runtime dependencies.

Determinism: events scheduled for the same simulated time are processed in
(priority, insertion-order) order, so a run is exactly reproducible given
the same seed and the same sequence of API calls.

The queue is one binary heap of ``(time, priority, seq, obj)`` tuples.
The ``(time, priority, seq)`` prefix is unique, so tuple comparison never
reaches ``obj``.  Every way of running — :meth:`Simulator.run` to
exhaustion, up to a time or until an event triggers, and
:meth:`Simulator.step` — goes through one dispatch loop,
:meth:`Simulator._loop`.

Allocation avoidance on the hot path:

* :meth:`Simulator.call_later` schedules a plain function through a pooled
  :class:`Callback` entry — no :class:`Event`, no callbacks list, no
  generator resumption.
* *Direct wakes*: every process owns one :class:`Wake` queue entry.
  :meth:`Simulator.sleep`, :meth:`Simulator.sleep_until` (the busy-until
  servers' completions), the process start and
  :class:`~repro.sim.resources.Lock` grants enqueue that entry at the
  ``(time, priority, seq)`` key their event would have had and hand it
  to the process to yield; popping it resumes the generator with no
  event object, callbacks list or bound method.  A wake whose ``seq`` no
  longer matches the popped entry (its process was interrupted) resumes
  nobody, but still advances the clock, as any orphaned timer does.

Both fall back to real events (a :class:`Timeout`, the start
:class:`Event`, a lock's ``Request``) while an
:class:`~repro.sim.tracing.EventTracer` is attached, so traced runs keep
seeing the event kinds they always did; a sleep outside a process is a
:class:`Timeout` too.

Cancelled entries are discarded lazily when they surface, and the queue is
compacted outright once cancelled entries outnumber live ones (mirroring
the cache heap's ``note_expiry_update`` compaction), so long-lived runs
with many abandoned reply timers keep a bounded queue.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Union

__all__ = [
    "Event",
    "Timeout",
    "Callback",
    "Wake",
    "Simulator",
    "SimulationError",
    "Interrupt",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for interrupt-style events (processed before NORMAL
#: events scheduled for the same simulated time).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Sentinel for "event has not been given a value yet".
_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupting cause is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt` (may be ``None``)."""
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait for.

    An event goes through three states: *pending* (created, not triggered),
    *triggered* (given a value or an exception, scheduled on the event
    queue) and *processed* (popped from the queue; its callbacks have run).
    Processes wait on an event by ``yield``-ing it; they are resumed with
    the event's value, or have the event's exception thrown into them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks to run when the event is processed.  ``None`` once the
        #: event has been processed (this doubles as the "processed" flag).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised at the end of the simulation unless some
        waiter handles it (waiting on a failed event *defuses* it).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.sim._enqueue(self, NORMAL)

    def defuse(self) -> None:
        """Mark the event as handled so its failure cannot crash the loop.

        A failed event whose exception no waiter consumes is re-raised
        out of :meth:`Simulator.run`.  Supervisors that learn of a
        failure through another channel (e.g. a condition that already
        failed) call this on the remaining events they were watching so
        late failures do not take down the whole simulation.  Safe to
        call before or after the event triggers.
        """
        self._defused = True

    def cancel(self) -> None:
        """Make a scheduled-but-unprocessed event inert.

        A cancelled event never runs its callbacks and — importantly —
        does not advance the simulation clock when its queue slot drains.
        Used to retire abandoned timers (e.g. a reply timeout after the
        reply arrived) so ``run()`` does not idle the clock forward.
        """
        if self.processed:
            raise SimulationError("cannot cancel a processed event")
        self._cancelled = True
        self.callbacks = None
        self.sim._note_cancel()

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


# The return annotation of __and__/__or__ (AllOf/AnyOf are Events).
Condition = Event


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._enqueue(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


#: ``Wake.seq`` of a process queued on a lock, with no entry scheduled.
PARKED = -1


class Wake:
    """A process's own queue entry: resuming it needs no event object.

    Each :class:`~repro.sim.process.Process` owns exactly one.  A wake is
    *armed* by scheduling it (``seq`` is then the sequence number of its
    one live queue entry) or by parking it on a lock's FIFO (``seq`` is
    :data:`PARKED` and ``queue`` is that FIFO); the process then yields
    it, and only its own process may.  A process arms at most one wake
    before yielding it, and yields nothing else while one is armed.
    """

    __slots__ = ("process", "seq", "queue")

    #: Never cancelled: an orphaned wake is retired by ``seq`` instead.
    _cancelled = False

    def __init__(self, process) -> None:
        self.process = process
        #: Sequence number of the live entry, PARKED, or 0 when unarmed.
        self.seq = 0
        #: The FIFO this wake is parked in, if any.
        self.queue = None

    def __repr__(self) -> str:
        return f"<Wake of {self.process!r}>"


class Callback:
    """A pooled queue entry that runs a plain function — no Event at all.

    This is the zero-allocation fast path for fire-and-forget timers
    (message delivery, cache-hit completion).  The handle supports
    :meth:`cancel` but nothing else; it is recycled after firing, so it
    must not be retained (and in particular not cancelled) once its
    scheduled time has passed.
    """

    __slots__ = ("sim", "fn", "args", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.fn: Optional[Callable[..., None]] = None
        self.args: tuple = ()
        self._cancelled = False

    def cancel(self) -> None:
        """Make the pending callback inert (same contract as Event.cancel)."""
        if not self._cancelled:
            self._cancelled = True
            self.fn = None
            self.args = ()
            self.sim._note_cancel()

    def __repr__(self) -> str:
        return f"<Callback {getattr(self.fn, '__name__', None)}>"


#: Cap on each free list so a one-off burst cannot pin memory forever.
_POOL_LIMIT = 1024

#: Compact the queue once this many cancelled entries accumulate *and*
#: they outnumber the live entries (see Simulator._note_cancel).
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            print("done at", sim.now)

        sim.process(worker(sim))
        sim.run()

    Args:
        start_time: initial simulated time.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._active_process = None
        #: Optional EventTracer (see repro.sim.tracing).
        self._tracer = None
        #: The event queue: a heap of (time, priority, seq, obj) entries.
        #: Only ever mutated in place, so a running _loop's reference to
        #: it stays valid across _compact.
        self._queue: List[tuple] = []
        #: Cancelled entries still occupying queue slots.
        self._cancelled_queued = 0
        #: Free list of Callback entries.
        self._cb_pool: List[Callback] = []

    # -- inspection -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def queue_depth(self) -> int:
        """Entries currently occupying queue slots (cancelled included)."""
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``float('inf')``."""
        entry = self._peek_live()
        return entry[0] if entry is not None else _INF

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Any:
        """Wake token for ``yield sim.sleep(delta)``.

        Same queue behaviour as ``sim.timeout(delay)`` (one entry, same
        priority, same insertion order), but called from a running
        process it enqueues that process's own :class:`Wake` instead of
        an event.  The token must be yielded immediately and never
        stored, composed or cancelled.  Outside a process, or while a
        tracer is attached, it is a real :class:`Timeout`.
        """
        if delay < 0:
            raise ValueError(f"negative sleep delay {delay!r}")
        return self.sleep_until(self._now + delay)

    def sleep_until(self, when: float) -> Any:
        """Wake token firing at the absolute time ``when``.

        The absolute-time twin of :meth:`sleep`, with the same contract.
        Callers that compute an end time by arithmetic (see
        :class:`~repro.sim.resources.FcfsResource`) schedule it exactly,
        without the rounding of ``now + (when - now)``.  The fallback
        :class:`Timeout` is enqueued at ``when`` too.
        """
        if when < self._now:
            raise ValueError(
                f"sleep_until({when!r}) is in the past (now={self._now!r})"
            )
        process = self._active_process
        if process is None or self._tracer is not None:
            event = Timeout.__new__(Timeout)
            Event.__init__(event, self)
            event.delay = when - self._now
            event._value = None
            self._schedule_at(event, when, NORMAL)
            return event
        wake = process._wake
        if wake.seq:
            raise SimulationError(f"{process!r} slept twice before one yield")
        wake.seq = self._schedule_at(wake, when, NORMAL)
        return wake

    def process(self, generator) -> "Process":
        """Start a new generator :class:`Process`."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that triggers when all ``events`` have succeeded."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that triggers when any of ``events`` triggers."""
        return AnyOf(self, list(events))

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, event: Event, priority: int, delay: float = 0.0) -> None:
        """Put a triggered event on the queue, ``delay`` seconds from now."""
        self._schedule_at(event, self._now + delay, priority)

    def _schedule_at(self, obj: Any, when: float, priority: int) -> int:
        """Enqueue ``obj`` at the absolute time ``when``; return its seq."""
        self._seq += 1
        seq = self._seq
        heappush(self._queue, (when, priority, seq, obj))
        return seq

    def call_later(self, delay: float, fn: Callable[..., None], *args) -> Any:
        """Schedule ``fn(*args)`` after ``delay`` seconds — the fast path.

        Uses a pooled :class:`Callback` queue entry: no :class:`Event`
        construction, no callbacks list, no generator resumption.  Returns
        a handle supporting ``cancel()``; the handle is recycled after the
        callback fires and must not be retained past that point.  Falls
        back to a :class:`Timeout` event while a tracer is attached (the
        handle still supports ``cancel()``).
        """
        if self._tracer is not None:
            event = Timeout(self, delay)
            event.callbacks.append(lambda _evt, fn=fn, args=args: fn(*args))
            return event
        if delay < 0:
            raise ValueError(f"negative callback delay {delay!r}")
        pool = self._cb_pool
        if pool:
            cb = pool.pop()
            cb._cancelled = False
        else:
            cb = Callback(self)
        cb.fn = fn
        cb.args = args
        self._schedule_at(cb, self._now + delay, NORMAL)
        return cb

    def schedule_callback(self, delay: float, callback: Callable[[], None]) -> Any:
        """Schedule a plain callable to run after ``delay`` seconds.

        Convenience wrapper used by non-process components (e.g. the network
        fabric delivering messages).  Returns a cancellable handle (see
        :meth:`call_later`).
        """
        return self.call_later(delay, callback)

    # -- queue internals ---------------------------------------------------

    def _peek_live(self) -> Optional[tuple]:
        """Next live entry (discarding cancelled heads), or ``None``."""
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heappop(queue)
            self._cancelled_queued -= 1
        return queue[0] if queue else None

    def _note_cancel(self) -> None:
        """Bookkeeping hook for Event/Callback.cancel: maybe compact.

        Threshold-based compaction (mirroring the cache heap's
        ``note_expiry_update`` compaction): once cancelled entries pass a
        floor *and* outnumber live ones, rebuild the queue without them so
        abandoned reply timers cannot grow it unboundedly.
        """
        self._cancelled_queued += 1
        if (
            self._cancelled_queued > _COMPACT_MIN_CANCELLED
            and self._cancelled_queued * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the queue, in place."""
        queue = self._queue
        # Slice assignment keeps the list object a running _loop holds;
        # entries keep their (time, priority, seq) keys, so the processing
        # order is unchanged.
        queue[:] = [entry for entry in queue if not entry[3]._cancelled]
        heapify(queue)
        self._cancelled_queued = 0

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next live entry.

        Raises :class:`IndexError` if the queue is empty and re-raises any
        un-defused event failure.
        """
        if self._peek_live() is None:
            raise IndexError("step on an empty event queue")
        self._loop(Event(self), _INF, True)

    def run(self, until: Union[float, Event, None] = None) -> None:
        """Run until the queue is exhausted or ``until`` is reached.

        ``until`` may be:

        * ``None``: run until the queue is empty;
        * a time: process everything scheduled up to it, then advance the
          clock exactly to ``until``, even when no event is scheduled then;
        * an :class:`Event`, such as a process: run until it triggers (a
          process triggers when it returns or raises; a :class:`Timeout`
          has its value from creation, so it counts as triggered at
          once).  If the queue runs dry first, this returns with the
          event still pending; callers check ``until.triggered``.

        :meth:`stop` ends any form early, leaving the clock where it is.
        """
        horizon = _INF
        if isinstance(until, Event):
            stop = until
        else:
            # A fresh event nobody triggers: only the horizon or an empty
            # queue ends the loop.
            stop = Event(self)
            if until is not None:
                if until < self._now:
                    raise ValueError(
                        f"until={until!r} is in the past (now={self._now!r})"
                    )
                horizon = until
        try:
            self._loop(stop, horizon, False)
        except StopSimulation:
            return
        if until is not None and stop is not until:
            self._now = max(self._now, until)

    def _loop(self, stop: Event, horizon: float, once: bool) -> None:
        """The one dispatch loop behind :meth:`run` and :meth:`step`.

        Pops entries until the queue is empty, ``stop`` has triggered, the
        next live entry lies beyond ``horizon`` or, when ``once``, one
        live entry has been dispatched.  Dispatch is inline: a
        :class:`Wake` resumes its process, a :class:`Callback` runs its
        function and an :class:`Event` runs its callbacks; an attached
        tracer observes each one.
        """
        queue = self._queue
        pool = self._cb_pool
        while queue and stop._value is _PENDING:
            entry = heappop(queue)
            obj = entry[3]
            if obj._cancelled:
                self._cancelled_queued -= 1
                continue
            now = entry[0]
            if now > horizon:
                heappush(queue, entry)
                return
            self._now = now
            if self._tracer is not None:
                self._tracer.observe(now, obj)
            kind = type(obj)
            if kind is Wake:
                # Resume the owning process, unless it was orphaned
                # (interrupted or terminated) since the wake was armed.
                if obj.seq == entry[2]:
                    obj.seq = 0
                    obj.process._drive(True, None)
            elif kind is Callback:
                fn = obj.fn
                args = obj.args
                obj.fn = None
                obj.args = ()
                if len(pool) < _POOL_LIMIT:
                    pool.append(obj)
                fn(*args)
            else:
                callbacks, obj.callbacks = obj.callbacks, None
                for callback in callbacks:
                    callback(obj)
                if not obj._ok and not obj._defused:
                    exc = obj._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise SimulationError(
                        f"event failed with non-exception {exc!r}"
                    )
            if once:
                return

    def stop(self) -> None:
        """Stop :meth:`run` from inside a callback or process."""
        raise StopSimulation()


# Imported last, once: process.py builds on the classes above, and a
# function-level import would cost a module lookup per process start.
from .process import AllOf, AnyOf, Process  # noqa: E402
