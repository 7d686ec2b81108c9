"""Generator-based processes and condition events for the sim kernel.

A *process* wraps a Python generator.  The generator yields
:class:`~repro.sim.core.Event` instances; the process is suspended until the
yielded event triggers, at which point the generator is resumed with the
event's value (or the event's exception is thrown into it).

Processes are themselves events, so one process can wait for another simply
by yielding it (a *join*).

A process can also be resumed by its own :class:`~repro.sim.core.Wake`
queue entry, with no event at all: its start, ``sim.sleep``/
``sim.sleep_until`` and :class:`~repro.sim.resources.Lock` grants work
that way (see :mod:`repro.sim.core`).  Event callbacks and wakes drive
the generator through the same loop, :meth:`Process._drive`.  An
interrupt orphans a pending wake; a terminating process orphans it too
and drops the wake's back-reference, so a finished process is freed by
reference counting rather than by the cycle collector.

When termination is observed: a process that returns while something
waits on it (a joiner or a condition), or while an
:class:`~repro.sim.tracing.EventTracer` is attached, is enqueued at URGENT
priority and its waiters run in that step, as for any event.  A process
that returns with nobody waiting is marked processed on the spot: its
termination step would run no callbacks, so it is skipped, and a later
join consumes the return value immediately.  A process that raises is
always enqueued, so an exception nobody handles still escapes
:meth:`~repro.sim.core.Simulator.run` at the time it happened.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from .core import URGENT, Event, Interrupt, SimulationError, Simulator, Wake

__all__ = ["Process", "AllOf", "AnyOf", "ConditionValue"]


class _InterruptEvent(Event):
    """Internal high-priority event carrying an Interrupt into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.sim)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._resume)
        self.sim._enqueue(self, URGENT)


class Process(Event):
    """A running generator; triggers when the generator terminates.

    The process event succeeds with the generator's return value, or fails
    with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target", "_wake")

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        #: The event (or this process's wake) it is currently waiting on.
        self._target: Optional[Any] = None
        self._wake = wake = Wake(self)
        # Start at URGENT priority so that construction order does not
        # matter within a time step.
        if sim._tracer is None:
            wake.seq = sim._schedule_at(wake, sim._now, URGENT)
        else:
            start = Event(sim)
            start._ok = True
            start._value = None
            start.callbacks.append(self._resume)
            sim._enqueue(start, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Any]:
        """The event (or wake token) this process is waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is detached from whatever it was waiting on: an event
        stays valid and may still be waited on again afterwards; a
        pending wake is orphaned, and a wait in a lock's queue is
        withdrawn.  Interrupting a terminated process is an error.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        _InterruptEvent(self, cause)

    # -- engine ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Event callback: resume the generator with ``event``'s outcome."""
        if self.triggered:
            # Process already finished (e.g. an interrupt raced its
            # termination); nothing to resume.
            return
        # Detach from the previous target (relevant for interrupts).
        target = self._target
        if target is self._wake:
            self._orphan()
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        if event._ok:
            self._drive(True, event._value)
        else:
            event._defused = True
            self._drive(False, event._value)

    def _orphan(self) -> None:
        """Disarm the wake: a scheduled entry resumes nobody, a parked one
        leaves its queue."""
        wake = self._wake
        if wake.queue is not None:
            wake.queue.remove(wake)
            wake.queue = None
        wake.seq = 0

    def _drive(self, ok: bool, value: Any) -> None:
        """Send ``value`` (or throw it, if not ``ok``) into the generator
        and run it to its next wait."""
        sim = self.sim
        wake = self._wake
        generator = self._generator
        self._target = None
        sim._active_process = self
        try:
            while True:
                if ok:
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
                if target is wake:
                    if not wake.seq:
                        raise SimulationError(f"{self!r} yielded a spent wake")
                    self._target = wake
                    return
                if wake.seq or not isinstance(target, Event):
                    # A non-event, another process's wake, or an event
                    # while this process's own wake is armed.
                    armed = " with its wake armed" if wake.seq else ""
                    raise SimulationError(f"{self!r} yielded {target!r}{armed}")
                if target.callbacks is None:
                    # Already processed: consume its value immediately.
                    ok = target._ok
                    value = target._value
                    if not ok:
                        target._defused = True
                    continue
                target.callbacks.append(self._resume)
                self._target = target
                return
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self._retire()
            if self.callbacks or sim._tracer is not None:
                sim._enqueue(self, URGENT)
            else:
                # Nobody waits: the termination step would run nothing.
                self.callbacks = None
        except BaseException as exc:  # noqa: BLE001 - propagated via event
            self._ok = False
            self._value = exc
            self._retire()
            sim._enqueue(self, URGENT)
        finally:
            sim._active_process = None

    def _retire(self) -> None:
        """On termination: orphan any armed wake and break the cycle."""
        wake = self._wake
        if wake.seq:
            self._orphan()
        wake.process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name}>"


class ConditionValue:
    """Ordered mapping of child events to values for condition events."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        """Return a plain ``{event: value}`` dict."""
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on children, applies an evaluator."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: Simulator, events: List[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self._events:
            self.succeed(ConditionValue())
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _evaluate(self, count: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            # The condition has already resolved (e.g. another child
            # failed it): absorb this child's failure so it does not
            # escape the simulator loop with nobody left to handle it.
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._count):
            value = ConditionValue()
            for child in self._events:
                # A child counts as "done" only once processed; Timeouts are
                # value-triggered at construction, so `triggered` would be
                # wrong here.
                if child.processed and child._ok:
                    value.events.append(child)
            self.succeed(value)


class AllOf(_Condition):
    """Triggers once every child event has succeeded."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count == len(self._events)


class AnyOf(_Condition):
    """Triggers as soon as any child event succeeds (or fails)."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count >= 1
