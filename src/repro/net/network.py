"""The network fabric: registration, delivery, failures and partitions.

Delivery semantics model a TCP connection at the granularity the paper
cares about:

* A send to a reachable, live node is delivered after the latency model's
  one-way delay; its outcome (the event :meth:`Network.send` returns, or
  the sender's ``notify`` callback) succeeds at the moment of delivery
  (the sender can treat that as "the TCP send completed").
* A send to a down node or across a partition fails with
  :class:`Unreachable` after ``connect_timeout`` seconds, mirroring a
  refused/timed-out connection.  Fire-and-forget senders
  (``wait=False``) get no outcome at all, so a failure never crashes the
  run.
* A crashed *sender* cannot transmit either: its sends fail the same way,
  so a process that outlives its host (e.g. an invalidation fan-out whose
  server died mid-loop) retries instead of teleporting messages.
* Reachability is also re-checked at delivery time, so a node that dies (or
  a partition that forms) while a message is in flight loses the message.

Chaos extensions:

* Partitions are individually removable: :meth:`Network.partition` returns
  a handle, and :meth:`Network.heal` takes an optional handle so
  overlapping partition faults heal independently.
* Per-link faults (:class:`LinkFault`): seeded probabilistic message loss
  and duplication plus latency spikes/jitter (which reorder messages) on a
  directed ``src -> dst`` link, with ``"*"`` wildcards.  Losses are
  recorded with a reason so chaos reports can reconcile sent vs delivered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from ..sim import Event, Simulator
from .latency import LanModel, LatencyModel
from .message import Address, Message
from .stats import NetworkStats

__all__ = ["Network", "Unreachable", "LinkFault"]


class Unreachable(Exception):
    """Raised (via the send event) when a message cannot be delivered."""

    def __init__(self, message: Message, reason: str) -> None:
        super().__init__(f"{message!r} undeliverable: {reason}")
        self.message = message
        self.reason = reason


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic misbehaviour injected on one directed link.

    Attributes:
        drop_prob: probability a message on the link is silently lost
            (the sender sees a connect-timeout failure, like a TCP send
            that never got its ACK; reliable channels retry).
        dup_prob: probability a delivered message is delivered twice
            (receivers must be idempotent).
        extra_delay: fixed latency spike added to every message.
        jitter: uniform [0, jitter] extra seconds per message; enough
            jitter reorders back-to-back messages.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0 or not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError("probabilities must be within [0, 1]")
        if self.extra_delay < 0 or self.jitter < 0:
            raise ValueError("extra_delay and jitter must be non-negative")


class Network:
    """Connects registered nodes and moves :class:`Message`s between them."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        stats: Optional[NetworkStats] = None,
        connect_timeout: float = 3.0,
    ) -> None:
        self.sim = sim
        self.latency = latency or LanModel()
        self.stats = stats or NetworkStats()
        self.connect_timeout = connect_timeout
        self._handlers: Dict[Address, Callable[[Message], None]] = {}
        self._down: Set[Address] = set()
        self._partitions: Dict[int, Tuple[frozenset, frozenset]] = {}
        self._partition_seq = 0
        # (src, dst) -> (LinkFault, rng); "*" acts as a wildcard side.
        self._link_faults: Dict[Tuple[Address, Address],
                                Tuple[LinkFault, random.Random]] = {}

    # -- topology -----------------------------------------------------------

    def register(self, address: Address, handler: Callable[[Message], None]) -> None:
        """Attach a node; ``handler(message)`` runs at each delivery."""
        if address in self._handlers:
            raise ValueError(f"address {address!r} already registered")
        self._handlers[address] = handler

    def unregister(self, address: Address) -> None:
        """Detach a node entirely (it becomes unknown, not merely down)."""
        self._handlers.pop(address, None)

    @property
    def addresses(self) -> Tuple[Address, ...]:
        """All registered addresses."""
        return tuple(self._handlers)

    # -- failures -----------------------------------------------------------

    def set_down(self, address: Address) -> None:
        """Mark a node as crashed; sends to it fail until :meth:`set_up`."""
        self._down.add(address)

    def set_up(self, address: Address) -> None:
        """Bring a crashed node back."""
        self._down.discard(address)

    def is_up(self, address: Address) -> bool:
        """True when the node is registered and not crashed."""
        return address in self._handlers and address not in self._down

    def partition(
        self, group_a: Iterable[Address], group_b: Iterable[Address]
    ) -> int:
        """Cut connectivity between every pair across the two groups.

        Returns a handle that :meth:`heal` accepts, so overlapping
        partitions (chaos schedules) can be removed independently.
        """
        self._partition_seq += 1
        self._partitions[self._partition_seq] = (
            frozenset(group_a),
            frozenset(group_b),
        )
        return self._partition_seq

    def heal(self, handle: Optional[int] = None) -> None:
        """Remove one partition (by handle) or all of them (no handle)."""
        if handle is None:
            self._partitions.clear()
        else:
            self._partitions.pop(handle, None)

    def is_reachable(self, src: Address, dst: Address) -> bool:
        """True when no partition separates ``src`` from ``dst``."""
        for group_a, group_b in self._partitions.values():
            if (src in group_a and dst in group_b) or (
                src in group_b and dst in group_a
            ):
                return False
        return True

    # -- link faults ---------------------------------------------------------

    def set_link_fault(
        self,
        src: Address,
        dst: Address,
        fault: LinkFault,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Install a :class:`LinkFault` on the directed ``src -> dst`` link.

        ``"*"`` on either side matches any address.  Replaces any fault
        already installed on the same (src, dst) pair.
        """
        self._link_faults[(src, dst)] = (fault, rng or random.Random(0))

    def clear_link_fault(self, src: Address, dst: Address) -> None:
        """Remove the fault installed on the directed ``src -> dst`` link."""
        self._link_faults.pop((src, dst), None)

    def _fault_for(
        self, src: Address, dst: Address
    ) -> Optional[Tuple[LinkFault, random.Random]]:
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            hit = self._link_faults.get(key)
            if hit is not None:
                return hit
        return None

    # -- transport ------------------------------------------------------------

    def send(
        self,
        message: Message,
        wait: bool = True,
        notify: Optional[Callable[[Message, Optional[Unreachable]], None]] = None,
    ) -> Optional[Event]:
        """Send a message and report its outcome.

        The outcome is known at delivery time, or after the connect
        timeout when the destination cannot be reached.  It is reported
        in one of three ways:

        * ``notify(message, None)`` on delivery (before the receiver's
          handler runs), or ``notify(message, Unreachable(...))`` on
          failure, when ``notify`` is given; ``send`` returns ``None``.
        * Otherwise, with ``wait=True``, through the returned event: it
          succeeds with the message or fails with :class:`Unreachable`.
          The failure is pre-defused, so a sender that stops waiting is
          not crashed by it (the channel layer is the place for retries).
        * With ``wait=False`` the caller discards the outcome
          (fire-and-forget) and ``send`` returns ``None``.

        Every leg is one pooled :meth:`~repro.sim.Simulator.call_later`
        entry running a bound method of this network; stats, link faults
        and the delivery-time reachability re-check are the same for all
        three forms.
        """
        outcome = None
        if notify is None and wait:
            notify = outcome = _SendOutcome(self.sim)
        call_later = self.sim.call_later
        refused = None
        if message.dst not in self._handlers:
            refused = "unknown address"
        elif (
            message.src in self._down
            or message.dst in self._down
            or not self.is_reachable(message.src, message.dst)
        ):
            refused = "host unreachable"
        if refused is not None:
            call_later(
                self.connect_timeout, self._fail, message, refused, False, notify
            )
            return outcome

        fault_hit = (
            self._fault_for(message.src, message.dst) if self._link_faults else None
        )
        self.stats.record_send(message)
        delay = self.latency.delay(message)
        duplicate_delay: Optional[float] = None
        if fault_hit is not None:
            fault, rng = fault_hit
            if fault.drop_prob > 0 and rng.random() < fault.drop_prob:
                # The segment vanished: the sender times out waiting for
                # the ACK, exactly like a connect failure, but the loss is
                # recorded as such for sent-vs-delivered reconciliation.
                call_later(
                    self.connect_timeout, self._fail, message,
                    "link fault", True, notify,
                )
                return outcome
            delay += fault.extra_delay
            if fault.jitter > 0:
                delay += rng.uniform(0.0, fault.jitter)
            if fault.dup_prob > 0 and rng.random() < fault.dup_prob:
                duplicate_delay = fault.extra_delay + self.latency.delay(message)
                if fault.jitter > 0:
                    duplicate_delay += rng.uniform(0.0, fault.jitter)

        call_later(delay, self._deliver, message, notify)
        if duplicate_delay is not None:
            call_later(duplicate_delay, self._deliver_duplicate, message)
        return outcome

    def _fail(self, message: Message, reason: str, lost: bool, notify) -> None:
        """Connect-timeout leg: the send never reached its destination."""
        if lost:
            self.stats.record_loss(message, reason)
        else:
            self.stats.record_drop(message)
        if notify is not None:
            notify(message, Unreachable(message, reason))

    def _in_flight_loss(self, message: Message) -> Optional[str]:
        """Why a message in flight can no longer land (``None``: it can)."""
        if message.dst in self._down:
            return "destination died in flight"
        if self._partitions and not self.is_reachable(message.src, message.dst):
            return "partition formed in flight"
        return None

    def _deliver(self, message: Message, notify) -> None:
        """Delivery leg, re-checking reachability at delivery time."""
        # The destination may have crashed or been partitioned away while
        # the message was in flight.
        reason = self._in_flight_loss(message)
        if reason is not None:
            self.stats.record_loss(message, reason)
            if notify is not None:
                notify(message, Unreachable(message, "lost in flight"))
            return
        self.stats.record_delivery(message)
        if notify is not None:
            notify(message, None)
        self._handlers[message.dst](message)

    def _deliver_duplicate(self, message: Message) -> None:
        """A link fault's extra copy; it vanishes silently if it cannot land."""
        if self._in_flight_loss(message) is not None:
            return
        self.stats.record_duplicate(message)
        self._handlers[message.dst](message)


class _SendOutcome(Event):
    """The event :meth:`Network.send` returns; it is its own ``notify``."""

    __slots__ = ()

    def __call__(self, message: Message, error: Optional[Unreachable]) -> None:
        if error is None:
            self.succeed(message)
        else:
            self._defused = True
            self.fail(error)
