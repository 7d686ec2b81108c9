"""Unit tests for the network fabric: delivery, failures, partitions."""

import random

import pytest

from repro.net import FixedLatency, LinkFault, Message, Network, Unreachable
from repro.sim import Simulator


def make_net(latency=0.0, connect_timeout=3.0):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(latency), connect_timeout=connect_timeout)
    return sim, net


def test_register_and_deliver():
    sim, net = make_net(latency=1.0)
    inbox = []
    net.register("b", inbox.append)
    net.send(Message(src="a", dst="b", size=100))
    sim.run()
    assert len(inbox) == 1
    assert inbox[0].src == "a"
    assert sim.now == 1.0


def test_duplicate_registration_rejected():
    sim, net = make_net()
    net.register("x", lambda m: None)
    with pytest.raises(ValueError):
        net.register("x", lambda m: None)


def test_send_event_succeeds_at_delivery_time():
    sim, net = make_net(latency=2.0)
    net.register("b", lambda m: None)
    times = []

    def sender(sim):
        msg = Message(src="a", dst="b", size=10)
        delivered = yield net.send(msg)
        times.append((sim.now, delivered is msg))

    sim.process(sender(sim))
    sim.run()
    assert times == [(2.0, True)]


def test_send_to_unknown_address_fails_after_timeout():
    sim, net = make_net(connect_timeout=3.0)
    outcomes = []

    def sender(sim):
        try:
            yield net.send(Message(src="a", dst="ghost", size=10))
        except Unreachable as exc:
            outcomes.append((sim.now, exc.reason))

    sim.process(sender(sim))
    sim.run()
    assert outcomes == [(3.0, "unknown address")]


def test_fire_and_forget_failure_does_not_crash_run():
    sim, net = make_net()
    net.send(Message(src="a", dst="ghost", size=10))
    sim.run()  # must not raise
    assert net.stats.total_dropped == 1


def test_send_to_down_node_fails():
    sim, net = make_net()
    net.register("b", lambda m: None)
    net.set_down("b")
    failures = []

    def sender(sim):
        try:
            yield net.send(Message(src="a", dst="b", size=10))
        except Unreachable:
            failures.append(sim.now)

    sim.process(sender(sim))
    sim.run()
    assert failures == [3.0]
    assert not net.is_up("b")


def test_node_recovery_restores_delivery():
    sim, net = make_net()
    inbox = []
    net.register("b", inbox.append)
    net.set_down("b")
    net.set_up("b")
    net.send(Message(src="a", dst="b", size=10))
    sim.run()
    assert len(inbox) == 1
    assert net.is_up("b")


def test_partition_blocks_both_directions():
    sim, net = make_net()
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.partition({"a"}, {"b"})
    assert not net.is_reachable("a", "b")
    assert not net.is_reachable("b", "a")
    net.send(Message(src="a", dst="b", size=10))
    net.send(Message(src="b", dst="a", size=10))
    sim.run()
    assert net.stats.total_dropped == 2
    assert net.stats.total_messages == 0


def test_partition_leaves_other_pairs_connected():
    sim, net = make_net()
    inbox = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.register("c", inbox.append)
    net.partition({"a"}, {"b"})
    assert net.is_reachable("a", "c")
    net.send(Message(src="a", dst="c", size=10))
    sim.run()
    assert len(inbox) == 1


def test_heal_restores_connectivity():
    sim, net = make_net()
    inbox = []
    net.register("a", lambda m: None)
    net.register("b", inbox.append)
    net.partition({"a"}, {"b"})
    net.heal()
    net.send(Message(src="a", dst="b", size=10))
    sim.run()
    assert len(inbox) == 1


def test_message_lost_in_flight_when_dst_dies():
    sim, net = make_net(latency=5.0)
    inbox = []
    net.register("b", inbox.append)
    net.send(Message(src="a", dst="b", size=10))
    sim.schedule_callback(1.0, lambda: net.set_down("b"))
    sim.run()
    assert inbox == []
    assert net.stats.total_dropped == 1


def test_stats_account_messages_and_bytes_by_category():
    sim, net = make_net()
    net.register("b", lambda m: None)
    net.send(Message(src="a", dst="b", size=100, category="get"))
    net.send(Message(src="a", dst="b", size=50, category="get"))
    net.send(Message(src="a", dst="b", size=7, category="invalidate"))
    sim.run()
    assert net.stats.messages("get") == 2
    assert net.stats.bytes("get") == 150
    assert net.stats.messages("invalidate") == 1
    assert net.stats.total_messages == 3
    assert net.stats.total_bytes == 157
    assert net.stats.by_category() == {"get": 2, "invalidate": 1}
    assert net.stats.bytes_by_category() == {"get": 150, "invalidate": 7}


def test_unregister_makes_address_unknown():
    sim, net = make_net()
    net.register("b", lambda m: None)
    net.unregister("b")
    assert "b" not in net.addresses
    net.send(Message(src="a", dst="b", size=10))
    sim.run()
    assert net.stats.total_dropped == 1


def test_negative_message_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", size=-1)


def test_message_ids_unique():
    m1 = Message(src="a", dst="b", size=1)
    m2 = Message(src="a", dst="b", size=1)
    assert m1.msg_id != m2.msg_id


def test_send_outcomes_under_link_fault_are_pinned():
    """Outcome times, failure reasons and stats on a lossy, jittery link.

    The expected values were recorded on the Event-per-send network and
    pin the seeded fault RNG's draw order, the delivery times the send
    events report, and every loss reason.
    """
    sim, net = make_net(latency=0.01, connect_timeout=3.0)
    inbox = []
    net.register("b", lambda m: inbox.append((sim.now, m.size)))
    net.register("c", lambda m: inbox.append((sim.now, m.size)))
    net.set_link_fault(
        "a", "b",
        LinkFault(drop_prob=0.3, dup_prob=0.4, extra_delay=0.05, jitter=0.2),
        rng=random.Random(5),
    )
    outcomes = []

    def sender(sim, i, dst):
        try:
            yield net.send(Message(src="a", dst=dst, size=i))
            outcomes.append((i, sim.now, "delivered"))
        except Unreachable as exc:
            outcomes.append((i, sim.now, exc.reason))

    for i in range(10):
        sim.process(sender(sim, i, "b"))
    sim.run()
    # Messages 10-13 leave at t=3; b dies and a partition cuts a from c
    # while they are in flight.
    for i in range(10, 13):
        sim.process(sender(sim, i, "b"))
    sim.process(sender(sim, 13, "c"))
    sim.schedule_callback(0.02, lambda: net.set_down("b"))
    sim.schedule_callback(0.005, lambda: net.partition({"a"}, {"c"}))
    sim.run()

    assert outcomes == [
        (4, 0.08264119293062888, "delivered"),
        (6, 0.17478823758562018, "delivered"),
        (1, 0.20797971494798614, "delivered"),
        (0, 0.20835739785214588, "delivered"),
        (8, 0.21314509032582835, "delivered"),
        (3, 0.24867134339966274, "delivered"),
        (2, 3.0, "link fault"),
        (5, 3.0, "link fault"),
        (7, 3.0, "link fault"),
        (9, 3.0, "link fault"),
        (13, 3.01, "lost in flight"),
        (10, 3.085339846510054, "lost in flight"),
        (11, 6.0, "link fault"),
        (12, 6.0, "link fault"),
    ]
    # Jitter delivers 6's duplicate before 6 itself.
    assert inbox == [
        (0.08264119293062888, 4),
        (0.10334596009276964, 6),
        (0.17478823758562018, 6),
        (0.20797971494798614, 1),
        (0.20835739785214588, 0),
        (0.21314509032582835, 8),
        (0.21942939828624092, 8),
        (0.24867134339966274, 3),
    ]
    stats = net.stats
    assert stats.messages_sent == 14
    assert stats.total_messages == 6
    assert stats.duplicates_delivered == 2
    assert stats.total_dropped == 8
    assert stats.messages_lost == 8
    assert stats.lost_by_reason() == {
        "link fault": 6,
        "partition formed in flight": 1,
        "destination died in flight": 1,
    }
