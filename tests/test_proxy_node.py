"""Integration tests for the ProxyCache node with real protocols."""

import random

from repro.core import (
    adaptive_ttl,
    invalidation,
    lease_invalidation,
    poll_every_time,
    two_tier_lease,
)
from repro.net import FixedLatency, LinkFault, Network
from repro.proxy import Cache, ProxyCache, ProxyCosts
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


def build(protocol, docs=None, cache_bytes=None, latency=0.001):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(latency), connect_timeout=0.5)
    fs = FileStore.from_catalog(docs or {"/a": 1000, "/b": 2000})
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    cache = Cache(
        capacity_bytes=cache_bytes, expired_first=protocol.expired_first_cache
    )
    proxy = ProxyCache(
        sim,
        net,
        "proxy-0",
        "server",
        policy=protocol.client_policy,
        cache=cache,
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, net, fs, server, proxy


def start_request(sim, proxy, client, url):
    """Start one request; the returned dict gets ``"outcome"`` when done."""
    holder = {}

    def driver(sim):
        holder["outcome"] = yield from proxy.request(client, url)

    sim.process(driver(sim))
    return holder


def run_request(sim, proxy, client, url):
    holder = start_request(sim, proxy, client, url)
    sim.run()
    return holder["outcome"]


class TestMissAndHit:
    def test_first_request_is_a_miss_with_transfer(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.fetched and outcome.transfer
        assert not outcome.had_cached_copy
        assert not outcome.hit
        assert outcome.body_bytes == 1000
        assert outcome.latency > 0

    def test_private_caches_per_client(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c2", "/a")
        # Different real client: cache miss despite shared proxy.
        assert not outcome.had_cached_copy
        assert outcome.transfer


class TestPolling:
    def test_hit_validates_and_serves_on_304(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 304
        assert outcome.served_from_cache
        assert outcome.hit
        assert not outcome.stale_served

    def test_modified_document_transfers_but_counts_hit(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        run_request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        sim.run(until=sim.now + 2)
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 200
        assert outcome.transfer
        # Paper: polling hit counts include hits on stale documents.
        assert outcome.hit
        assert not outcome.stale_served  # user never saw the stale copy

    def test_never_serves_stale(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        for i in range(5):
            run_request(sim, proxy, "c1", "/a")
            fs.modify("/a", now=sim.now + 1)
            sim.run(until=sim.now + 2)
            outcome = run_request(sim, proxy, "c1", "/a")
            assert not outcome.stale_served


class TestAdaptiveTtl:
    def test_fresh_serve_without_server_contact(self):
        sim, net, fs, server, proxy = build(adaptive_ttl())
        # Age the document so it earns a decent TTL.
        fs.get("/a").last_modified = -86400.0
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache
        assert not outcome.validated
        assert outcome.hit

    def test_expired_copy_validated(self):
        prot = adaptive_ttl(factor=0.2, min_ttl=0.0)
        sim, net, fs, server, proxy = build(prot)
        fs.get("/a").last_modified = -10.0  # tiny age -> tiny TTL
        run_request(sim, proxy, "c1", "/a")
        sim.run(until=sim.now + 100.0)
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 304
        assert outcome.hit  # 304-refresh counts as hit

    def test_stale_hit_detected_by_oracle(self):
        sim, net, fs, server, proxy = build(adaptive_ttl())
        fs.get("/a").last_modified = -10 * 86400.0  # old -> long TTL
        run_request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        sim.run(until=sim.now + 2)
        outcome = run_request(sim, proxy, "c1", "/a")
        # TTL still fresh, so the stale copy is served: a stale hit.
        assert outcome.served_from_cache
        assert outcome.stale_served


class TestInvalidation:
    def test_valid_copy_served_locally(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache
        assert not outcome.validated
        assert outcome.hit

    def test_invalidate_deletes_copy_and_next_request_misses(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run()
        assert proxy.invalidations_received == 1
        outcome = run_request(sim, proxy, "c1", "/a")
        assert not outcome.had_cached_copy
        assert outcome.transfer
        assert not outcome.stale_served

    def test_strong_consistency_no_stale_serves(self):
        sim, net, fs, server, proxy = build(invalidation())
        for i in range(5):
            run_request(sim, proxy, "c1", "/a")
            fs.modify("/a", now=sim.now + 1)
            server.check_in("/a")
            sim.run()
            outcome = run_request(sim, proxy, "c1", "/a")
            assert not outcome.stale_served

    def test_unrelated_client_copy_unaffected(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        run_request(sim, proxy, "c1", "/b")
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run()
        outcome = run_request(sim, proxy, "c1", "/b")
        assert outcome.served_from_cache


class TestLeases:
    def test_lease_expiry_forces_validation(self):
        prot = lease_invalidation(lease_duration=5.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.validated
        sim.run(until=sim.now + 10.0)  # lease lapses
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 304

    def test_validation_renews_lease(self):
        prot = lease_invalidation(lease_duration=5.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        sim.run(until=sim.now + 10.0)
        run_request(sim, proxy, "c1", "/a")  # IMS renews lease
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.validated

    def test_two_tier_first_get_not_registered_second_is(self):
        prot = two_tier_lease(lease_duration=100.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        assert server.table.total_entries() == 0
        outcome = run_request(sim, proxy, "c1", "/a")
        # Zero GET lease: second access must validate...
        assert outcome.validated and outcome.status == 304
        # ...which registers the site with a full lease.
        assert server.table.total_entries() == 1
        # Third access is served locally under the lease.
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.validated

    def test_two_tier_still_strongly_consistent(self):
        prot = two_tier_lease(lease_duration=100.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        run_request(sim, proxy, "c1", "/a")  # now registered
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run()
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.transfer
        assert not outcome.stale_served


class TestFailures:
    # A request issued at t=0 leaves after the lookup delay and reaches
    # the server one FixedLatency later.
    SENT = ProxyCosts().cpu_lookup
    DELIVERED = SENT + 0.001

    def test_server_down_request_fails(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        server.crash()
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.failed
        assert proxy.failed_requests == 1

    def test_proxy_recovery_marks_questionable_and_revalidates(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        proxy.crash()
        flagged = proxy.recover()
        assert flagged == 1
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated  # questionable copy revalidated
        assert outcome.status == 304
        assert proxy.questionable_validations == 1

    def test_server_recovery_invalidate_by_server(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        run_request(sim, proxy, "c1", "/b")
        server.crash()
        fs.modify("/a", now=sim.now + 1)  # changed while server down
        server.recover()
        sim.run()
        assert proxy.server_invalidations_received == 1
        # Both copies questionable now; /a validation returns 200.
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated and outcome.status == 200
        assert not outcome.stale_served
        outcome = run_request(sim, proxy, "c1", "/b")
        assert outcome.validated and outcome.status == 304

    # -- round-trip failure timing --

    def test_server_down_fails_at_connect_timeout(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        server.crash()
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.failed
        assert outcome.finished == self.SENT + net.connect_timeout

    def test_lost_reply_fails_at_reply_timeout(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        holder = start_request(sim, proxy, "c1", "/a")
        # The server dies while it handles the request: its reply is
        # never sent.
        sim.schedule_callback(self.DELIVERED + 0.0001, server.crash)
        sim.run()
        outcome = holder["outcome"]
        assert server.requests_handled == 1
        assert net.stats.messages("reply-200") == 0
        assert outcome.failed and not outcome.transfer
        assert outcome.finished == self.DELIVERED + proxy.reply_timeout

    def test_reply_after_timeout_is_ignored(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        net.set_link_fault("server", "proxy-0", LinkFault(extra_delay=40.0))
        holder = start_request(sim, proxy, "c1", "/a")
        sim.run()
        outcome = holder["outcome"]
        # The reply landed 10 s after the request had failed...
        assert net.stats.total_dropped == 0
        assert net.stats.messages("reply-200") == 1
        assert sim.now > self.DELIVERED + 40.0
        # ...and changed nothing.
        assert outcome.failed and not outcome.transfer
        assert outcome.finished == self.DELIVERED + proxy.reply_timeout
        assert proxy.failed_requests == 1
        assert len(proxy.cache) == 0

    def test_proxy_crash_fails_request_at_reply_timer(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        holder = start_request(sim, proxy, "c1", "/a")
        # The proxy crashes and restarts while the server works on the
        # request, so the reply reaches a live proxy that has forgotten
        # the request.
        sim.schedule_callback(self.DELIVERED + 0.0001, proxy.crash)
        sim.schedule_callback(self.DELIVERED + 0.0002, proxy.recover)
        sim.run()
        outcome = holder["outcome"]
        assert net.stats.messages("reply-200") == 1
        assert net.stats.total_dropped == 0
        assert outcome.failed and not outcome.transfer
        assert outcome.finished == self.DELIVERED + proxy.reply_timeout
        assert len(proxy.cache) == 0

    def test_reply_to_overtaking_duplicate_waits_for_the_request(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        # Every request is duplicated; with this seed the duplicate lands
        # first and its reply is back before the request itself arrives.
        net.set_link_fault(
            "proxy-0", "server", LinkFault(dup_prob=1.0, jitter=0.5),
            rng=random.Random(0),
        )
        holder = start_request(sim, proxy, "c1", "/a")
        sim.run()
        outcome = holder["outcome"]
        assert net.stats.messages("reply-200") == 2
        assert outcome.transfer and not outcome.failed
        # The request completes after its own delivery (value recorded
        # before the reply rendezvous existed), not at the early reply.
        assert outcome.finished == 0.4250109257625241

    def test_success_leaves_no_live_timer(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.transfer
        # The run ends with the request, not when a reply timer expires.
        assert sim.now == outcome.finished < 1.0
        assert sim.peek() == float("inf")
