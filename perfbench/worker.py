"""One replay in a fresh process: the unit the benchmark repeats.

Usage::

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT [--profile]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports, trace generation and the configuration
build.  The worker generates the trace, times one
``repro.api.run_experiment`` call, checks the result and prints one JSON
object.  Times are taken twice: as wall seconds and on a ``HostClock``,
which rescales them to a fixed host speed (``hostclock.py``).
``--profile`` wraps the call in ``cProfile`` and adds the per-layer
attribution, with the host clock off; the program itself is not changed.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostclock import HostClock  # noqa: E402
from layers import LayerMap, call_count, self_time_by_layer  # noqa: E402
from workloads import WORKLOADS, build_config, build_trace  # noqa: E402


def _check(config, result):
    """Correctness errors of one result (empty when it is correct)."""
    from repro.replay.audit import AuditError, audit_result

    errors = []
    try:
        audit_result(result)
    except AuditError as exc:
        errors.append(str(exc))
    if config.protocol.strong and result.counters.violations:
        errors.append(f"{result.counters.violations} strong-consistency violations")
    if config.audit and result.chaos["violation_count"]:
        errors.append(f"auditor found {result.chaos['violation_count']} violations")
    return errors


def _digest(result) -> str:
    from repro.replay.serialize import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _result_metrics(config, result):
    """End-to-end ``sim_*`` values and result-derived per-layer values."""
    counters = result.counters
    requests = result.total_requests
    cluster = result.cluster
    observation = config.observation
    sim = {
        "sim_messages": result.total_messages,
        "sim_latency_ms": counters.latency.mean * 1e3,
        "sim_latency_p95_ms": counters.latency.percentile(95) * 1e3,
        "sim_latency_p99_ms": counters.latency.percentile(99) * 1e3,
        "sim_server_cpu": result.cpu_utilization * 100.0,
        "sim_stale_serves": counters.stale_serves,
    }
    layer = {
        "proxy.hit_ratio": counters.hit_ratio,
        "proxy.stale_serves": counters.stale_serves,
        "proxy.failed_per_req": counters.failed / requests,
        "net.bytes_per_req": result.message_bytes / requests,
        "server.sitelist.entries_end": result.sitelist_entries,
        "server.httpd.invalidations_sent": result.invalidations_sent,
        "server.cluster.shards": cluster["shards"] if cluster else 1,
        "server.cluster.batches_sent": (
            sum(s["batches_sent"] for s in cluster["per_shard"].values())
            if cluster
            else 0
        ),
        "chaos.serves_audited": result.chaos["serves"] if result.chaos else 0,
        "obs.records_per_req": (
            observation.registry.total("requests") / requests
            if observation is not None
            else 0.0
        ),
        "replay.intervals": -(-config.trace.duration // config.interval),
        "workload.modifications_per_req": result.files_modified / requests,
        "server.cpu_util": result.cpu_utilization * 100.0,
        "server.disk_util": result.disk_utilization * 100.0,
        "server.fanout_max_s": result.invalidation_time_max,
        "server.sitelist_kb": result.sitelist_storage_bytes / 1024.0,
    }
    return sim, layer


def _entry_points():
    """Per-request call counts: metric name -> profiled function."""
    from repro.chaos.auditor import ConsistencyAuditor
    from repro.net.network import Network
    from repro.obs.observe import Observation
    from repro.proxy.cache import Cache
    from repro.proxy.proxy import ProxyCache
    from repro.server.cluster import HashRing
    from repro.server.sitelist import InvalidationTable
    from repro.sim.core import Simulator
    from repro.sim.process import Process
    from repro.sim.resources import Resource

    per_req = {
        "sim.core.events_per_req": Simulator.step,
        "sim.core.callbacks_per_req": Simulator.call_later,
        "sim.process.spawns_per_req": Process.__init__,
        "sim.resources.requests_per_req": Resource.request,
        # Every request takes exactly one of request_fast and the general
        # path, so request_fast calls / requests is the fast share.
        "proxy.fast_share": ProxyCache.request_fast,
        "proxy.cache_gets_per_req": Cache.get,
        "net.sends_per_req": Network.send,
        "server.sitelist.registers_per_req": InvalidationTable.register,
        "server.cluster.ring_lookups_per_req": HashRing.owner,
    }
    totals = {
        "chaos.serves_audited": ConsistencyAuditor.on_serve,
        "obs.records": Observation.record_request,
    }
    return per_req, totals


def _profile_metrics(profiler, requests, gc_pause_s):
    """Per-layer self time and entry-point call counts of a profiled run."""
    import repro

    stats = pstats.Stats(profiler).stats
    layer_of = LayerMap(os.path.dirname(repro.__file__))
    out = {
        f"{layer}.self_us_per_req": seconds * 1e6 / requests
        for layer, seconds in self_time_by_layer(stats, layer_of).items()
    }
    out["gc.self_us_per_req"] = gc_pause_s * 1e6 / requests
    per_req, totals = _entry_points()
    for name, func in per_req.items():
        out[name] = call_count(stats, func) / requests
    for name, func in totals.items():
        out[name] = call_count(stats, func)
    return out


class _GcClock:
    """Sums garbage-collection pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase, _info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def main(argv) -> int:
    workload = WORKLOADS[argv[1]]
    seed = int(argv[2])
    spawned_at = float(argv[3])
    profile = "--profile" in argv[4:]
    with HostClock(sampling=not profile) as clock:
        return replay(clock, workload, seed, spawned_at, profile)


def replay(clock, workload, seed, spawned_at, profile) -> int:
    """Set up, time and check one replay; print the worker's output."""
    from repro.api import run_experiment

    started = clock.raw()
    trace = build_trace(workload, seed)
    generate_s = clock.raw() - started
    config = build_config(workload, trace)

    gc_clock = _GcClock()
    profiler = cProfile.Profile() if profile else None
    if profile:
        gc.callbacks.append(gc_clock)
    gen0_before = gc.get_stats()[0]["collections"]
    spawned = spawned_at - clock.started_at
    called = clock.raw()
    if profiler is not None:
        profiler.enable()
    result = run_experiment(config)
    if profiler is not None:
        profiler.disable()
    returned = clock.raw()
    gen0 = gc.get_stats()[0]["collections"] - gen0_before
    if profile:
        gc.callbacks.remove(gc_clock)
    run_s = returned - called

    sim, layer = _result_metrics(config, result)
    requests = result.total_requests
    layer["gc.gen0_per_kreq"] = gen0 * 1e3 / requests
    layer["traces.generate_s"] = generate_s
    if profiler is not None:
        layer.update(_profile_metrics(profiler, requests, gc_clock.seconds))
    out = {
        "setup_s": clock.scaled(spawned, called),
        "setup_wall_s": called - spawned,
        "replay_s": clock.scaled(called, returned),
        "run_s": run_s,
        "requests": requests,
        "failed_requests": result.counters.failed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest(result),
        "errors": _check(config, result),
        "sim": sim,
        "layer": layer,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
