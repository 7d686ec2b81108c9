"""Differential property tests: fast path == slow path, bit for bit.

The fast path (pooled ``Callback`` entries driving the proxy's
``request_fast`` route) is a pure performance optimisation: with
``ExperimentConfig.fast_path=False`` every request flows through the
original generator/Event machinery.  These tests prove
the two modes produce *identical* experiment results — message counts,
hit ratios, stale serves, violations and the full latency histogram —
for every protocol family, across randomly drawn seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.adaptive_ttl import adaptive_ttl
from repro.core.invalidation import invalidation
from repro.core.leases import lease_invalidation, two_tier_lease
from repro.core.polling import poll_every_time
from repro.replay.experiment import ExperimentConfig, run_experiment
from repro.replay.serialize import result_to_dict
from repro.sim import RngRegistry
from repro.traces import generate_trace, profile

PROTOCOLS = [
    adaptive_ttl,
    poll_every_time,
    invalidation,
    lease_invalidation,
    two_tier_lease,
]

_TRACES = {}


def _trace(trace_seed: int):
    if trace_seed not in _TRACES:
        _TRACES[trace_seed] = generate_trace(
            profile("EPA").scaled(0.02), RngRegistry(seed=trace_seed)
        )
    return _TRACES[trace_seed]


def _replay(factory, seed: int, trace_seed: int, fast: bool) -> dict:
    config = ExperimentConfig(
        trace=_trace(trace_seed),
        protocol=factory(),
        mean_lifetime=7 * 86400.0,
        seed=seed,
        fast_path=fast,
    )
    return result_to_dict(run_experiment(config))


def _comparable(data: dict) -> dict:
    # Everything in the serialized result is deterministic simulation
    # output except wall-clock provenance.
    data.pop("wall_seconds", None)
    data.pop("timestamp", None)
    return data


@pytest.mark.parametrize("factory", PROTOCOLS, ids=lambda f: f.__name__)
def test_fast_path_identical_per_protocol(factory):
    slow = _comparable(_replay(factory, seed=11, trace_seed=3, fast=False))
    fast = _comparable(_replay(factory, seed=11, trace_seed=3, fast=True))
    assert fast == slow


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    proto_idx=st.integers(min_value=0, max_value=len(PROTOCOLS) - 1),
)
def test_fast_path_identical_random_seeds(seed, proto_idx):
    factory = PROTOCOLS[proto_idx]
    slow = _comparable(_replay(factory, seed=seed, trace_seed=3, fast=False))
    fast = _comparable(_replay(factory, seed=seed, trace_seed=3, fast=True))
    assert fast == slow


def test_fast_path_hit_latency_histogram_matches():
    # The latency histogram is the most sensitive aggregate: a single
    # request completing at a different simulated time shifts it.
    slow = _replay(invalidation, seed=42, trace_seed=7, fast=False)
    fast = _replay(invalidation, seed=42, trace_seed=7, fast=True)
    assert fast["latency"] == slow["latency"]
    assert fast["counters"] == slow["counters"]
    assert fast["staleness"] == slow["staleness"]


def test_fast_path_actually_engaged():
    # Guard against the differential test passing vacuously because the
    # fast route silently fell back to the general path.
    from repro.proxy.proxy import ProxyCache

    calls = {"fast": 0}
    original = ProxyCache.request_fast

    def counting(self, *args, **kwargs):
        calls["fast"] += 1
        return original(self, *args, **kwargs)

    ProxyCache.request_fast = counting
    try:
        result = _replay(invalidation, seed=11, trace_seed=3, fast=True)
    finally:
        ProxyCache.request_fast = original
    assert calls["fast"] == result["counters"]["requests"]
    assert calls["fast"] > 0
