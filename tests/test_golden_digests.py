"""Golden digests: pinned hashes of replay results across commits.

The differential suites compare two code paths at the *same* commit, so
a refactor that changes both sides at once still passes them.  This test
pins the sha256 of :func:`~repro.replay.serialize.result_to_dict` for a
fixed grid of replays in ``tests/data/golden_digests.json``: the five
paper traces (EPA, SDSC, ClarkNet, NASA, SASK) at x0.02, five protocols
(adaptive TTL, polling, invalidation, lease, two-tier), each in four
modes (default, audited, 4 shards with batching, and audited under one
fixed chaos schedule).  EPA cases are named ``protocol/mode``; the other
traces' cases are ``TRACE/protocol/mode``.

A digest may change only on purpose.  After an intentional change,
regenerate the file and say in CHANGES.md why the digests moved::

    PYTHONPATH=src python -m tests.test_golden_digests --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.chaos.faults import Fault, FaultSchedule
from repro.core.adaptive_ttl import adaptive_ttl
from repro.core.invalidation import invalidation
from repro.core.leases import lease_invalidation, two_tier_lease
from repro.core.polling import poll_every_time
from repro.replay.experiment import ExperimentConfig, run_experiment
from repro.replay.serialize import result_to_dict
from repro.sim import RngRegistry
from repro.traces import generate_trace, profile

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_digests.json"

PROTOCOLS = {
    "adaptive_ttl": adaptive_ttl,
    "polling": poll_every_time,
    "invalidation": invalidation,
    "lease": lease_invalidation,
    "two_tier": two_tier_lease,
}

MODES = {
    "default": {},
    "audit": {"audit": True},
    "shards4_batched": {"shards": 4, "batch_window": 1.0, "batch_max": 32},
    # Audited, under chaos_schedule() (built per protocol, see there).
    "chaos": {"audit": True},
}

#: Host-clock provenance that a serialized result may carry; everything
#: else in it is deterministic simulation output.
_WALL_CLOCK_FIELDS = ("wall_seconds", "timestamp")

TRACES = ("EPA", "SDSC", "ClarkNet", "NASA", "SASK")


def case_name(trace: str, protocol: str, mode: str) -> str:
    """``protocol/mode`` for EPA (the original corpus), else with the trace."""
    if trace == "EPA":
        return f"{protocol}/{mode}"
    return f"{trace}/{protocol}/{mode}"


def parse_case(case: str):
    """Split a case name into ``(trace, protocol, mode)``."""
    parts = case.split("/")
    if len(parts) == 2:
        return ("EPA", *parts)
    return tuple(parts)


CASES = [
    case_name(trace, protocol, mode)
    for trace in TRACES
    for protocol in PROTOCOLS
    for mode in MODES
]

_TRACES = {}


def _trace(name: str):
    if name not in _TRACES:
        _TRACES[name] = generate_trace(
            profile(name).scaled(0.02), RngRegistry(seed=3)
        )
    return _TRACES[name]


def _run(trace: str, protocol: str, mode: str, **extra):
    config = ExperimentConfig(
        trace=_trace(trace),
        protocol=PROTOCOLS[protocol](),
        mean_lifetime=7 * 86400.0,
        seed=11,
        **MODES[mode],
        **extra,
    )
    return run_experiment(config)


def chaos_schedule(trace: str, protocol: str) -> FaultSchedule:
    """The chaos mode's faults, placed on the default run's wall time W.

    A lossy server -> proxy-1 link over [0.05W, 0.4W], a server crash over
    [0.5W, 0.55W] and a proxy-2 crash over [0.7W, 0.75W]: together they
    exercise the connect-timeout, lost-in-flight and reply-timeout paths.
    The placement yields failures on every trace of the grid.
    """
    w = _run(trace, protocol, "default").wall_time
    return FaultSchedule(
        seed=0,
        horizon=w,
        faults=(
            Fault(
                "link_fault", 0.05 * w, 0.4 * w, target="server->proxy-1",
                params={"src": "server", "dst": "proxy-1",
                        "drop_prob": 0.3, "rng_seed": 5},
            ),
            Fault("server_crash", 0.5 * w, 0.55 * w, target="server"),
            Fault("proxy_crash", 0.7 * w, 0.75 * w, target="proxy-2"),
        ),
    )


def run_case(case: str):
    """Run one case of the grid and return its ExperimentResult."""
    trace, protocol, mode = parse_case(case)
    if mode == "chaos":
        return _run(
            trace, protocol, mode,
            fault_schedule=chaos_schedule(trace, protocol),
        )
    return _run(trace, protocol, mode)


def digest(case: str, result=None) -> str:
    """sha256 of one case's serialized result, wall-clock fields removed."""
    data = result_to_dict(result if result is not None else run_case(case))
    for field in _WALL_CLOCK_FIELDS:
        data.pop(field, None)
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(case):
    result = run_case(case)
    if parse_case(case)[2] == "chaos":
        # The faults must keep the failure paths exercised.
        assert result.counters.failed > 0
    assert digest(case, result) == _golden()[case], (
        f"{case}: results changed; if intended, regenerate "
        f"{GOLDEN_PATH.name} and explain why in CHANGES.md"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_digests --write")
    GOLDEN_PATH.write_text(
        json.dumps({case: digest(case) for case in CASES}, indent=2) + "\n"
    )
