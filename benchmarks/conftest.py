"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark replays traces at ``REPRO_BENCH_SCALE`` (default 1.0 =
paper scale; set e.g. ``REPRO_BENCH_SCALE=0.1`` for a quick smoke pass).
Experiment results are cached per session so Table 5 reuses the
invalidation runs of Tables 3-4 instead of recomputing them, exactly as
the paper derives Table 5 from the same replays.

Each benchmark writes its paper-style table to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro import (
    DAYS,
    ExperimentConfig,
    ExperimentResult,
    RngRegistry,
    Trace,
    adaptive_ttl,
    generate_trace,
    invalidation,
    poll_every_time,
    run_experiment,
    two_tier_lease,
)
from repro.replay import ParallelSweepRunner, audit_result, sweep
from repro.traces import PROFILES

RESULTS_DIR = Path(__file__).parent / "results"

#: Protocol factories by short name, used in cache keys.
PROTOCOLS = {
    "polling": poll_every_time,
    "invalidation": invalidation,
    "invalidation-decoupled": lambda: invalidation(blocking=False),
    "ttl": adaptive_ttl,
    "two-tier": lambda: two_tier_lease(lease_duration=1e9),
}

#: The paper's six replay experiments: (trace, mean lifetime in days).
PAPER_EXPERIMENTS = [
    ("EPA", 50.0),
    ("SASK", 14.0),
    ("ClarkNet", 50.0),
    ("NASA", 7.0),
    ("SDSC", 25.0),
    ("SDSC", 2.5),
]


def bench_scale() -> float:
    """Workload scale factor from the environment (1.0 = paper scale)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def trace_cache() -> Dict[str, Trace]:
    """Traces generated once per session, keyed by profile name."""
    return {}


@pytest.fixture(scope="session")
def result_cache() -> Dict[tuple, ExperimentResult]:
    """Experiment results shared across benchmark modules."""
    return {}


@pytest.fixture(scope="session")
def harness(scale, trace_cache, result_cache):
    """Callable running (and caching) one replay experiment."""

    def get_trace(trace_name: str) -> Trace:
        trace = trace_cache.get(trace_name)
        if trace is None:
            profile = PROFILES[trace_name]
            if scale != 1.0:
                profile = profile.scaled(scale)
            trace = generate_trace(profile, RngRegistry(seed=42))
            trace_cache[trace_name] = trace
        return trace

    def run(trace_name: str, lifetime_days: float, protocol_key: str,
            **overrides) -> ExperimentResult:
        key = (trace_name, lifetime_days, protocol_key, tuple(sorted(overrides.items())))
        result = result_cache.get(key)
        if result is None:
            config = ExperimentConfig(
                trace=get_trace(trace_name),
                protocol=PROTOCOLS[protocol_key](),
                # The lifetime is NOT scaled: with files scaled by s the
                # modification count becomes s * the paper's count, which
                # preserves the modification/request ratio the protocol
                # comparison is sensitive to.  At scale 1.0 the counts
                # match the paper's headers (72, 1148, 40, 144, 57, 576)
                # to within interval rounding (we observe 71/1147/39/143/
                # 57/571; SDSC-2.5d differs because one file count must
                # serve both SDSC lifetimes, see DESIGN.md §3).
                mean_lifetime=lifetime_days * DAYS,
                **overrides,
            )
            result = run_experiment(config)
            # Cross-check the run's accounting layers before anything
            # consumes it (see repro.replay.audit).
            audit_result(result)
            result_cache[key] = result
        return result

    def prewarm(workers: int) -> None:
        """Fill the result cache by running the paper grid in parallel.

        The 18 points (six trace/lifetime rows x three protocols) are
        exactly the runs Tables 3-5 consume; warming them through
        ``ParallelSweepRunner`` gives the table benchmarks a wall-clock
        speedup without changing a single metric (each point is the same
        hermetic ``run_experiment`` the serial path uses).  Checkpoints
        land under ``benchmarks/results/checkpoints`` so an interrupted
        benchmark session resumes instead of recomputing.
        """
        grid = [
            (trace_name, days, proto)
            for trace_name, days in PAPER_EXPERIMENTS
            for proto in ("polling", "invalidation", "ttl")
        ]
        base = ExperimentConfig(
            trace=get_trace(grid[0][0]),
            protocol=PROTOCOLS[grid[0][2]](),
            mean_lifetime=grid[0][1] * DAYS,
        )
        points = [
            (
                f"{trace_name}-{days:g}d-{proto}",
                {
                    "trace": get_trace(trace_name),
                    "mean_lifetime": days * DAYS,
                    "protocol": PROTOCOLS[proto](),
                },
            )
            for trace_name, days, proto in grid
        ]
        checkpoint_dir = RESULTS_DIR / "checkpoints" / f"scale-{scale:g}"
        runner = ParallelSweepRunner(
            workers=workers,
            checkpoint_dir=str(checkpoint_dir),
            resume=True,
            progress=print,
        )
        for (trace_name, days, proto), point in zip(
            grid, sweep(base, points, runner=runner)
        ):
            audit_result(point.result)
            result_cache[(trace_name, days, proto, ())] = point.result

    workers = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
    if workers:
        prewarm(workers)

    run.get_trace = get_trace
    run.prewarm = prewarm
    return run


def write_results(name: str, text: str) -> Path:
    """Persist a benchmark's paper-style table under benchmarks/results."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path
