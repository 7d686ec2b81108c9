"""The replay benchmark's workloads: trace x protocol x lifetime x server shape.

Each workload is chosen so that one group of layers does the work and
another does none, which gives every later optimisation one workload
that exercises its mechanism and one where the prediction is "no
change".  The trace is generated from the benchmark's ``--seed``; the
program under test receives only the generated trace (its own
simulation streams keep ``ExperimentConfig``'s default seed).

Seeds: ``TUNING_SEEDS`` were used while sizing the benchmark.
``HELD_OUT_SEED`` was never used to tune anything; a later claim of a
gain must also hold on it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Tuple

DAY = 86400.0

#: Every workload replays its trace at half the paper's request count.
SCALE = 0.5

TUNING_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
HELD_OUT_SEED = 7919

_OPS = {"==": operator.eq, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload (see README.md for the rationale)."""

    name: str
    trace: str
    protocol: str
    lifetime_days: float
    shards: int = 1
    batch_window: float = 0.0
    batch_max: int = 0
    audit: bool = False
    observed: bool = False
    #: ``(per-layer metric, operator, value)`` triples that must hold after
    #: every run, or the workload no longer exercises its layers.
    guards: Tuple[Tuple[str, str, float], ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ttl_read",
            trace="NASA",
            protocol="ttl",
            lifetime_days=50.0,
            guards=(
                ("server.httpd.invalidations_sent", "==", 0),
                ("server.sitelist.entries_end", "==", 0),
                ("proxy.fast_share", ">", 0),
            ),
        ),
        Workload(
            name="inval_write_audited",
            trace="EPA",
            protocol="invalidation",
            lifetime_days=0.1,
            audit=True,
            guards=(
                ("workload.modifications_per_req", ">=", 0.5),
                ("proxy.fast_share", "==", 0),
                ("chaos.serves_audited", ">", 0),
            ),
        ),
        Workload(
            name="inval_sharded_observed",
            trace="SASK",
            protocol="invalidation",
            lifetime_days=7.0,
            shards=4,
            batch_window=1.0,
            batch_max=32,
            observed=True,
            guards=(
                ("server.cluster.shards", "==", 4),
                ("server.cluster.batches_sent", ">", 0),
                ("obs.records_per_req", "==", 1),
            ),
        ),
    )
}


def build_trace(workload: Workload, seed: int):
    """Generate the workload's trace from the benchmark seed."""
    from repro.sim import RngRegistry
    from repro.traces import generate_trace, profile

    return generate_trace(profile(workload.trace).scaled(SCALE), RngRegistry(seed))


def build_config(workload: Workload, trace):
    """The experiment configuration the program is timed on."""
    from repro.api import build_protocol
    from repro.obs import MetricsRegistry, Observation
    from repro.replay import ExperimentConfig

    return ExperimentConfig(
        trace=trace,
        protocol=build_protocol(workload.protocol),
        mean_lifetime=workload.lifetime_days * DAY,
        shards=workload.shards,
        batch_window=workload.batch_window,
        batch_max=workload.batch_max,
        audit=workload.audit,
        observation=(
            Observation(registry=MetricsRegistry()) if workload.observed else None
        ),
    )


def shape_failures(workload: Workload, shape: Dict[str, float]) -> List[str]:
    """The guards of ``workload`` that the measured ``shape`` breaks.

    A guard whose quantity was not measured in this run (the call-count
    shares exist only in a profiled run) is skipped.
    """
    return [
        f"{name} {op} {value:g} (measured {shape[name]:g})"
        for name, op, value in workload.guards
        if name in shape and not _OPS[op](shape[name], value)
    ]
