"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Interrupt, Lock, Resource, RngRegistry

    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "done"
"""

from .core import (
    Callback,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
)
from .process import AllOf, AnyOf, ConditionValue, Process
from .resources import FcfsResource, Lock, Request, Resource
from .rng import RngRegistry
from .tracing import EventTracer

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "FcfsResource",
    "Lock",
    "Resource",
    "Request",
    "RngRegistry",
    "EventTracer",
]
