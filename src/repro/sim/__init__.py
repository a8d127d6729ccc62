"""Discrete-event simulation engine.

Everything time-dependent in the reproduction -- measurement schedules,
verifier collections, malware arrival/departure, packet delivery, swarm
mobility -- runs on this engine.  It is a classic event-queue simulator:
the queue holds ``(time, seq, callback)`` tuples and the engine pops them
in time order, advancing a virtual clock.  Callbacks take no arguments
(they read :attr:`SimulationEngine.now`); there is no event object.  No
wall-clock time is ever used, so every experiment is exactly
reproducible from its seed and parameters.
"""

from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "SimulationEngine",
    "SimulationError",
    "TraceEvent",
    "TraceRecorder",
]
