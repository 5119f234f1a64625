"""Deterministic discrete-event simulation kernel.

Everything in the reproduction runs on this kernel: network message
delivery, log-device I/O completion, lock waits, heuristic timeouts and
crash/restart schedules are all events on a single virtual clock.  Runs
are fully deterministic for a given seed, which lets the test suite
assert exact message/log counts against the paper's analytic tables.
"""

from repro.sim.events import (
    Event,
    EventQueue,
    WheelEventQueue,
)
from repro.sim.gcpolicy import GC_POLICY, deferred_gc
from repro.sim.kernel import (
    EventInterrupt,
    SimulationError,
    Simulator,
    Timer,
)
from repro.sim.randomness import RandomStream

__all__ = [
    "Event",
    "EventInterrupt",
    "EventQueue",
    "GC_POLICY",
    "RandomStream",
    "SimulationError",
    "Simulator",
    "Timer",
    "WheelEventQueue",
    "deferred_gc",
]
