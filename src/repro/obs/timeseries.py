"""Sim-time gauges: periodic samples of cluster state during a run.

The cost ledger answers "what did each transaction pay"; the time
series answers "what did the system look like while paying it" — how
many transactions were in flight, how deep the lock tables were, how
many force requests sat waiting for a group-commit batch, how many
messages were on the wire.  Samples ride the simulator's event hook
(sampling on virtual time, so a run's series is deterministic and
bit-identical across repeats) into fixed-capacity ring buffers, and
render either as JSON or as an ASCII sparkline dashboard.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.hooks import Observer

SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Gauge names in dashboard order.
GAUGE_NAMES = (
    "in_flight_txns",
    "locks_granted",
    "lock_waiters",
    "pending_forces",
    "in_flight_messages",
    "heuristic_events",
)


class SimTimeSeries(Observer):
    """Deterministic sim-time sampling of cluster gauges.

    Samples every ``interval`` units of *virtual* time (checked from
    the kernel's event hook, so a quiescent simulator takes no
    samples and a busy one samples exactly when the clock first
    crosses each boundary) into ring buffers of ``capacity`` points.
    """

    def __init__(self, interval: float = 1.0,
                 capacity: int = 1024) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.interval = interval
        self.capacity = capacity
        self.series: Dict[str, Deque[Tuple[float, float]]] = {
            name: deque(maxlen=capacity) for name in GAUGE_NAMES}
        self._next_sample = 0.0

    def _install(self, cluster) -> None:
        simulator = cluster.simulator
        self._next_sample = simulator.now

        def on_event(event) -> None:
            if simulator.now >= self._next_sample:
                self.sample()

        self.event_hook(simulator, on_event)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def _gauges(self) -> Dict[str, float]:
        cluster = self.cluster
        metrics = cluster.metrics
        in_flight = set()
        granted = waiters = 0
        pending_forces = 0
        for node in cluster.nodes.values():
            for txn_id, context in node.contexts.items():
                if not context.state.terminal:
                    in_flight.add(txn_id)
            for rm in node.all_rms():
                granted += rm.locks.granted_count()
                waiters += rm.locks.total_waiting()
            pending_forces += sum(log.pending_force_count
                                  for log in node.logs())
        network = cluster.network
        lost = (metrics.drops.total(reason="partition")
                + metrics.drops.total(reason="crashed"))
        return {
            "in_flight_txns": len(in_flight),
            "locks_granted": granted,
            "lock_waiters": waiters,
            "pending_forces": pending_forces,
            "in_flight_messages": max(
                0, network.sent - network.delivered - lost),
            "heuristic_events": len(metrics.heuristics),
        }

    def sample(self) -> Dict[str, float]:
        """Take one sample now and advance the sampling boundary."""
        now = self.cluster.simulator.now
        values = self._gauges()
        for name, value in values.items():
            self.series[name].append((now, value))
        # Next boundary strictly after now, on the interval grid.
        steps = int(now / self.interval) + 1
        self._next_sample = steps * self.interval
        return values

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return max((len(points) for points in self.series.values()),
                   default=0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "series": {name: [[t, v] for t, v in points]
                       for name, points in self.series.items()},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Dashboard
    # ------------------------------------------------------------------
    def render_dashboard(self, width: int = 60) -> str:
        """ASCII sparkline dashboard of every gauge's ring buffer."""
        lines = ["sim-time dashboard "
                 f"(interval={self.interval}, samples={self.n_samples})"]
        label_width = max(len(name) for name in GAUGE_NAMES)
        for name in GAUGE_NAMES:
            points = list(self.series[name])[-width:]
            values = [v for __, v in points]
            spark = sparkline(values)
            if values:
                stats = (f"min={min(values):g} max={max(values):g} "
                         f"last={values[-1]:g}")
            else:
                stats = "no samples"
            lines.append(f"{name:<{label_width}}  {spark:<{width}}  "
                         f"{stats}")
        return "\n".join(lines)


def sparkline(values: List[float]) -> str:
    """Map a series onto ▁▂▃▄▅▆▇█ (empty string for no samples)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low
    if span == 0:
        return SPARK_GLYPHS[0] * len(values)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[int((value - low) / span * top)] for value in values)
