"""Opt-in kernel profiler: where does simulated time's real time go?

The simulator names every event it schedules
(``deliver:...``, ``log-io:Node``, ``group-commit-timer:Node``,
``heuristic-timeout:...``).  The profiler buckets events by the prefix
before the first ``:`` and accumulates count, total and max wall-clock
handler cost per bucket, plus a wall-clock histogram, so a slow sweep
can be blamed on (say) message delivery handlers rather than guessed
at.

The kernel's fast path is preserved by construction: with no profiler
installed the run loop takes a single ``is None`` branch per event and
never calls ``perf_counter``.  Installation is either per-simulator
(:meth:`Simulator.set_profiler`) or global via :meth:`activate`, which
sets :attr:`Simulator.default_profiler` so simulators built out of the
caller's reach (inside sweep cells, workload profiles) pick it up at
construction.
"""

from __future__ import annotations

from typing import Dict, List

from repro.metrics.histogram import Histogram, geometric_bounds
from repro.sim.kernel import Simulator

#: Wall-clock handler costs are microseconds-ish; ladder from 100ns
#: to 1s, 5 buckets per decade.
WALL_CLOCK_BOUNDS = geometric_bounds(lo=1e-7, hi=1.0, per_decade=5)


class EventTypeStats:
    """Accumulated handler cost for one event-name prefix."""

    __slots__ = ("count", "total", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"count": self.count,
                "total_s": round(self.total, 9),
                "mean_s": round(self.mean, 9),
                "max_s": round(self.max, 9)}


class KernelProfiler:
    """Implements the kernel's ``KernelProfilerProtocol``."""

    def __init__(self) -> None:
        self.by_type: Dict[str, EventTypeStats] = {}
        self.histogram = Histogram(bounds=WALL_CLOCK_BOUNDS)
        self.events = 0
        self.total_seconds = 0.0

    # ------------------------------------------------------------------
    # The hot callback (one dict lookup + arithmetic per event)
    # ------------------------------------------------------------------
    def record(self, event, seconds: float) -> None:
        name = event.name
        key = str(name).split(":", 1)[0] if name else "(unnamed)"
        stats = self.by_type.get(key)
        if stats is None:
            stats = self.by_type[key] = EventTypeStats()
        stats.count += 1
        stats.total += seconds
        if seconds > stats.max:
            stats.max = seconds
        self.events += 1
        self.total_seconds += seconds
        self.histogram.record(seconds)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def activate(self) -> "KernelProfiler":
        """Profile every simulator constructed from now on.

        Global by design: sweep cells and workload profiles build their
        own clusters internally, and this is the only seam that reaches
        them.  Pair with :meth:`deactivate` (``try/finally``).
        """
        Simulator.default_profiler = self
        return self

    def deactivate(self) -> "KernelProfiler":
        if Simulator.default_profiler is self:
            Simulator.default_profiler = None
        return self

    def __enter__(self) -> "KernelProfiler":
        return self.activate()

    def __exit__(self, *exc_info) -> None:
        self.deactivate()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def rows(self) -> List[List[str]]:
        """Table rows sorted by total cost, descending."""
        ordered = sorted(self.by_type.items(),
                         key=lambda item: item[1].total, reverse=True)
        rows = []
        for key, stats in ordered:
            share = (100.0 * stats.total / self.total_seconds
                     if self.total_seconds else 0.0)
            rows.append([key, str(stats.count),
                         f"{stats.total * 1e3:.3f}",
                         f"{stats.mean * 1e6:.2f}",
                         f"{stats.max * 1e6:.2f}",
                         f"{share:.1f}%"])
        return rows

    def render(self) -> str:
        from repro.analysis.render import render_table
        if not self.events:
            return "kernel profile: no events recorded"
        table = render_table(
            ["event type", "count", "total ms", "mean us", "max us",
             "share"],
            self.rows(),
            title="Kernel profile (wall-clock handler cost by event type)")
        tail = (f"{self.events} events, "
                f"{self.total_seconds * 1e3:.1f} ms in handlers, "
                f"p50={self.histogram.p50 * 1e6:.2f}us "
                f"p99={self.histogram.p99 * 1e6:.2f}us")
        return f"{table}\n{tail}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "total_seconds": round(self.total_seconds, 9),
            "by_type": {key: stats.to_dict()
                        for key, stats in sorted(self.by_type.items())},
            "wall_clock": self.histogram.summary(),
        }

    def __repr__(self) -> str:
        return (f"<KernelProfiler events={self.events} "
                f"types={len(self.by_type)} "
                f"total={self.total_seconds * 1e3:.1f}ms>")
