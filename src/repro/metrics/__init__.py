"""Measurement layer.

The paper's evaluation is a set of counts: message flows, log writes,
forced log writes, lock hold time.  Every substrate reports into a
:class:`MetricsCollector`, and the benchmark harness reads the same
quantities the paper's Tables 2-4 report.
"""

from repro.metrics.columns import (FloatColumn, IntColumn, PairColumn,
                                   StringInterner)
from repro.metrics.counters import TaggedCounter
from repro.metrics.collector import (
    CostSummary,
    HeuristicEvent,
    MetricsCollector,
    MetricsSnapshot,
    TransactionRecord,
)
from repro.metrics.histogram import DEFAULT_BOUNDS, Histogram, geometric_bounds

__all__ = [
    "CostSummary",
    "FloatColumn",
    "IntColumn",
    "PairColumn",
    "StringInterner",
    "DEFAULT_BOUNDS",
    "geometric_bounds",
    "HeuristicEvent",
    "Histogram",
    "MetricsCollector",
    "MetricsSnapshot",
    "TaggedCounter",
    "TransactionRecord",
]
