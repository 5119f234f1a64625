"""Small order statistics shared by the hosts, the driver and compare."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for no data)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them — the same
    call the acceptance driver uses — or None below two samples."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median."""
    pair = quartiles(values)
    centre = median(values)
    if pair is None or centre == 0:
        return None
    return (pair[1] - pair[0]) / abs(centre)


def quarter_ratio(done_offsets: Sequence[float], wall: float) -> float:
    """Completions in the last quarter of the measured wall over those
    in the first quarter: 1.0 is a flat run, 0.2 a run that slowed 5x.

    Quarters of *time*, not of count, so the first quarter of a
    decaying run is not a handful of milliseconds.
    """
    if wall <= 0:
        return 0.0
    edge = wall / 4.0
    first = sum(1 for offset in done_offsets if offset <= edge)
    last = sum(1 for offset in done_offsets if offset > wall - edge)
    return last / first if first else 0.0


def window_percentiles(starts: Sequence[float], values: Sequence[float],
                       wall: float, fraction: float) -> List[float]:
    """The ``fraction`` percentile of ``values`` within each of
    ``max(2, round(wall))`` equal windows of the run (about one second
    each), a value belonging to the window its ``starts`` offset falls
    in.  Empty windows are skipped."""
    count = max(2, round(wall))
    windows: List[List[float]] = [[] for _ in range(count)]
    for start, value in zip(starts, values):
        index = min(count - 1, max(0, int(start / wall * count)))
        windows[index].append(value)
    return [percentile(window, fraction) for window in windows if window]


def summarize_latencies(seconds: List[float]) -> dict:
    """The latency fields every host reports, in milliseconds."""
    millis = [value * 1e3 for value in seconds]
    return {
        "p50_ms": percentile(millis, 0.50),
        "p90_ms": percentile(millis, 0.90),
        "p99_ms": percentile(millis, 0.99),
        "p999_ms": percentile(millis, 0.999),
        "over_50ms_fraction": (sum(1 for value in millis if value > 50.0)
                               / len(millis)) if millis else 0.0,
        "samples": len(millis),
    }
