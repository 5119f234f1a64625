"""Small statistics helpers for the Monte-Carlo studies.

Plain-Python implementations (mean, standard deviation, normal-theory
confidence intervals) so the benchmark reports can state uncertainty,
not just point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Point estimate with a confidence interval."""

    mean: float
    stddev: float
    low: float
    high: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} [{self.low:.3f}, {self.high:.3f}]"


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); zero for fewer than 2 points."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values)
                     / (len(values) - 1))


def normal_ci(values: Sequence[float], z: float = 1.96) -> Summary:
    """Normal-theory CI around the mean (z=1.96 for ~95%)."""
    if not values:
        raise ValueError("CI of empty sequence")
    centre = mean(values)
    spread = stddev(values)
    half = z * spread / math.sqrt(len(values))
    return Summary(mean=centre, stddev=spread, low=centre - half,
                   high=centre + half, n=len(values))
