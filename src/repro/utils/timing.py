"""Timing helpers used by the benchmark harness."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Union


@dataclass
class TimingStats:
    """All samples of a repeated measurement, for noise reporting."""

    samples: List[float]

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def median(self) -> float:
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2]

    @property
    def stddev(self) -> float:
        mu = self.mean
        return math.sqrt(
            sum((s - mu) ** 2 for s in self.samples) / len(self.samples)
        )

    def __str__(self) -> str:
        return (
            f"median {self.median * 1e3:.3f}ms  min {self.min * 1e3:.3f}ms  "
            f"stddev {self.stddev * 1e3:.3f}ms  (n={len(self.samples)})"
        )


def measure_median(fn, repeats: int = 5, warmup: int = 1,
                   full: bool = False) -> Union[float, TimingStats]:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs.

    With ``full=True`` returns the :class:`TimingStats` over all samples
    (min/median/stddev) instead of the bare median.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    stats = TimingStats(times)
    return stats if full else stats.median
