"""Statistics and host facts shared by every workload."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from typing import Dict, Sequence

#: a percentile above the median is reported only with at least this
#: many samples beyond it
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    The median needs one sample.  A higher percentile needs at least
    :data:`MIN_TAIL_SAMPLES` samples beyond its rank; p90 therefore
    needs 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has only {n - rank} beyond it; "
            f"{MIN_TAIL_SAMPLES} are required")
    return sorted(values)[rank - 1]


def median(values: Sequence[float], default: float = 0.0) -> float:
    """Median, or ``default`` when a layer recorded no samples."""
    return statistics.median(values) if values else default


def fraction(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mib() -> float:
    """Peak resident set of this process plus the largest reaped child
    (the forked simulation workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_score() -> float:
    """Fixed pure-Python work per second (best of five), so numbers
    taken on different hosts can be read side by side."""
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            table[i & 1023] = acc
            acc = (acc * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - started)
    return 1.0 / best


def environment() -> Dict[str, object]:
    """Context recorded beside every run; never gated."""
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_per_s": round(calibration_score(), 3)}
