"""Host normalisation: a fixed calibration loop before every segment.

On the shared 2-core reference VM the same fixed-work run measured
24.4k-31.0k raw wme-changes/s across back-to-back processes while CPU
us/change moved with it -- the host's speed drifts, the program's does
not.  A fixed pure-Python loop run immediately before each segment
tracks that drift: the segment's host factor is ``h = loop_ms / 50``
(50 ms is what the loop takes at reference speed), rates are multiplied
by ``h`` and durations and CPU times divided by it, and every reported
figure is the median over segments of the normalised value.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence

#: What one calibration loop takes on the reference host at reference speed.
REFERENCE_MS = 50.0
#: Iterations of the loop body; fixed work, sized once on the reference
#: host (Xeon @ 2.10GHz, CPython 3.11) and frozen.
CALIBRATION_ITERATIONS = 590_000


def calibration_ms() -> float:
    """Run the fixed loop once; how long it took, in ms."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
    return (time.perf_counter() - started) * 1000.0


def host_factor() -> float:
    """``h`` for the segment that starts now (> 1 on a slow host)."""
    return calibration_ms() / REFERENCE_MS


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return float("nan")
    rank = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[min(rank, len(sorted_values) - 1)]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("nan")
