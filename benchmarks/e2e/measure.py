"""The measuring loop: cold set-ups, calibrated segments, normalised medians."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.kernel import clear_shared_kernels
from repro.kernel.cache import clear_cache
from repro.serve.session import clear_program_cache

from hostnorm import host_factor, percentile, quartiles
from tracing import Tracer
from workloads import SEGMENTS, Plan, Segment, Workload

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUPS = 3


@dataclass
class SegmentRow:
    """One segment's raw measurements."""

    h: float
    wall_s: float
    cpu_s: float
    changes: int
    firings: int
    #: Units of offered work attempted (waves, lanes, requests).
    units: int


@dataclass
class Measurement:
    """Everything one pass over a workload measured."""

    workload: str
    setups_s: list[float] = field(default_factory=list)
    rows: list[SegmentRow] = field(default_factory=list)
    #: Normalised latency samples in ms (each divided by its segment's h).
    latencies_ms: list[float] = field(default_factory=list)
    raw_latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def changes(self) -> int:
        return sum(row.changes for row in self.rows)

    @property
    def firings(self) -> int:
        return sum(row.firings for row in self.rows)

    @property
    def wall_s(self) -> float:
        return sum(row.wall_s for row in self.rows)

    def normalised_seconds(self) -> float:
        """The timed region's length at reference speed."""
        return sum(row.wall_s / row.h for row in self.rows)

    def rate(self) -> float:
        """Normalised wme-changes/s over the whole timed region."""
        return self.changes / self.normalised_seconds()

    def cpu_us_per_change(self) -> float:
        """Normalised CPU us per wme-change over the whole timed region."""
        return sum(row.cpu_s / row.h for row in self.rows) * 1e6 / self.changes

    def us_per_change(self) -> float:
        return self.normalised_seconds() * 1e6 / self.changes

    def us_per_unit(self) -> float:
        """Normalised wall us per unit of offered work (the ledger's figure)."""
        return self.normalised_seconds() * 1e6 / sum(row.units for row in self.rows)

    def segment_rates(self) -> list[float]:
        """Normalised wme-changes/s of each segment."""
        return [row.changes / row.wall_s * row.h for row in self.rows if row.wall_s]

    def end_to_end(self, startup_s: float) -> dict[str, tuple[float, str]]:
        """The six gated metrics.

        Rate and CPU are whole-run figures: all the fixed work over the
        sum of the segments' normalised times.  (The median over
        segments flaps where the rate has a trend and rare expensive
        requests -- 30% between runs of serve_durable -- and hides the
        collector stalls a user pays for.)
        """
        ordered = sorted(self.latencies_ms)
        return {
            "setup_s": (startup_s + statistics.median(self.setups_s), "s"),
            "wme_changes_per_s": (self.rate(), "1/s"),
            "latency_ms_p50": (percentile(ordered, 50), "ms"),
            "latency_ms_p95": (percentile(ordered, 95), "ms"),
            "cpu_us_per_change": (self.cpu_us_per_change(), "us"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def raw_lines(self) -> list[str]:
        """The un-normalised figures printed beside every metric."""
        raw = sorted(self.raw_latencies_ms)
        cpu_s = sum(row.cpu_s for row in self.rows)
        hq = quartiles([row.h for row in self.rows])
        rq = quartiles(self.segment_rates())
        return [
            f"raw: {self.changes} wme-changes and {self.firings} firings in "
            f"{self.wall_s:.3f} s = {self.changes / self.wall_s:.0f}/s, "
            f"{cpu_s * 1e6 / max(1, self.changes):.2f} us CPU per change",
            f"raw latency ms over {len(raw)} samples: p50 {percentile(raw, 50):.3f} "
            f"p95 {percentile(raw, 95):.3f} p99 {percentile(raw, 99):.3f} "
            f"(normalised p99 {percentile(sorted(self.latencies_ms), 99):.3f}, not gated)",
            f"host factor h over {len(self.rows)} segments: "
            f"q1 {hq[0]:.3f} median {hq[1]:.3f} q3 {hq[2]:.3f}",
            f"per-segment normalised wme_changes_per_s: q1 {rq[0]:.0f} median {rq[1]:.0f} "
            f"q3 {rq[2]:.0f}",
            "set-ups s (normalised): " + " ".join(f"{s:.3f}" for s in self.setups_s),
        ]


def clear_compile_caches() -> None:
    """A cold set-up parses, generates and compiles again."""
    clear_shared_kernels()
    clear_cache()
    clear_program_cache()


def cold_set_up(
    factory, plan: Plan, tracer: Optional[Tracer], setups: int, into: list[float]
) -> Workload:
    """Set up *setups* times from cold; keep the last one for the run."""
    workload: Optional[Workload] = None
    for attempt in range(setups):
        if workload is not None:
            workload.close()
        clear_compile_caches()
        h = host_factor()
        started = time.perf_counter()
        workload = factory(plan, tracer)
        try:
            workload.set_up()
        except BaseException:
            workload.close()
            raise
        into.append((time.perf_counter() - started) / h)
    assert workload is not None
    return workload


def timed_region(workload: Workload, into: Measurement) -> None:
    """All clients stop, the calibration loop runs, the segment runs.

    A segment's host factor is the mean of the loops before and after
    it (the one after is the next segment's before), so a speed change
    inside the segment is half seen rather than missed.
    """
    before = host_factor()
    for index in range(SEGMENTS):
        cpu0 = workload.cpu_seconds()
        started = time.perf_counter()
        segment = workload.run_segment(index)
        wall = time.perf_counter() - started
        cpu = workload.cpu_seconds() - cpu0
        after = host_factor()
        h = (before + after) / 2.0
        before = after
        into.rows.append(
            SegmentRow(h, wall, cpu, segment.changes, segment.firings, segment.attempted)
        )
        absorb(into, segment, h)


def absorb(into: Measurement, segment: Segment, h: Optional[float]) -> None:
    into.attempted += segment.attempted
    into.failed += segment.failed
    if h is not None:
        into.raw_latencies_ms.extend(s * 1e3 for s in segment.latencies)
        into.latencies_ms.extend(s * 1e3 / h for s in segment.latencies)


def measure(
    factory,
    plan: Plan,
    tracer: Optional[Tracer] = None,
    setups: int = SETUPS,
    inspect: Optional[Callable[[Workload, Measurement], None]] = None,
) -> Measurement:
    """One pass: cold set-ups, the timed region, the checks, tear-down.

    *inspect* sees the live workload after the checks -- the traced run
    reads the layers' public counters there.
    """
    result = Measurement(plan.workload)
    workload = cold_set_up(factory, plan, tracer, setups, result.setups_s)
    try:
        if tracer is not None:
            tracer.reset()
        timed_region(workload, result)
        workload.seal()
        absorb(result, workload.finish(), None)
        result.peak_rss_mb = workload.rss_mb
        result.problems = workload.verify()
        if inspect is not None:
            inspect(workload, result)
    finally:
        workload.close()
    return result
