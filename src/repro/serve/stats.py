"""Serving-side telemetry: counters, latency percentiles, throughput.

The paper reports *sustained* execution speed -- wme-changes/sec and
firings/sec over a whole run (Section 6, Figure 6-2) -- so the serving
layer keeps exactly those totals, per session and server-wide, plus the
request-latency distribution a service operator actually watches
(p50/p95/p99 over a sliding window of recent requests).

Everything here is plain synchronous bookkeeping, written and read on
the worker's one event loop thread, so none of it needs a lock.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field


#: Samples between refreshes of :attr:`LatencyWindow.recent_p50`.
MEDIAN_REFRESH = 64


def live_threads() -> int:
    """Live ``repro-*`` threads in this process: embedded event loops and
    journal committers (the ``threads`` figure of a ``stats`` header).
    Sessions have no thread of their own."""
    return sum(t.name.startswith("repro-") for t in threading.enumerate())


class LatencyWindow:
    """Percentiles over the most recent *capacity* request latencies.

    A bounded window rather than a full history: a long-running server
    must report *current* tail latency, and an unbounded list would both
    leak and average away regressions.  With the default capacity the
    p99 still rests on ~20 samples.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._samples: deque[float] = deque(maxlen=capacity)
        self.count = 0  # lifetime samples, beyond the window
        self._recent_p50 = 0.0
        self._p50_due = 1  # lifetime count at which the cache goes stale

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1

    def percentiles(self, *ps: float) -> list[float]:
        """The *ps*-th percentiles (0..100) from ONE sort; 0.0s when empty.

        Nearest-rank (``ceil(p/100 * n)``, 1-based) on the sorted
        window -- monotone in *p* and exact at the sample points, which
        is all a service dashboard needs.  ``round()`` is *not* a
        substitute: Python rounds half to even, so e.g. p50 of five
        samples would land on index 1 instead of the true median.
        """
        if any(not 0 <= p <= 100 for p in ps):
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self._samples)
        if not ordered:
            return [0.0] * len(ps)
        last = len(ordered) - 1
        return [
            ordered[max(0, min(last, math.ceil(p / 100 * len(ordered)) - 1))]
            for p in ps
        ]

    def percentile(self, p: float) -> float:
        return self.percentiles(p)[0]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def recent_p50(self) -> float:
        """The window median as of its last refresh, O(1) between them.

        Refreshed on a read once the window has doubled (while small) or
        taken :data:`MEDIAN_REFRESH` more samples: a backpressure storm,
        which reads this per rejection and records nothing, never sorts.
        """
        if self.count >= self._p50_due:
            self._recent_p50 = self.percentile(50)
            self._p50_due = self.count + min(self.count, MEDIAN_REFRESH)
        return self._recent_p50

    def summary(self) -> dict:
        """``samples`` + p50/p95/p99, one sort (a ``stats`` row)."""
        p50, p95, p99 = self.percentiles(50, 95, 99)
        return {"samples": self.count, "p50": p50, "p95": p95, "p99": p99}


@dataclass
class Telemetry:
    """Counters + latency window for one session (or the whole server)."""

    #: Requests that reached execution (backpressure rejections excluded).
    requests: int = 0
    #: Requests answered with an error reply.
    errors: int = 0
    #: Requests rejected with backpressure (never enqueued).
    rejected: int = 0
    #: Requests whose caller-supplied deadline expired before the reply.
    deadline_exceeded: int = 0
    #: WME changes processed: ingested batches plus changes made by
    #: production firings (the paper's wme-changes metric).
    wme_changes: int = 0
    #: Production firings executed by run requests.
    firings: int = 0
    #: Accept -> reply, stamped on the event loop.
    latency: LatencyWindow = field(default_factory=LatencyWindow)
    #: Accept -> start of execution: the wait for the session's turn.
    queue_wait: LatencyWindow = field(default_factory=LatencyWindow)
    started: float = field(default_factory=time.monotonic)

    @property
    def uptime(self) -> float:
        return time.monotonic() - self.started

    @property
    def wme_changes_per_second(self) -> float:
        """Sustained ingestion+firing change rate since start."""
        elapsed = self.uptime
        return self.wme_changes / elapsed if elapsed else 0.0

    @property
    def firings_per_second(self) -> float:
        elapsed = self.uptime
        return self.firings / elapsed if elapsed else 0.0

    #: The fields a rollup sums (the rest are clocks and windows).
    COUNTERS = ("requests", "errors", "rejected", "deadline_exceeded", "wme_changes", "firings")

    def absorb(self, other: "Telemetry") -> None:
        """Fold *other*'s counters into this one (server-wide rollup)."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def counters(self) -> dict:
        """The :data:`COUNTERS` alone (the ``totals`` of a rollup)."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def snapshot(self) -> dict:
        """A JSON-ready view (the payload of a ``stats`` reply)."""
        return {
            **self.counters(),
            "uptime_seconds": self.uptime,
            "wme_changes_per_second": self.wme_changes_per_second,
            "firings_per_second": self.firings_per_second,
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
        }
