"""Simulation results and the paper's performance metrics.

The quantities Section 6 reports:

* **concurrency** -- average number of processors kept busy
  (Figure 6-1); "busy" includes scheduling, synchronisation, and
  inflated work, which is why it exceeds...
* **true speed-up** -- execution time of the best serial implementation
  (the shared serial Rete) divided by the parallel makespan;
* the **lost factor** between the two (paper: 15.92 / 8.25 = 1.93),
  decomposed into work inflation (sharing loss), scheduling overhead,
  and synchronisation overhead;
* **execution speed** in wme-changes/sec and production firings/sec at
  the machine's MIPS rating (Figure 6-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .machine import MachineConfig


@dataclass(frozen=True)
class TaskPlacement:
    """Where and when one task ran (recorded on request)."""

    uid: int
    kind: str
    processor: int
    start: float
    end: float


@dataclass
class SimulationResult:
    """Everything one simulator run measures.

    Time quantities are in instruction units (one unit = one
    instruction on one processor); use :attr:`seconds` and the
    throughput properties for wall-clock figures.
    """

    config: MachineConfig
    trace_name: str
    makespan: float
    #: Sum over tasks of the span their processor was occupied
    #: (dispatch wait + dispatch + sync + stretched execution).
    busy_time: float
    #: Instructions actually executed for match work (inflation and bus
    #: stretch included).
    executed_work: float
    #: The serial reference cost of the same run (shared serial Rete).
    serial_cost: float
    #: Dispatch (scheduling) instruction total.
    dispatch_work: float
    #: Synchronisation instruction total.
    sync_work: float
    #: Time processors spent waiting on dispatch queues.
    queue_wait: float
    total_tasks: int
    total_changes: int
    total_firings: int
    #: Peak processors simultaneously occupied.
    peak_concurrency: int = 0
    #: Sum of per-batch critical paths (infinite-processor bound).
    critical_path: float = 0.0
    #: Per-task (processor, start, end) spans; None unless the run was
    #: made with ``record_placements=True``.
    placements: list[TaskPlacement] | None = None

    # -- headline metrics -------------------------------------------------------

    @property
    def concurrency(self) -> float:
        """Average processors kept busy (Figure 6-1's y-axis)."""
        return self.busy_time / self.makespan if self.makespan else 0.0

    @property
    def true_speedup(self) -> float:
        """Speed-up over the best serial implementation (Section 6)."""
        return self.serial_cost / self.makespan if self.makespan else 0.0

    @property
    def lost_factor(self) -> float:
        """concurrency / true speed-up (paper: 1.93 at 32 processors)."""
        return self.concurrency / self.true_speedup if self.true_speedup else 0.0

    @property
    def seconds(self) -> float:
        return self.config.seconds(self.makespan)

    @property
    def wme_changes_per_second(self) -> float:
        """Figure 6-2's y-axis."""
        return self.total_changes / self.seconds if self.seconds else 0.0

    @property
    def firings_per_second(self) -> float:
        return self.total_firings / self.seconds if self.seconds else 0.0

    # -- loss decomposition ---------------------------------------------------------

    @property
    def work_inflation(self) -> float:
        """Executed work / serial work: the sharing-loss component."""
        return self.executed_work / self.serial_cost if self.serial_cost else 0.0

    @property
    def scheduling_fraction(self) -> float:
        """Share of busy time spent dispatching or queue-waiting."""
        if not self.busy_time:
            return 0.0
        return (self.dispatch_work + self.queue_wait) / self.busy_time

    @property
    def sync_fraction(self) -> float:
        """Share of busy time spent on lock handling."""
        return self.sync_work / self.busy_time if self.busy_time else 0.0

    @property
    def utilization(self) -> float:
        """Busy time over total processor-time."""
        capacity = self.makespan * self.config.processors
        return self.busy_time / capacity if capacity else 0.0

    def summary(self) -> str:
        """A one-paragraph human-readable report."""
        return (
            f"{self.trace_name} on {self.config.processors}p@{self.config.mips}MIPS "
            f"[{self.config.granularity}/{self.config.scheduler}]: "
            f"concurrency {self.concurrency:.2f}, true speed-up {self.true_speedup:.2f} "
            f"(lost factor {self.lost_factor:.2f}), "
            f"{self.wme_changes_per_second:.0f} wme-changes/s, "
            f"{self.firings_per_second:.0f} firings/s"
        )


def average_concurrency(results: Sequence[SimulationResult]) -> float:
    """Mean concurrency across systems (the paper's 15.92 aggregate)."""
    return sum(r.concurrency for r in results) / len(results) if results else 0.0


def average_speed(results: Sequence[SimulationResult]) -> float:
    """Mean wme-changes/sec across systems (the paper's 9400)."""
    if not results:
        return 0.0
    return sum(r.wme_changes_per_second for r in results) / len(results)


def average_true_speedup(results: Sequence[SimulationResult]) -> float:
    """Mean true speed-up across systems (the paper's 8.25)."""
    return sum(r.true_speedup for r in results) / len(results) if results else 0.0
