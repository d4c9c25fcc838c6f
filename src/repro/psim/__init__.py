"""The multiprocessor simulator for parallel Rete (paper Sections 5-6).

Replays node-activation traces on a parametric shared-memory machine
model and reports the paper's metrics: concurrency, true speed-up,
wme-changes/sec, and the overhead decomposition.
"""

from .bounds import MakespanBounds, schedule_bounds
from .des import ChannelPool, EventQueue, Semaphore
from .gantt import render_gantt
from .granularity import (
    Batch,
    CONFLICT_SET_LOCK,
    Schedule,
    SimTask,
    build_schedule,
)
from .machine import (
    GRANULARITY_INTRA_NODE,
    GRANULARITY_NODE,
    GRANULARITY_PRODUCTION,
    MachineConfig,
    PAPER_PSM,
    PRODUCTION_PARALLEL_PSM,
    SCHEDULER_HARDWARE,
    SCHEDULER_SOFTWARE,
)
from .partition import (
    build_partitioned_schedule,
    lpt_partition,
    partition_imbalance,
    production_costs,
    simulate_partitioned,
)
from .metrics import (
    SimulationResult,
    TaskPlacement,
    average_concurrency,
    average_speed,
    average_true_speedup,
)
from .simulator import simulate, simulate_many, simulate_schedule, sweep_processors

__all__ = [
    "Batch",
    "CONFLICT_SET_LOCK",
    "ChannelPool",
    "EventQueue",
    "GRANULARITY_INTRA_NODE",
    "GRANULARITY_NODE",
    "GRANULARITY_PRODUCTION",
    "MachineConfig",
    "MakespanBounds",
    "PAPER_PSM",
    "PRODUCTION_PARALLEL_PSM",
    "SCHEDULER_HARDWARE",
    "SCHEDULER_SOFTWARE",
    "Schedule",
    "Semaphore",
    "SimTask",
    "SimulationResult",
    "TaskPlacement",
    "average_concurrency",
    "build_partitioned_schedule",
    "schedule_bounds",
    "lpt_partition",
    "partition_imbalance",
    "production_costs",
    "simulate_partitioned",
    "average_speed",
    "average_true_speedup",
    "build_schedule",
    "render_gantt",
    "simulate",
    "simulate_many",
    "simulate_schedule",
    "sweep_processors",
]
