"""The multiprocessor simulator for parallel Rete (paper Sections 5-6).

Replays node-activation traces on a parametric shared-memory machine
model and reports the paper's metrics: concurrency, true speed-up,
wme-changes/sec, and the overhead decomposition.
"""

from .._lazy import lazy_exports

#: The package's names by submodule, each imported on first use:
#: importing :mod:`repro.psim.partition` (the live partitioner, which a
#: served worker runs) loads no simulator.
_EXPORTS = {
    ".bounds": ("MakespanBounds", "schedule_bounds"),
    ".des": ("ChannelPool", "EventQueue", "Semaphore"),
    ".gantt": ("render_gantt",),
    ".granularity": ("Batch", "CONFLICT_SET_LOCK", "Schedule", "SimTask", "build_schedule"),
    ".machine": (
        "GRANULARITY_INTRA_NODE", "GRANULARITY_NODE", "GRANULARITY_PRODUCTION",
        "MachineConfig", "PAPER_PSM", "PRODUCTION_PARALLEL_PSM",
        "SCHEDULER_HARDWARE", "SCHEDULER_SOFTWARE",
    ),
    ".metrics": (
        "SimulationResult", "TaskPlacement", "average_concurrency",
        "average_speed", "average_true_speedup",
    ),
    ".partition": (
        "build_partitioned_schedule", "lpt_partition", "partition_imbalance",
        "production_costs", "simulate_partitioned",
    ),
    ".simulator": ("simulate", "simulate_many", "simulate_schedule", "sweep_processors"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
