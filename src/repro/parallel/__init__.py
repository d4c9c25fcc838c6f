"""Live parallel match execution.

Where :mod:`repro.psim` *predicts* the paper's machine by discrete-event
simulation, this package *executes* match work on a pool of shards:
productions are partitioned over thread shards in the caller's address
space, each owning a compiled kernel over its slice of the rules, with
a work-queue coordinator and a batch barrier per recognize--act cycle.
See ``docs/parallel-backend.md`` for the architecture and its GIL-driven
design constraints.

Public surface:

* :class:`ParallelMatcher` -- the engine-pluggable matcher backend;
* :func:`~repro.parallel.partition.assign_productions` and
  :func:`~repro.parallel.partition.measure_sharing_loss` -- the
  partitioner and the live sharing-loss measurement;
* :func:`~repro.parallel.validate.compare_backends` /
  :func:`~repro.parallel.validate.validate_parallel` -- differential
  validation of any backend set.
"""

from .executor import ParallelMatcher, WorkQueue, default_worker_count
from .partition import (
    Partition,
    SharingLoss,
    assign_productions,
    measure_sharing_loss,
    route_classes,
)
from .validate import (
    DifferentialReport,
    RunRecord,
    compare_backends,
    run_recorded,
    validate_parallel,
)

__all__ = [
    "ParallelMatcher",
    "WorkQueue",
    "default_worker_count",
    "Partition",
    "SharingLoss",
    "assign_productions",
    "measure_sharing_loss",
    "route_classes",
    "DifferentialReport",
    "RunRecord",
    "compare_backends",
    "run_recorded",
    "validate_parallel",
]
