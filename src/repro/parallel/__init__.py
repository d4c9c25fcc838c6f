"""The partitioned matcher and its differential validation.

Where :mod:`repro.psim` *predicts* the paper's machine by simulation,
this package measures the one term of its lost factor a GIL interpreter
can measure live: productions are partitioned over N compiled kernels
that share one conflict set on the caller's thread, so the rate against
serial ``compiled`` is the loss of node sharing.  Scheduling and
synchronisation are simulated, not executed (``docs/parallel-backend.md``).

Public surface:

* :class:`ParallelMatcher` -- the engine-pluggable matcher backend;
* :func:`~repro.parallel.partition.assign_productions` and
  :func:`~repro.parallel.partition.measure_sharing_loss` -- the
  partitioner and the live sharing-loss measurement;
* :func:`~repro.parallel.validate.compare_backends` -- differential
  validation of any backend set.
"""

from .executor import ParallelMatcher
from .partition import (
    Partition,
    SharingLoss,
    assign_productions,
    measure_sharing_loss,
)
from .validate import (
    DifferentialReport,
    RunRecord,
    compare_backends,
    run_recorded,
)

__all__ = [
    "ParallelMatcher",
    "Partition",
    "SharingLoss",
    "assign_productions",
    "measure_sharing_loss",
    "DifferentialReport",
    "RunRecord",
    "compare_backends",
    "run_recorded",
]
