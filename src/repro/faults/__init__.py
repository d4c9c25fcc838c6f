"""Fault injection and chaos harnessing for the serve fleet.

:class:`FaultPlan` schedules deterministic failures (request errors,
slow requests) that serve sessions consult, and
:func:`~repro.faults.chaos.fleet_chaos` SIGKILLs real worker processes
of a durable fleet under load and proves every session's continuation
bit-identical to a no-fault run.

See ``docs/fault-tolerance.md`` for the durability/recovery contract.
"""

from .chaos import FleetChaosReport, fleet_chaos
from .plan import ERROR, SESSION, SESSION_KINDS, SLOW, FaultPlan, FaultSpec

__all__ = [
    "ERROR",
    "SESSION",
    "SESSION_KINDS",
    "SLOW",
    "FaultPlan",
    "FaultSpec",
    "FleetChaosReport",
    "fleet_chaos",
]
