"""The chaos harness for the serve fleet.

:func:`~repro.faults.chaos.fleet_chaos` SIGKILLs real worker processes
of a durable fleet under load and proves every session's continuation
bit-identical to a no-fault run (CLI: ``repro chaos``).

See ``docs/fault-tolerance.md`` for the durability/recovery contract.
"""

from .chaos import FleetChaosReport, fleet_chaos

__all__ = ["FleetChaosReport", "fleet_chaos"]
