"""Partitioning productions across the parallel matcher's kernels.

Every production's nodes (and therefore its alpha and beta memories)
live in exactly one partition, the way the paper's Section 5 machine
distributes node memories.  What distribution costs is *sharing*: alpha
memories, constant-test chains and first-level join groups shared
between productions in the serial network are replicated into every
partition using them.  That is the paper's "loss of node sharing", and
:func:`measure_sharing_loss` reports the live analogue of the
calibrated 1.48 inflation factor.

Assignment is the LPT greedy of :mod:`repro.psim.partition` -- heaviest
first, ties by name, onto the lightest bin, ties by index -- over each
production's static weight (elementary test count, the specificity
measure LEX uses), so equal inputs give equal partitions on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..ops5.production import Production
from ..psim.partition import lpt_partition


@dataclass
class Partition:
    """One partition's share of the program."""

    index: int
    productions: list[Production] = field(default_factory=list)
    weight: float = 0.0

    @property
    def names(self) -> tuple[str, ...]:
        """The production names placed here, in placement order."""
        return tuple(p.name for p in self.productions)


def assign_productions(
    productions: Sequence[Production], shards: int
) -> list[Partition]:
    """Deterministically balance *productions* over *shards* partitions.

    The packing is :func:`repro.psim.partition.lpt_partition` over each
    production's specificity; a partition lists its productions in
    placement order, heaviest first.
    """
    by_name = {p.name: p for p in productions}
    weights = {name: float(p.specificity) for name, p in by_name.items()}
    partitions = [Partition(i) for i in range(shards)]
    for name, index in lpt_partition(weights, shards).items():
        partitions[index].productions.append(by_name[name])
        partitions[index].weight += weights[name]
    return partitions


@dataclass(frozen=True)
class SharingLoss:
    """Replication cost of distributing the network (paper Section 6).

    ``factor`` compares the distributed node count against the shared
    serial network's: 1.0 means the partition happened to share nothing
    anyway; the paper calibrates the work-inflation analogue at 1.48.
    """

    serial_nodes: int
    distributed_nodes: int

    @property
    def factor(self) -> float:
        if not self.serial_nodes:
            return 1.0
        return self.distributed_nodes / self.serial_nodes


def measure_sharing_loss(partitions: Sequence[Partition]) -> SharingLoss:
    """Compile each partition and the union network; compare node counts."""
    from ..rete.network import ReteNetwork  # deferred: keep import cheap

    def node_count(productions: Iterable[Production]) -> int:
        net = ReteNetwork()
        for production in productions:
            net.add_production(production)
        return net.nodes_created

    serial = node_count(p for s in partitions for p in s.productions)
    distributed = sum(node_count(s.productions) for s in partitions)
    return SharingLoss(serial_nodes=serial, distributed_nodes=distributed)
