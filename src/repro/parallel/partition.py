"""Partitioning productions across shard workers.

The live executor distributes the Rete network the way the paper's
Section 5 machine distributes node memories: every production's nodes
(and therefore its alpha and beta memories) live in exactly one
partition, so a node's memory is only ever touched by its owning
worker -- memory-partition ownership *is* the per-node lock, held with
zero contention.  What distribution costs is *sharing*: alpha memories
and constant-test chains shared between productions in the serial
network are replicated into every partition using them.  That is the
paper's "loss of node sharing", and :func:`measure_sharing_loss`
reports the live analogue of the calibrated 1.48 inflation factor.

Assignment is greedy balanced: productions are sorted by descending
static weight (elementary test count -- the same specificity measure
LEX uses) and each goes to the currently lightest shard.  The order is
made deterministic by breaking weight ties on the production name, so
equal inputs give equal partitions on every run and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..ops5.production import Production


@dataclass
class Partition:
    """One shard's share of the program."""

    index: int
    productions: list[Production] = field(default_factory=list)
    weight: float = 0.0

    @property
    def classes(self) -> set[str]:
        """WME classes any of this shard's condition elements mention."""
        return {ce.cls for p in self.productions for ce in p.conditions}

    @property
    def names(self) -> tuple[str, ...]:
        """The production names placed on this shard, placement order."""
        return tuple(p.name for p in self.productions)


def production_weight(production: Production) -> float:
    """Static cost estimate used for balancing (elementary test count)."""
    return float(production.specificity)


def assign_productions(
    productions: Sequence[Production],
    shards: int,
    weights: Mapping[str, float] | None = None,
) -> list[Partition]:
    """Deterministically balance *productions* over *shards* partitions.

    ``weights`` overrides the static estimate per production name --
    callers with profile data (e.g. measured comparisons per rule) can
    rebalance on real costs.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    partitions = [Partition(i) for i in range(shards)]
    def weight_of(production: Production) -> float:
        if weights and production.name in weights:
            return float(weights[production.name])
        return production_weight(production)

    ordered = sorted(productions, key=lambda p: (-weight_of(p), p.name))
    for production in ordered:
        lightest = min(partitions, key=lambda s: (s.weight, s.index))
        lightest.productions.append(production)
        lightest.weight += weight_of(production)
    return partitions


def route_classes(partitions: Iterable[Partition]) -> dict[str, tuple[int, ...]]:
    """The alpha router: WME class -> shard indices that must see it.

    This is the partitioned alpha network's top level: a change is
    broadcast only to partitions holding a condition element of its
    class; everyone else never even hears about it.
    """
    table: dict[str, set[int]] = {}
    for partition in partitions:
        for cls in partition.classes:
            table.setdefault(cls, set()).add(partition.index)
    return {cls: tuple(sorted(ids)) for cls, ids in table.items()}


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
