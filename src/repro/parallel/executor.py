"""The partitioned matcher: N compiled kernels on one conflict set.

``matcher="parallel"`` is serial :class:`~repro.kernel.matcher.CompiledMatcher`
with one difference: the ruleset is split into ``max(1, workers)``
partitions (:func:`~repro.parallel.partition.assign_productions`) and
each non-empty one attaches its own :class:`~repro.kernel.runtime.KernelRuntime`
to the matcher's single :class:`~repro.ops5.conflict.ConflictSet`.
Every working-memory change goes to every runtime in turn, on the
caller's thread; a runtime whose partition has no condition element of
the WME's class drops it at one dict probe.

Nothing runs concurrently.  The thread scheduler, work queue and flush
barrier that used to drive the partitions read 0.48x of serial
``compiled`` and were deleted (EXPERIMENTS.md, "Thread shards: measured,
lost, deleted").  What is left measures the paper's first lost-factor
term: a partition splits the first-level groups the serial kernel
shares, so this matcher's rate over ``compiled``'s is the loss of node
sharing.

Partitions hold disjoint productions, so their conflict-set edits touch
disjoint keys and commute: applying them as they happen needs no merge,
and the firing sequence is ``compiled``'s for every partition count.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..kernel.runtime import KernelRuntime
from ..kernel.shared import shared_kernel
from ..obs.recorder import NULL_RECORDER, Recorder
from ..ops5.errors import Ops5Error
from ..ops5.matcher import Matcher
from ..ops5.production import Production
from ..ops5.wme import WME
from .partition import Partition, assign_productions

class ParallelMatcher(Matcher):
    """A :class:`~repro.ops5.matcher.Matcher` over partitioned kernels.

    Parameters
    ----------
    workers:
        Partitions; ``0`` and ``1`` both mean one, ``None`` is 2 (nothing
        runs on a second core, so the host's core count has no say).
    recorder:
        Optional :class:`~repro.obs.Recorder`; a rebuild records one
        ``kernel:compile`` span, as ``CompiledMatcher`` does.
    transport:
        ``"local"``, the one value left; the removed process transports
        (``pipe``, ``ring``, ``auto``) raise :class:`Ops5Error`.
    """

    def __init__(
        self,
        workers: int | None = None,
        recorder: Optional[Recorder] = None,
        transport: str = "local",
    ) -> None:
        super().__init__()
        if workers is None:
            workers = 2
        if workers < 0:
            raise Ops5Error("workers must be >= 0")
        if transport != "local":
            raise Ops5Error(
                f"transport {transport!r} is not available: the process "
                "transports (pipe, ring, auto) were removed; partitions "
                "live in the caller's address space ('local')"
            )
        self.workers = workers
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._productions: dict[str, Production] = {}
        self._wmes: dict[int, WME] = {}
        self._runtimes: list[KernelRuntime] = []
        self._dirty = False

    # -- production edits -------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return self._productions.values()

    def add_production(self, production: Production) -> None:
        if production.name in self._productions:
            raise Ops5Error(f"production {production.name!r} already registered")
        self._productions[production.name] = production
        self._after_ruleset_edit()

    def remove_production(self, name: str) -> None:
        if name not in self._productions:
            raise Ops5Error(f"no production named {name!r}")
        del self._productions[name]
        self._after_ruleset_edit()

    def _after_ruleset_edit(self) -> None:
        # CompiledMatcher's policy: one build per final ruleset shape
        # while WM is empty; with WMEs resident the engine may read the
        # conflict set next, so fold the edit in now.
        if self._wmes:
            self._rebuild()
        else:
            self._dirty = True

    def partition_snapshot(self) -> list[Partition]:
        """The production -> partition distribution (a pure function of
        the ruleset: every rebuild re-partitions from scratch)."""
        productions = list(self._productions.values())
        return assign_productions(productions, max(1, self.workers))

    def _rebuild(self) -> None:
        partitions = self.partition_snapshot()
        with self._recorder.span(
            "kernel:compile",
            cat="kernel",
            productions=len(self._productions),
            wmes=len(self._wmes),
            partitions=len(partitions),
        ):
            self.conflict_set.clear()
            # Replay is quiet: no stats rows, and each runtime's
            # counters are read as deltas around later changes only.
            wmes = [self._wmes[t] for t in sorted(self._wmes)]
            self._runtimes = [
                shared_kernel(p.productions).attach(
                    self.conflict_set, p.productions, wmes
                )
                for p in partitions
                if p.productions
            ]
            self._dirty = False

    # -- WME changes -------------------------------------------------------

    def add_wme(self, wme: WME) -> None:
        if self._dirty:
            self._rebuild()
        self._wmes[wme.timetag] = wme
        self._change("add", wme, KernelRuntime.add_wme)

    def remove_wme(self, wme: WME) -> None:
        if wme.timetag not in self._wmes:
            raise Ops5Error(f"WME {wme!r} was never added to this matcher")
        if self._dirty:
            self._rebuild()
        self._change("remove", wme, KernelRuntime.remove_wme)
        del self._wmes[wme.timetag]

    def _change(self, kind: str, wme: WME, apply) -> None:
        """One change through every partition, summed into one stats row."""
        affected = activations = comparisons = tokens = 0
        for runtime in self._runtimes:
            counters = runtime.counters
            a, c, t = counters
            affected += apply(runtime, wme)
            activations += counters[0] - a
            comparisons += counters[1] - c
            tokens += counters[2] - t
        self.stats.record(kind, wme.cls, affected, activations, comparisons, tokens)
