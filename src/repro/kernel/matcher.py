"""The compiled matcher: drives generated kernels behind the Matcher ABC.

:class:`CompiledMatcher` is a drop-in peer of the interpreted matchers
(``matcher_named("compiled")``).  It keeps the production list, reads
the engine's working memory (``Matcher.memory``), compiles the ruleset
on demand (through the process-wide registry keyed by structural
fingerprint, see ``kernel/shared.py``), and dispatches each WME change
to the generated class entries.

Rebuild policy
--------------
The kernel is compiled lazily: production edits only mark the matcher
dirty while working memory is empty (the common case -- a program loads
all productions, then WMEs arrive), so loading N productions costs one
compile, not N.  The immutable half (codegen, ``compile()``, module
``exec``) lives in the process-wide :mod:`~repro.kernel.shared`
registry, so a rebuild on an already-seen ruleset shape is just a fresh
:class:`~repro.kernel.runtime.KernelRuntime` attach -- closure
construction plus WM replay, zero codegen.  Once WMEs exist, a
production edit rebuilds immediately -- the engine may inspect the
conflict set right after -- by clearing the conflict set and replaying
working memory through the fresh kernel in timetag order.  The lazy
compile runs inside the first ``add_wme``, when working memory already
holds the entering WME: it replays the older ones, and that WME is then
matched once, as a change.  Replay is *quiet*: no per-change stats
rows, and the effort counters are set back to their pre-replay values
after it, so measurements reflect only real WM traffic (the interpreted
Rete's ``add_production`` folds existing WM the same way).

Each WME change is one call per partition of the generated entry for
its class (``runtime.adds[cls]`` / ``runtime.removes[cls]``: the alpha
network, store edits, subscribers -- the probe ``KernelRuntime.add_wme``
/ ``remove_wme`` make, inline); this class only counts the change.  The
effort totals need no bookkeeping here: the generated code increments
``MatchStats.effort`` itself.

Partitions
----------
``CompiledMatcher(partitions=N)`` splits the ruleset into N bins
(:func:`~repro.psim.partition.assign_productions`) and attaches one
runtime per non-empty bin to the matcher's single conflict set;
``matcher_named("parallel", workers=N)`` is this matcher.  A change goes
to every runtime in turn, on the caller's thread (a runtime whose
partition has no condition element of the WME's class drops it at one
dict probe), and every runtime increments the matcher's one effort
list, so a change is one ``MatchStats`` row whatever N is.  Partitions
hold disjoint productions, so their conflict-set edits touch disjoint
keys and commute: there is no merge step, and the firing sequence is
the same for every N.  What a partition costs is the first-level groups
the single kernel shares (``kernel_summary()["partitions"]``): the
paper's loss of node sharing, measured live.  One partition, the
default, takes the same path.

Checking
--------
The matcher is checked from outside.  ``check_kernel``
(``repro run --verify``) audits its store counts and right indexes
against working memory; the fuzz fleet (``repro fuzz``) compares its
conflict set and firings with the interpreted matchers' after every
op; ``tests/kernel/test_sharing.py``
drives a node-walking :class:`~repro.rete.ReteNetwork` beside it.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Iterable, Optional

from ..obs.recorder import NULL_RECORDER, Recorder
from ..ops5.errors import Ops5Error
from ..ops5.matcher import ChangeRecord, Matcher
from ..ops5.production import Production
from ..ops5.wme import WME, live_layout
from ..psim.partition import Partition, assign_productions
from .codegen import alpha_index_summary, sharing_summary
from .runtime import KernelRuntime
from .shared import SharedKernel, shared_kernel, shared_kernel_stats

__all__ = ["CompiledMatcher", "KernelRuntime"]


class CompiledMatcher(Matcher):
    """Matcher backed by per-ruleset generated code (see package docs)."""

    def __init__(
        self,
        recorder: Optional[Recorder] = None,
        partitions: int = 1,
    ) -> None:
        super().__init__()
        if partitions < 1:
            raise Ops5Error("partitions must be >= 1")
        self.partitions = partitions
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._productions: dict[str, Production] = {}
        #: [node activations, comparisons, tokens built]: the stats' own
        #: effort list, incremented by every partition's generated code.
        self._counters = self.stats.effort
        self._runtimes: list[KernelRuntime] = []
        self._kernels: list[SharedKernel] = []
        self._dirty = True
        self._compiles = 0
        self._replayed = 0
        self._shape: Optional[dict] = None  # kernel_summary's, per rebuild

    # -- production edits -------------------------------------------------

    def add_production(self, production: Production) -> None:
        if production.name in self._productions:
            raise Ops5Error(f"production {production.name!r} is already registered")
        self._productions[production.name] = production
        self._after_ruleset_edit()

    def remove_production(self, name: str) -> None:
        if name not in self._productions:
            raise Ops5Error(f"unknown production {name!r}")
        del self._productions[name]
        self._after_ruleset_edit()

    def _after_ruleset_edit(self) -> None:
        self._shape = None
        if self.memory:
            # The engine may read the conflict set before the next WME
            # change, so fold the edit in now.
            self._rebuild()
        else:
            self._dirty = True

    # -- WME changes -------------------------------------------------------

    def add_wme(self, wme: WME) -> None:
        if self._dirty:
            self._rebuild(wme.timetag)
        stats = self.stats
        audit = stats.changes is not None
        before = tuple(self._counters) if audit else None
        affected = 0
        cls = wme.cls
        for runtime in self._runtimes:
            entry = runtime.adds.get(cls)
            if entry is not None:
                affected += entry(wme)
        # MatchStats.record, inline: this is every ``make``'s path.
        stats.total_changes += 1
        stats.total_affected_productions += affected
        if audit:
            self._audit("add", wme, affected, before)

    def remove_wme(self, wme: WME) -> None:
        stats = self.stats
        audit = stats.changes is not None
        before = tuple(self._counters) if audit else None
        affected = 0
        cls = wme.cls
        for runtime in self._runtimes:
            entry = runtime.removes.get(cls)
            if entry is not None:
                affected += entry(wme)
        stats.total_changes += 1
        stats.total_affected_productions += affected
        if audit:
            self._audit("remove", wme, affected, before)

    def _audit(self, kind: str, wme: WME, affected: int, before: tuple) -> None:
        """Off the default path: the change's stats row."""
        effort = (now - then for now, then in zip(self._counters, before))
        self.stats.changes.append(ChangeRecord(kind, wme.cls, affected, *effort))

    # -- compilation -------------------------------------------------------

    def partition_snapshot(self) -> list[Partition]:
        """The production -> partition distribution (a pure function of
        the ruleset: every rebuild re-partitions from scratch)."""
        return assign_productions(list(self._productions.values()), self.partitions)

    def _rebuild(self, before: float = float("inf")) -> None:
        """Attach fresh runtimes and replay the WMEs older than timetag
        *before* into them: an ``add_wme`` that compiles passes its own,
        which it then matches as a change; the newer are not given yet."""
        partitions = self.partition_snapshot()
        wmes = [wme for wme in self.memory.snapshot() if wme.timetag < before]
        with self._recorder.span(
            "kernel:compile",
            cat="kernel",
            productions=len(self._productions),
            wmes=len(wmes),
            partitions=len(partitions),
        ):
            # Process-wide immutable half: codegen + compile() + module
            # exec happen at most once per ruleset shape, in the shared
            # registry.  This call is a pure lookup on the warm path.
            built = [
                (shared_kernel(p.productions), p.productions)
                for p in partitions
                if p.productions
            ]
            self.conflict_set.clear()
            # Per-session mutable half: fresh closures over the shared
            # code objects, then a quiet O(WM) replay -- no per-change
            # stats rows, and the effort it counted undone.
            counters = self._counters
            quiet = counters[:]
            self._runtimes = [
                kernel.attach(self.conflict_set, productions, wmes, counters)
                for kernel, productions in built
            ]
            counters[:] = quiet
            self._kernels = [kernel for kernel, _productions in built]
            self._compiles += 1
            self._dirty = False
            self._shape = None
            self._replayed += len(wmes)

    # -- introspection -----------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return list(self._productions.values())

    @property
    def runtimes(self) -> list[KernelRuntime]:
        """The live per-partition kernel states (none before first compile)."""
        return self._runtimes

    @property
    def kernels(self) -> list[SharedKernel]:
        """The process-wide kernels the partitions are attached to."""
        return self._kernels

    @property
    def generated_source(self) -> Optional[str]:
        """Source of the current kernels (debugging / docs examples)."""
        if not self._kernels:
            return None
        return "\n".join(kernel.source for kernel in self._kernels)

    def state_size(self) -> int:
        """WMEs held across all partitions' stores: one per (store, WME)
        pair, read from the stores' counts.  Not :meth:`ReteNetwork.state_size`'s dict -- the kernel
        keeps no beta tokens to count (ROADMAP item 20)."""
        return sum(runtime.state_size() for runtime in self._runtimes)

    def kernel_summary(self) -> dict:
        """The ``kernel`` section of the unified metrics snapshot; the
        ruleset-shaped blocks are planned once per ruleset and rebuild."""
        runtimes = self._runtimes
        if self._shape is None:
            partitions = self.partition_snapshot()
            slices = [runtime.productions for runtime in runtimes]
            sizes = [sharing_summary(p.productions)["sizes"] for p in partitions]
            self._shape = {
                # One per CE, less the CE 0s a first-level group shares.
                "subscriptions": sum(len(p.analysis) for ps in slices for p in ps)
                - sum(sum(s) - len(s) for s in sizes) if runtimes else 0,
                "alpha_index": alpha_index_summary(slices) if runtimes else None,
                "sharing": sharing_summary(self.productions),
                # What partitioning costs: each partition regroups its own
                # slice, against the single kernel's ``sharing.sizes``.
                "partitions": {
                    "count": len(partitions),
                    "productions": [len(p.productions) for p in partitions],
                    "weights": [p.weight for p in partitions],
                    "group_sizes": sizes,
                },
            }
        return {
            "compiles": self._compiles,
            "ruleset_digest": ",".join(k.digest for k in self._kernels) or None,
            "stores": sum(len(runtime.stores) for runtime in runtimes),
            "store_rows": self.state_size(),
            **deepcopy(self._shape),  # a caller's edit must not reach the next call
            "replayed_wmes": self._replayed,
            "layouts": {cls: {"width": len(l.names), "overflowed": l.overflowed}
                        for cls in sorted({ce.cls for p in self.productions for ce in p.conditions})
                        if (l := live_layout(cls)) is not None},
            "shared": shared_kernel_stats(),
        }
