"""The compiled matcher: drives generated kernels behind the Matcher ABC.

:class:`CompiledMatcher` is a drop-in peer of the interpreted matchers
(``matcher_named("compiled")``).  It keeps the canonical WM mirror and
production list, compiles the ruleset on demand (cached by structural
fingerprint, see ``kernel/cache.py``), and dispatches each WME change to
the generated subscriber closures.

Rebuild policy
--------------
The kernel is compiled lazily: production edits only mark the matcher
dirty while working memory is empty (the common case -- a program loads
all productions, then WMEs arrive), so loading N productions costs one
compile, not N.  The immutable half (codegen, ``compile()``, module
``exec``) lives in the process-wide :mod:`~repro.kernel.shared`
registry, so a rebuild on an already-seen ruleset shape is just a fresh
:class:`~repro.kernel.runtime.KernelRuntime` attach -- closure
construction plus WM replay, zero codegen.  Once WMEs exist, a production edit rebuilds
immediately -- the engine may inspect the conflict set right after --
by clearing the conflict set and replaying the WM mirror through the
fresh kernel in timetag order.  Replay is *quiet*: no per-change stats
rows, and the effort counters are set back to their pre-replay values
after it, so measurements reflect only real WM traffic (the interpreted
Rete's ``add_production`` folds existing WM the same way).

Each WME change is one call per partition of the generated entry for
its class (``runtime.adds[cls]`` / ``runtime.removes[cls]``: the alpha
network, store edits, subscribers -- the probe ``KernelRuntime.add_wme``
/ ``remove_wme`` make, inline); this class only mirrors working memory
and counts the change.  The effort totals need no bookkeeping here: the
generated code increments ``MatchStats.effort`` itself.

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

Oracle mode
-----------
``CompiledMatcher(oracle=True)`` shadows every mutation through a
node-walking :class:`~repro.rete.ReteNetwork` and compares conflict-set
snapshots after each change, raising :class:`~repro.ops5.errors.Ops5Error`
on the first divergence -- the differential harness the fuzz fleet and
chaos harness lean on.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..obs.recorder import NULL_RECORDER, Recorder
from ..ops5.errors import Ops5Error
from ..ops5.matcher import ChangeRecord, Matcher
from ..ops5.production import Production
from ..ops5.wme import WME
from ..psim.partition import Partition, assign_productions
from .cache import cache_stats
from .codegen import alpha_index_summary, sharing_summary
from .runtime import KernelRuntime
from .shared import SharedKernel, shared_kernel, shared_kernel_stats

__all__ = ["CompiledMatcher", "KernelRuntime"]


class CompiledMatcher(Matcher):
    """Matcher backed by per-ruleset generated code (see package docs)."""

    def __init__(
        self,
        oracle: bool = False,
        recorder: Optional[Recorder] = None,
        partitions: int = 1,
    ) -> None:
        super().__init__()
        if partitions < 1:
            raise Ops5Error("partitions must be >= 1")
        self.partitions = partitions
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._productions: dict[str, Production] = {}
        self._wmes: dict[int, WME] = {}
        #: [node activations, comparisons, tokens built]: the stats' own
        #: effort list, incremented by every partition's generated code.
        self._counters = self.stats.effort
        self._runtimes: list[KernelRuntime] = []
        self._kernels: list[SharedKernel] = []
        self._dirty = True
        self._compiles = 0
        self._replayed = 0
        self._oracle = None
        if oracle:
            from ..rete.network import ReteNetwork

            self._oracle = ReteNetwork()

    # -- production edits -------------------------------------------------

    def add_production(self, production: Production) -> None:
        if production.name in self._productions:
            raise Ops5Error(f"production {production.name!r} is already registered")
        self._productions[production.name] = production
        self._after_ruleset_edit(lambda: self._oracle.add_production(production))

    def remove_production(self, name: str) -> None:
        if name not in self._productions:
            raise Ops5Error(f"unknown production {name!r}")
        del self._productions[name]
        self._after_ruleset_edit(lambda: self._oracle.remove_production(name))

    def _after_ruleset_edit(self, shadow) -> None:
        if self._oracle is not None:
            shadow()
        if self._wmes:
            # The engine may read the conflict set before the next WME
            # change, so fold the edit in now.
            self._rebuild()
            if self._oracle is not None:
                self._check_oracle("production edit")
        else:
            self._dirty = True

    # -- WME changes -------------------------------------------------------

    def add_wme(self, wme: WME) -> None:
        if self._dirty:
            self._rebuild()
        self._wmes[wme.timetag] = wme
        stats = self.stats
        audit = stats.changes is not None or self._oracle is not None
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
        if wme.timetag not in self._wmes:
            raise Ops5Error(f"WME {wme!r} was never added")
        if self._dirty:
            self._rebuild()
        stats = self.stats
        audit = stats.changes is not None or self._oracle is not None
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
        del self._wmes[wme.timetag]

    def _audit(self, kind: str, wme: WME, affected: int, before: tuple) -> None:
        """Off the default path: the change's row, the oracle's shadow."""
        if self.stats.changes is not None:
            effort = (now - then for now, then in zip(self._counters, before))
            self.stats.changes.append(ChangeRecord(kind, wme.cls, affected, *effort))
        if self._oracle is not None:
            getattr(self._oracle, f"{kind}_wme")(wme)
            self._check_oracle(f"{kind} of {wme!r}")

    # -- compilation -------------------------------------------------------

    def partition_snapshot(self) -> list[Partition]:
        """The production -> partition distribution (a pure function of
        the ruleset: every rebuild re-partitions from scratch)."""
        return assign_productions(list(self._productions.values()), self.partitions)

    def _rebuild(self) -> None:
        partitions = self.partition_snapshot()
        with self._recorder.span(
            "kernel:compile",
            cat="kernel",
            productions=len(self._productions),
            wmes=len(self._wmes),
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
            # code objects, then a quiet O(WM) replay from the mirror --
            # no per-change stats rows, and the effort it counted undone.
            wmes = self.current_wmes()
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
            self._replayed += len(self._wmes)

    # -- oracle ------------------------------------------------------------

    def _check_oracle(self, context: str) -> None:
        ours = self.conflict_set.snapshot()
        reference = self._oracle.conflict_set.snapshot()
        if ours != reference:
            missing = sorted(reference - ours)
            extra = sorted(ours - reference)
            raise Ops5Error(
                "compiled kernel diverged from Rete oracle after "
                f"{context}: missing={missing[:5]!r} extra={extra[:5]!r} "
                f"(rulesets {[k.digest for k in self._kernels]})"
            )

    # -- introspection -----------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return list(self._productions.values())

    def current_wmes(self) -> list[WME]:
        """The WM mirror, in timetag order (verify hooks)."""
        return [self._wmes[t] for t in sorted(self._wmes)]

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
        return "\n".join(kernel.ruleset.source for kernel in self._kernels)

    def state_size(self) -> int:
        """Rows across all stores (parity with ReteNetwork.state_size)."""
        return sum(runtime.state_size() for runtime in self._runtimes)

    def kernel_summary(self) -> dict:
        """The ``kernel`` section of the unified metrics snapshot."""
        runtimes = self._runtimes
        stores = [store for runtime in runtimes for store in runtime.stores]
        partitions = self.partition_snapshot()
        slices = [runtime.productions for runtime in runtimes]
        sizes = [sharing_summary(p.productions)["sizes"] for p in partitions]
        return {
            "compiles": self._compiles,
            "ruleset_digest": ",".join(k.digest for k in self._kernels) or None,
            "stores": len(stores),
            "store_rows": sum(len(s) for s in stores),
            "columns": sum(len(s.cols) for s in stores),
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
            "replayed_wmes": self._replayed,
            "oracle": self._oracle is not None,
            "cache": cache_stats(),
            "shared": shared_kernel_stats(),
        }
