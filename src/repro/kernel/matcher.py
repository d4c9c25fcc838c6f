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
rows, and per-change counter deltas are snapshotted after the rebuild,
so measurements reflect only real WM traffic (the interpreted Rete's
``add_production`` folds existing WM the same way).

Each WME change is one :class:`~repro.kernel.runtime.KernelRuntime`
entry (``add_wme`` / ``remove_wme``: alpha dispatch, store edit,
subscribers); this class only mirrors working memory and records the
entry's counter deltas.

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
from .cache import CompiledRuleset, cache_stats
from .codegen import sharing_summary
from .runtime import KernelRuntime
from .shared import SharedKernel, shared_kernel, shared_kernel_stats

__all__ = ["CompiledMatcher", "KernelRuntime"]


class CompiledMatcher(Matcher):
    """Matcher backed by per-ruleset generated code (see package docs)."""

    def __init__(
        self,
        oracle: bool = False,
        recorder: Optional[Recorder] = None,
    ) -> None:
        super().__init__()
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._productions: dict[str, Production] = {}
        self._wmes: dict[int, WME] = {}
        self._rt: Optional[KernelRuntime] = None
        self._kernel: Optional[SharedKernel] = None
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
        counters = self._rt.counters
        activations, comparisons, tokens = counters
        affected = self._rt.add_wme(wme)
        # MatchStats.record, inline: this is every ``make``'s path.
        stats.total_changes += 1
        stats.total_affected_productions += affected
        stats.total_node_activations += counters[0] - activations
        stats.total_comparisons += counters[1] - comparisons
        stats.total_tokens_built += counters[2] - tokens
        if stats.changes is not None or self._oracle is not None:
            self._audit("add", wme, affected, activations, comparisons, tokens)

    def remove_wme(self, wme: WME) -> None:
        if wme.timetag not in self._wmes:
            raise Ops5Error(f"WME {wme!r} was never added")
        if self._dirty:
            self._rebuild()
        stats = self.stats
        counters = self._rt.counters
        activations, comparisons, tokens = counters
        affected = self._rt.remove_wme(wme)
        stats.total_changes += 1
        stats.total_affected_productions += affected
        stats.total_node_activations += counters[0] - activations
        stats.total_comparisons += counters[1] - comparisons
        stats.total_tokens_built += counters[2] - tokens
        if stats.changes is not None or self._oracle is not None:
            self._audit("remove", wme, affected, activations, comparisons, tokens)
        del self._wmes[wme.timetag]

    def _audit(self, kind: str, wme: WME, affected: int, *before: int) -> None:
        """Off the default path: the change's row, the oracle's shadow."""
        if self.stats.changes is not None:
            effort = (now - then for now, then in zip(self._rt.counters, before))
            self.stats.changes.append(ChangeRecord(kind, wme.cls, affected, *effort))
        if self._oracle is not None:
            getattr(self._oracle, f"{kind}_wme")(wme)
            self._check_oracle(f"{kind} of {wme!r}")

    # -- compilation -------------------------------------------------------

    def _rebuild(self) -> None:
        productions = list(self._productions.values())
        with self._recorder.span(
            "kernel:compile",
            cat="kernel",
            productions=len(productions),
            wmes=len(self._wmes),
        ):
            # Process-wide immutable half: codegen + compile() + module
            # exec happen at most once per ruleset shape, in the shared
            # registry.  This call is a pure lookup on the warm path.
            kernel = shared_kernel(productions)
            self.conflict_set.clear()
            # Per-session mutable half: fresh closures over the shared
            # code object, then a quiet O(WM) replay from the mirror --
            # no per-change stats rows, counter deltas absorbed below.
            self._rt = kernel.attach(
                self.conflict_set,
                productions,
                (self._wmes[t] for t in sorted(self._wmes)),
            )
            self._kernel = kernel
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
                f"(ruleset {self._kernel.digest if self._kernel else '?'})"
            )

    # -- introspection -----------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return list(self._productions.values())

    def current_wmes(self) -> list[WME]:
        """The WM mirror, in timetag order (verify hooks)."""
        return [self._wmes[t] for t in sorted(self._wmes)]

    @property
    def runtime(self) -> Optional[KernelRuntime]:
        """The live built kernel state, or None before first compile."""
        return self._rt

    @property
    def _ruleset(self) -> Optional[CompiledRuleset]:
        """The cache entry behind the current kernel (back-compat)."""
        return self._kernel.ruleset if self._kernel else None

    @property
    def shared(self) -> Optional[SharedKernel]:
        """The process-wide kernel this session is attached to."""
        return self._kernel

    @property
    def generated_source(self) -> Optional[str]:
        """Source of the current kernel (debugging / docs examples)."""
        return self._kernel.ruleset.source if self._kernel else None

    def state_size(self) -> int:
        """Rows across all stores (parity with ReteNetwork.state_size)."""
        if self._rt is None:
            return 0
        return self._rt.state_size()

    def kernel_summary(self) -> dict:
        """The ``kernel`` section of the unified metrics snapshot."""
        runtime = self._rt
        return {
            "compiles": self._compiles,
            "ruleset_digest": self._kernel.digest if self._kernel else None,
            "stores": len(runtime.stores) if runtime else 0,
            "store_rows": sum(len(s) for s in runtime.stores) if runtime else 0,
            "columns": sum(len(s.cols) for s in runtime.stores) if runtime else 0,
            "subscriptions": runtime.subscriptions if runtime else 0,
            "alpha_index": runtime.alpha_index_summary() if runtime else None,
            "sharing": sharing_summary(self.productions),
            "replayed_wmes": self._replayed,
            "oracle": self._oracle is not None,
            "cache": cache_stats(),
            "shared": shared_kernel_stats(),
        }
