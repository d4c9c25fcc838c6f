"""Kernel verification: store and index invariants plus a one-shot Rete check.

:func:`check_kernel` is the compiled counterpart of the Rete
``check_network`` hook used by ``repro run --verify``.  It audits each
partition from first principles: a store's contents are the engine's
working-memory WMEs (``matcher.memory``) that pass the *interpreted*
alpha tests of its condition elements (``ops5.condition.wme_passes_alpha``
-- never the generated entries it checks).  Their number must be the
store's count, and each right index the store feeds must hold exactly
them under their join keys.  It then builds a fresh node-walking
:class:`~repro.rete.ReteNetwork` over that same memory, comparing
conflict sets.  An empty list of problems means the kernel holds what
Rete would.
"""

from __future__ import annotations

from ..ops5.condition import wme_passes_alpha
from .codegen import plan_right_indexes, plan_stores
from .matcher import CompiledMatcher

__all__ = ["check_kernel"]


def check_kernel(matcher: CompiledMatcher) -> list[str]:
    """Audit a compiled matcher's state; return problem descriptions."""
    problems: list[str] = []
    memory = matcher.memory
    for part, runtime in enumerate(matcher.runtimes):
        plans, use = plan_stores(runtime.productions)
        readers: list[list] = [[] for _plan in plans]
        for (p_idx, ce), plan in use.items():
            readers[plan.index].append(runtime.productions[p_idx].analysis[ce])
        specs = plan_right_indexes(runtime.productions, use)[1]
        shapes = [(s.cls, s.mask) for s in runtime.stores]
        if shapes != [(p.cls, p.mask) for p in plans] or len(runtime.indexes) != len(specs):
            problems.append(f"partition {part}: stores or right indexes differ from the plan")
            continue
        held = [
            [w for w in memory if w.cls == plan.cls and all(wme_passes_alpha(w, ce) for ce in ces)]
            for plan, ces in zip(plans, readers)
        ]
        for s, (wmes, count) in enumerate(zip(held, runtime.counts)):
            if count != len(wmes):
                problems.append(
                    f"partition {part} store {s}: counts {count} WMEs, "
                    f"{len(wmes)} pass its alpha tests"
                )
        for (name, (s, attrs)), index in zip(specs.items(), runtime.indexes):
            want: dict = {}
            for wme in held[s]:
                key = tuple(map(wme.get, attrs))
                want.setdefault(key[0] if len(key) == 1 else key or 0, {})[wme.timetag] = wme
            have = {k: b if type(b) is dict else {b.timetag: b} for k, b in index.items()}
            if have != want or any(type(b) is dict and len(b) < 2 for b in index.values()):
                problems.append(
                    f"partition {part} right index {name}: not the WMEs "
                    f"passing store {s}'s alpha tests, by key"
                )

    # One-shot differential check against the node-walking Rete.
    from ..rete.network import ReteNetwork

    # Built over the same memory: each add_production folds it in.
    reference = ReteNetwork()
    reference.memory = memory
    for production in matcher.productions:
        reference.add_production(production)
    ours = matcher.conflict_set.snapshot()
    theirs = reference.conflict_set.snapshot()
    if ours != theirs:
        missing = sorted(theirs - ours)
        extra = sorted(ours - theirs)
        problems.append(
            f"conflict set diverges from Rete: missing={missing[:5]!r} "
            f"extra={extra[:5]!r}"
        )
    return problems
