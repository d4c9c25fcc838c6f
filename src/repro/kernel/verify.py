"""Kernel verification: store invariants plus a one-shot Rete check.

:func:`check_kernel` is the compiled counterpart of the Rete
``check_network`` hook used by ``repro run --verify``.  It audits each
partition's stores against the plan, the WM mirror and the *interpreted*
alpha tests (``ops5.condition.wme_passes_alpha`` of each store's
condition elements -- never the generated entries it checks), column
values, and then replays the whole session through a fresh
node-walking :class:`~repro.rete.ReteNetwork`, comparing conflict sets.
An empty list of problems means the kernel holds what Rete would.
"""

from __future__ import annotations

from ..ops5.condition import wme_passes_alpha
from .codegen import plan_stores
from .matcher import CompiledMatcher

__all__ = ["check_kernel"]


def check_kernel(matcher: CompiledMatcher) -> list[str]:
    """Audit a compiled matcher's state; return problem descriptions."""
    problems: list[str] = []
    wmes = matcher.current_wmes()
    by_tag = {w.timetag: w for w in wmes}
    for part, runtime in enumerate(matcher.runtimes):
        plans, use = plan_stores(runtime.productions)
        readers: list[list] = [[] for _plan in plans]
        for (p_idx, ce), plan in use.items():
            readers[plan.index].append(runtime.productions[p_idx].analysis[ce])
        shapes = [(s.cls, list(s.cols), s.mask) for s in runtime.stores]
        if shapes != [(p.cls, p.columns, p.mask) for p in plans]:
            problems.append(f"partition {part}: stores differ from the plan")
        for store, ces in zip(runtime.stores, readers):
            where = f"partition {part} store {store.index}"
            for timetag, wme in store.rows.items():
                if by_tag.get(timetag) is not wme:
                    problems.append(
                        f"{where}: row {timetag} is not the WM mirror's WME"
                    )
                if not all(wme_passes_alpha(wme, ce) for ce in ces):
                    problems.append(
                        f"{where}: row {timetag} fails its alpha tests"
                    )
            for attr, col in store.cols.items():
                if col.keys() != store.rows.keys():
                    problems.append(
                        f"{where}: column {attr!r} keys diverge from rows"
                    )
                    continue
                # Identity, not ``!=``: a column holds the WME's own value
                # object (``nil`` is one interned string everywhere).
                for timetag, value in col.items():
                    expected = store.rows[timetag].get(attr)
                    if value is not expected:
                        problems.append(
                            f"{where}: column {attr!r} row {timetag} "
                            f"holds {value!r}, expected {expected!r}"
                        )
            for wme in wmes:
                if wme.cls != store.cls or wme.timetag in store.rows:
                    continue
                if all(wme_passes_alpha(wme, ce) for ce in ces):
                    problems.append(
                        f"{where}: WME {wme.timetag} passes the alpha "
                        "tests but is missing from the store"
                    )

    # One-shot differential check against the node-walking Rete.
    from ..rete.network import ReteNetwork

    reference = ReteNetwork()
    for production in matcher.productions:
        reference.add_production(production)
    for wme in wmes:
        reference.add_wme(wme)
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
