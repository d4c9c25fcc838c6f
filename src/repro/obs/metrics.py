"""The unified metrics snapshot: one schema for every counter source.

Before this module existed the repo had three unrelated counter piles:
:class:`~repro.ops5.matcher.MatchStats` (per-change match effort),
:class:`~repro.serve.stats.Telemetry` (request/latency counters), and
the Rete network's structural counters (sharing, node kinds).  Each
grew its own ad-hoc reporting; none cross-checked the others.  This
module folds them into **one** JSON-ready snapshot under a versioned
schema, used identically by the ``stats`` RPC of the rule server, the
``repro profile`` CLI, and the tests that pin the counters against each
other.

Snapshot shape (sections appear when their source exists)::

    {
      "schema": "repro.metrics/1",
      "engine":   {"cycles", "firings", "wme_changes", "halted",
                   "working_memory", "output_lines", "history"},
      "match":    {"wme_changes", "comparisons", "tokens_built",
                   "mean_affected_productions", "mean_node_activations",
                   "history"},
      "conflict_set": {"size", "total_inserts", "total_deletes",
                   "selects", "members_examined"},
      "rete":     {"nodes", "nodes_by_kind", "sharing_ratio",
                   "alpha_wmes", "beta_tokens"},
      "kernel":   {"compiles", "ruleset_digest", "stores", "store_rows",
                   "subscriptions", "alpha_index", "sharing",
                   "partitions", "replayed_wmes", "layouts", "shared"},
      "serve":    Telemetry.snapshot(),
      "recorder": {"enabled", "events"},
    }

The load-bearing invariant -- checked by :func:`consistency_problems`
and asserted by ``repro profile`` -- is that ``engine.wme_changes``
(counted by the engine as it routes changes) equals
``match.wme_changes`` (counted by the matcher as it processes them).
The paper's argument is measurement; a snapshot whose own sections
disagree is worse than none.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional

from ..ops5.conflict import ConflictSet
from ..ops5.matcher import MatchStats

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps layering one-way
    from ..ops5.engine import ProductionSystem
    from ..serve.stats import Telemetry
    from .recorder import Recorder

#: Version tag carried by every snapshot; bump on breaking shape changes.
SCHEMA = "repro.metrics/1"


def _history(records) -> str:
    """Whether per-cycle / per-change records are kept (opt-in, see
    ``ProductionSystem(history=True)``); totals never depend on it."""
    return "not retained" if records is None else "retained"


def match_section(stats: MatchStats) -> dict:
    """The MatchStats rollup: total and per-change match effort."""
    return {
        "wme_changes": stats.total_changes,
        "comparisons": stats.total_comparisons,
        "tokens_built": stats.total_tokens_built,
        "mean_affected_productions": stats.mean_affected_productions,
        "mean_node_activations": stats.mean_node_activations,
        "history": _history(stats.changes),
    }


def conflict_set_section(conflict_set: ConflictSet) -> dict:
    """Conflict-set churn and what conflict resolution cost.

    ``members_examined / selects`` is the mean number of members
    ``Strategy.select`` looked at per cycle: those it walked from the
    top of the kept ranking down to the first un-fired one (1 while the
    dominant member has not fired), against ``size`` for a full scan.
    """
    return {
        "size": len(conflict_set),
        "total_inserts": conflict_set.total_inserts,
        "total_deletes": conflict_set.total_deletes,
        "selects": conflict_set.selects,
        "members_examined": conflict_set.members_examined,
    }


def engine_section(system: "ProductionSystem") -> dict:
    """The engine's own counters for the recognize--act loop."""
    return {
        "cycles": system.cycle,
        "firings": system.total_firings,
        "wme_changes": system.total_wme_changes,
        "halted": system.halted,
        "working_memory": len(system.memory),
        "output_lines": len(system.output),
        "history": _history(system.cycles),
    }


def _matcher_sections(matcher) -> dict:
    """Backend-specific sections.  Each backend class is looked up in
    ``sys.modules``, never imported: a matcher can only be an instance
    of a class whose module is loaded, and obs must not load a matcher
    package just to report on another."""
    sections: dict[str, dict] = {}
    kernel = sys.modules.get("repro.kernel.matcher")
    if kernel is not None and isinstance(matcher, kernel.CompiledMatcher):
        # Codegen rollup: compiles, registry hit/miss, store shape, the
        # structural digest and, per partition, what sharing it kept.
        sections["kernel"] = matcher.kernel_summary()
        return sections
    rete = sys.modules.get("repro.rete.network")
    if rete is not None and isinstance(matcher, rete.ReteNetwork):
        from ..rete.stats import collect_stats

        stats = collect_stats(matcher)
        sections["rete"] = {
            "nodes": stats.total_nodes,
            "nodes_by_kind": dict(stats.nodes_by_kind),
            "sharing_ratio": stats.sharing_ratio,
            "alpha_wmes": stats.alpha_wmes,
            "beta_tokens": stats.beta_tokens,
        }
    return sections


def snapshot(
    system: "ProductionSystem",
    telemetry: Optional["Telemetry"] = None,
    recorder: Optional["Recorder"] = None,
) -> dict:
    """The unified metrics snapshot for one engine (plus optional serve
    telemetry and recorder status).

    Side-effect free: matcher statistics are read through
    :meth:`~repro.ops5.matcher.Matcher.peek_stats` (and the conflict set
    through ``peek_conflict_set``) -- safe to call from the server's
    event loop between two slices of a session's op.
    """
    data: dict = {
        "schema": SCHEMA,
        "engine": engine_section(system),
        "match": match_section(system.matcher.peek_stats()),
        "conflict_set": conflict_set_section(system.matcher.peek_conflict_set()),
    }
    data.update(_matcher_sections(system.matcher))
    if telemetry is not None:
        data["serve"] = telemetry.snapshot()
    if recorder is not None:
        data["recorder"] = {"enabled": recorder.enabled, "events": len(recorder.events)}
    return data


def consistency_problems(data: dict) -> list[str]:
    """Cross-check a snapshot's sections against each other.

    Returns a list of human-readable mismatch descriptions (empty when
    the snapshot is internally consistent).  The engine and the matcher
    count the same stream of working-memory changes from opposite ends;
    any disagreement means a layer dropped or double-counted work.
    """
    problems: list[str] = []
    engine = data.get("engine", {})
    match = data.get("match", {})
    if engine.get("wme_changes") != match.get("wme_changes"):
        problems.append(
            f"engine counted {engine.get('wme_changes')} wme-changes but the "
            f"matcher recorded {match.get('wme_changes')}"
        )
    if engine.get("firings", 0) < engine.get("cycles", 0):
        problems.append(
            f"engine.firings ({engine.get('firings')}) fell behind "
            f"engine.cycles ({engine.get('cycles')})"
        )
    conflict_set = data.get("conflict_set")
    if conflict_set is not None and conflict_set["size"] != (
        conflict_set["total_inserts"] - conflict_set["total_deletes"]
    ):
        problems.append(
            f"conflict set holds {conflict_set['size']} members after "
            f"{conflict_set['total_inserts']} inserts and "
            f"{conflict_set['total_deletes']} deletes"
        )
    serve = data.get("serve")
    if serve is not None and serve.get("firings", 0) > engine.get("firings", 0):
        problems.append(
            f"serve telemetry reports {serve.get('firings')} firings but the "
            f"engine only executed {engine.get('firings')}"
        )
    return problems
