"""Network consistency checking: recompute every memory from scratch.

Differential testing compares matcher *outputs* (conflict sets); this
module audits Rete's *internal* state.  For every node with memory it
recomputes, from the current WMEs and first principles, what the node
should contain:

* an alpha memory must hold exactly the WMEs passing its CE's alpha
  tests;
* a beta memory at prefix depth k must hold exactly the partial matches
  of its producing production's first k condition elements (negations
  evaluated at their position, as tokens do);
* a negative node must store every prefix token of the CEs before it,
  each with the correct blocker count;
* the conflict set must equal the set of full matches surviving all
  negations.

:func:`check_network` returns a list of discrepancy descriptions (empty
means consistent); :func:`assert_network_consistent` raises on any.
Used by the property-based tests as a deep oracle, and available to
library users as a debugging aid after suspicious behaviour.
"""

from __future__ import annotations

from ..ops5.condition import Bindings, wme_passes_alpha
from ..ops5.production import Production
from ..ops5.wme import WME
from .network import ReteNetwork
from .nodes import AlphaMemory, BetaMemory, NegativeNode, TerminalNode


def _prefix_keys(
    production: Production, depth: int, wmes: list[WME]
) -> dict[tuple, int]:
    """Expected token keys for the first *depth* CEs.

    Returns key -> blocker count *of the CE at position depth* when that
    CE is negated and ``count_next_neg`` is requested via depth pointing
    at it; for plain prefixes the value is 0 and only the keys matter.
    """
    results: dict[tuple, int] = {}

    def extend(index: int, bindings: Bindings, key: tuple) -> None:
        if index == depth:
            results[key] = results.get(key, 0)
            return
        ce = production.conditions[index]
        if ce.negated:
            for wme in wmes:
                if ce.match(wme, dict(bindings)) is not None:
                    return  # blocked: no token continues past this CE
            extend(index + 1, bindings, key + (0,))
            return
        for wme in wmes:
            extended = ce.match(wme, bindings)
            if extended is not None:
                extend(index + 1, extended, key + (wme.timetag,))

    extend(0, {}, ())
    return results


def _neg_expectations(
    production: Production, neg_index: int, wmes: list[WME]
) -> dict[tuple, int]:
    """Expected (stored token key -> blocker count) for a negative node."""
    stored: dict[tuple, int] = {}

    def extend(index: int, bindings: Bindings, key: tuple) -> None:
        if index == neg_index:
            ce = production.conditions[neg_index]
            count = sum(
                1 for wme in wmes if ce.match(wme, dict(bindings)) is not None
            )
            stored[key] = count
            return
        ce = production.conditions[index]
        if ce.negated:
            for wme in wmes:
                if ce.match(wme, dict(bindings)) is not None:
                    return
            extend(index + 1, bindings, key + (0,))
            return
        for wme in wmes:
            extended = ce.match(wme, bindings)
            if extended is not None:
                extend(index + 1, extended, key + (wme.timetag,))

    extend(0, {}, ())
    return stored


def check_network(net: ReteNetwork) -> list[str]:
    """Audit every memory in *net*; return discrepancy descriptions."""
    problems: list[str] = []
    wmes = list(net.memory)

    for name, nodes in net._production_nodes.items():
        production = next(p for p in net.productions if p.name == name)
        beta_depth = 0
        for node in nodes:
            if isinstance(node, AlphaMemory):
                continue  # audited globally below
            if isinstance(node, NegativeNode):
                expected = _neg_expectations(production, node.ce_index, wmes)
                actual = {key: count for key, (_t, count) in node.stored.items()}
                if actual != expected:
                    problems.append(
                        f"neg node {node.id} ({name} CE {node.ce_index}): "
                        f"stored {actual} != expected {expected}"
                    )
                beta_depth = node.ce_index + 1
            elif isinstance(node, BetaMemory):
                beta_depth = _bmem_depth(node)
                expected_keys = set(_prefix_keys(production, beta_depth, wmes))
                actual_keys = set(node.items)
                if actual_keys != expected_keys:
                    problems.append(
                        f"beta memory {node.id} ({name} depth {beta_depth}): "
                        f"holds {sorted(actual_keys)} != expected "
                        f"{sorted(expected_keys)}"
                    )
            elif isinstance(node, TerminalNode):
                expected_full = set(
                    _prefix_keys(production, len(production.conditions), wmes)
                )
                actual_full = {
                    tuple(
                        key[i] for i in production.positive_indices
                    )
                    for key in expected_full
                }
                conflict_keys = {
                    inst.timetags
                    for inst in net.conflict_set
                    if inst.production.name == name
                }
                if conflict_keys != actual_full:
                    problems.append(
                        f"terminal ({name}): conflict set {sorted(conflict_keys)} "
                        f"!= expected {sorted(actual_full)}"
                    )

    # Alpha memories: shared, so audited once each against any CE using
    # them (all users have identical alpha semantics by construction).
    audited: set[int] = set()
    for name, nodes in net._production_nodes.items():
        production = next(p for p in net.productions if p.name == name)
        amem_order = [n for n in nodes if isinstance(n, AlphaMemory)]
        for analysis, amem in zip(production.analysis, amem_order):
            if amem.id in audited:
                continue
            audited.add(amem.id)
            expected_tags = {
                wme.timetag for wme in wmes if wme_passes_alpha(wme, analysis)
            }
            actual_tags = set(amem.items)
            if actual_tags != expected_tags:
                problems.append(
                    f"alpha memory {amem.id} ({name} CE {analysis.index}): "
                    f"holds {sorted(actual_tags)} != expected {sorted(expected_tags)}"
                )
    return problems


def _bmem_depth(node: BetaMemory) -> int:
    """A beta memory's prefix depth = its producing two-input node's CE + 1."""
    parent = node.parent
    ce_index = getattr(parent, "ce_index", None)
    if ce_index is None:  # pragma: no cover - dummy top never audited
        return 0
    return ce_index + 1


def assert_network_consistent(net: ReteNetwork) -> None:
    """Raise ``AssertionError`` with details if any memory is wrong."""
    problems = check_network(net)
    if problems:
        raise AssertionError("; ".join(problems))
