"""The Rete network: a state-saving matcher with node sharing.

:class:`ReteNetwork` implements the :class:`~repro.ops5.matcher.Matcher`
interface.  Productions are compiled (by :mod:`repro.rete.builder`) into
a shared dataflow network; working-memory changes flow through the
network updating stored state, and the output is a stream of conflict-set
edits -- exactly the algorithm of the paper's Section 2.2.

The network is instrumented: every memory/two-input/terminal activation
is reported to an attached :class:`~repro.rete.instrument.NetworkListener`
with a causal parent link, forming the task graph the multiprocessor
simulator replays (Section 6).
"""

from __future__ import annotations

import time
from typing import Iterable

from ..ops5.errors import Ops5Error
from ..ops5.matcher import Matcher
from ..ops5.production import Production
from ..ops5.wme import WME
from .builder import NetworkBuilder
from .instrument import ActivationEvent, NetworkListener
from .nodes import ADD, AlphaTestNode, BetaMemory, DELETE, ReteNode
from .token import Token


class ReteNetwork(Matcher):
    """A Rete matcher over a dynamic set of productions.

    Parameters
    ----------
    listener:
        Optional :class:`NetworkListener` receiving activation events.
        When omitted, instrumentation costs reduce to counter updates.
    indexed:
        Use hash-indexed join memories (the hashed memory-node
        organisation): joins probe buckets instead of scanning, cutting
        comparison counts on equality-heavy programs.
    """

    def __init__(
        self,
        listener: NetworkListener | None = None,
        indexed: bool = False,
    ) -> None:
        super().__init__()
        self.listener = listener or NetworkListener()
        #: Wall-clock per activation, only when the listener asks for it
        #: (RecorderListener does): the untimed path stays branch-cheap,
        #: keeping the Section 4 cost measurements unperturbed.
        self._activation_clock = (
            time.perf_counter_ns if getattr(self.listener, "wants_timing", False) else None
        )
        #: Hash-indexed join memories (see JoinNode); semantics are
        #: unchanged, only match effort drops.
        self.indexed = indexed
        self._next_node_id = 1
        self._next_seq = 1
        #: Sharing statistics: node creations vs. reuse hits.
        self.nodes_created = 0
        self.nodes_shared = 0
        self._wmes: dict[int, WME] = {}
        #: Per-class entry points into the alpha network.
        self.class_roots: dict[str, AlphaTestNode] = {}
        #: The dummy top beta memory: left input of every first join.
        self.dummy_top = BetaMemory(self, None)
        empty = Token.empty()
        self.dummy_top.items[empty.key] = empty
        #: Sharing registry: share key -> node (see builder for key shapes).
        self.share_registry: dict[tuple, ReteNode] = {}
        #: Per-production list of nodes, build order (terminal last).
        self._production_nodes: dict[str, list[ReteNode]] = {}
        self._productions: dict[str, Production] = {}
        self._builder = NetworkBuilder(self)
        # Per-change measurement scratch.
        self._event_stack: list[ActivationEvent] = []
        self._change_activations = 0
        self._change_comparisons = 0
        self._change_tokens = 0
        self._change_const_tests = 0
        self._change_affected: set[str] = set()

    # -- node/event bookkeeping (used by node classes and the builder) -------

    def allocate_node_id(self) -> int:
        """Hand out the next node id (node classes call this)."""
        node_id = self._next_node_id
        self._next_node_id += 1
        self.nodes_created += 1
        return node_id

    def start_event(self, node: ReteNode, direction: str, side: str = "") -> ActivationEvent:
        """Open an activation event; nested events record it as parent."""
        parent = self._event_stack[-1].seq if self._event_stack else None
        event = ActivationEvent(
            seq=self._next_seq,
            parent=parent,
            node_id=node.id,
            node_kind=node.kind,
            direction=direction,
            side=side,
        )
        self._next_seq += 1
        if self._activation_clock is not None:
            event.ts = self._activation_clock()
        self._event_stack.append(event)
        self._change_activations += 1
        return event

    def finish_event(self, event: ActivationEvent) -> None:
        """Close an activation event and report it to the listener."""
        popped = self._event_stack.pop()
        if popped is not event:  # pragma: no cover - propagation invariant
            raise Ops5Error("unbalanced activation events")
        if self._activation_clock is not None:
            event.dur = self._activation_clock() - event.ts
        self._change_comparisons += event.comparisons
        self.listener.on_activation(event)

    def count_constant_test(self) -> None:
        """Tally one alpha-network constant test for the current change."""
        self._change_const_tests += 1

    def count_token_built(self) -> None:
        """Tally one stored beta token for the current change."""
        self._change_tokens += 1

    def note_affected(self, production_names: set[str]) -> None:
        """Mark productions as affected by the current change."""
        self._change_affected.update(production_names)

    # -- Matcher interface -----------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        """The productions currently compiled into the network."""
        return self._productions.values()

    def add_production(self, production: Production) -> None:
        """Compile *production* into the network and match existing WM.

        Compilation is quiet (no activation events) but semantically
        complete: new memories are filled from current working memory and
        existing full matches enter the conflict set immediately.
        """
        if production.name in self._productions:
            raise Ops5Error(f"production {production.name!r} already in network")
        nodes = self._builder.build(production)
        self._productions[production.name] = production
        self._production_nodes[production.name] = nodes

    def remove_production(self, name: str) -> None:
        """Retract the production's instantiations and prune its nodes.

        Nodes shared with other productions survive (refcounts); nodes
        used only by this production are detached in reverse build order.
        """
        production = self._productions.pop(name, None)
        if production is None:
            raise Ops5Error(f"no production named {name!r}")
        for instantiation in list(self.conflict_set):
            if instantiation.production.name == name:
                self.conflict_set.delete(instantiation)
        nodes = self._production_nodes.pop(name)
        for node in reversed(nodes):
            node.refcount -= 1
            if node.refcount == 0:
                self._builder.detach(node)

    def add_wme(self, wme: WME) -> None:
        """Flow a WME insertion through the network."""
        self._process(wme, ADD)
        self._wmes[wme.timetag] = wme

    def remove_wme(self, wme: WME) -> None:
        """Flow a WME deletion through the network (rematch-style)."""
        if wme.timetag not in self._wmes:
            raise Ops5Error(f"WME {wme!r} was never added to this network")
        del self._wmes[wme.timetag]
        self._process(wme, DELETE)

    # -- change propagation ------------------------------------------------------

    def _process(self, wme: WME, direction: str) -> None:
        self._change_activations = 0
        self._change_comparisons = 0
        self._change_tokens = 0
        self._change_const_tests = 0
        self._change_affected = set()
        kind = "add" if direction == ADD else "remove"
        self.listener.on_change_begin(kind, wme.timetag, wme.cls)

        root = self.class_roots.get(wme.cls)
        if root is not None:
            event = self.start_event(root, direction)
            for child in root.children:
                child.activate(wme, direction)
            event.comparisons = self._change_const_tests
            self.finish_event(event)

        self.listener.on_change_end()
        self.stats.record(
            kind,
            wme.cls,
            len(self._change_affected),
            self._change_activations,
            self._change_comparisons,
            self._change_tokens,
        )

    # -- introspection -------------------------------------------------------------

    @property
    def wme_count(self) -> int:
        """Number of WMEs currently known to the network."""
        return len(self._wmes)

    def current_wmes(self) -> list[WME]:
        """A snapshot list of the WMEs currently in the network."""
        return list(self._wmes.values())

    def state_size(self) -> dict[str, int]:
        """Stored-state volume: WMEs in alpha memories, tokens in betas.

        This is the quantity the paper's Section 3.2 spectrum argument is
        about (TREAT stores less, Oflazer's scheme much more).
        """
        from .nodes import AlphaMemory, NegativeNode  # local to avoid cycle noise

        alpha = 0
        beta = 0
        for node in self.share_registry.values():
            if isinstance(node, AlphaMemory):
                alpha += len(node.items)
            elif isinstance(node, BetaMemory):
                beta += len(node.items)
            elif isinstance(node, NegativeNode):
                beta += len(node.stored)
        return {"alpha_wmes": alpha, "beta_tokens": beta}
