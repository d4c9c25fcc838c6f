"""Rete network node classes.

The four node kinds of the paper's Section 2.2 map onto:

* **Constant-test nodes** -- :class:`AlphaTestNode` (one per elementary
  single-WME test, shared between productions with identical tests).
* **Memory nodes** -- :class:`AlphaMemory` (WMEs matching one CE's alpha
  tests) and :class:`BetaMemory` (tokens matching a CE prefix).
* **Two-input nodes** -- :class:`JoinNode` (positive CEs) and
  :class:`NegativeNode` (negated CEs; a combined memory + join that
  counts blockers per left token).
* **Terminal nodes** -- :class:`TerminalNode`, one per production,
  editing the conflict set.

Deletion is *rematch-style*, as in Forgy's original Rete: a WME removal
flows through the same nodes as its addition, with a ``direction`` flag;
memory nodes remove the keys the addition stored.  This keeps deletion
cost symmetric with insertion cost, which is exactly the paper's
Section 3.1 assumption (c1 = c2).

Every memory, two-input, and terminal activation is reported to the
owning network for instrumentation (see :mod:`repro.rete.instrument`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..ops5.condition import JoinTest
from ..ops5.errors import Ops5Error
from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME
from .token import Token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .network import ReteNetwork

ADD = "add"
DELETE = "delete"


class ReteNode:
    """Common base: identity, children, and production refcounting.

    Every node class declares ``__slots__``: nodes sit on the
    per-activation hot path and a network holds thousands of them, so
    dropping the per-instance ``__dict__`` buys both attribute-access
    speed and memory.  ``parent`` and ``share_key_full`` live on the
    base because the builder assigns them across several node kinds.
    """

    __slots__ = ("id", "net", "children", "refcount", "parent", "share_key_full", "kind")

    #: Node kind tag.  An instance slot (not a class attribute) because
    #: the builder retags a per-class alpha root as ``"root"``.
    KIND = "node"

    def __init__(self, net: "ReteNetwork") -> None:
        self.kind = self.KIND
        self.id = net.allocate_node_id()
        self.net = net
        #: Downstream nodes receiving this node's output.
        self.children: list[ReteNode] = []
        #: Number of productions whose compilation uses this node.
        self.refcount = 0
        #: Upstream node (assigned by the builder where meaningful).
        self.parent = None
        #: The sharing-registry key this node is registered under.
        self.share_key_full: tuple | None = None


# ---------------------------------------------------------------------------
# Alpha network
# ---------------------------------------------------------------------------


class AlphaTestNode(ReteNode):
    """A constant-test node: a single-WME predicate, shared by key.

    ``share_key`` is a hashable description of the test; the builder
    reuses an existing child with the same key instead of duplicating the
    node (the paper's network-sharing property).
    """

    KIND = "const"

    __slots__ = ("share_key", "predicate")

    def __init__(
        self, net: "ReteNetwork", share_key: tuple, predicate: Callable[[WME], bool]
    ) -> None:
        super().__init__(net)
        self.share_key = share_key
        self.predicate = predicate

    def activate(self, wme: WME, direction: str) -> None:
        self.net.count_constant_test()
        if self.predicate(wme):
            for child in self.children:
                child.activate(wme, direction)


class AlphaMemory(ReteNode):
    """Stores the WMEs passing one condition element's alpha tests."""

    KIND = "amem"

    __slots__ = ("items", "successors", "production_names")

    def __init__(self, net: "ReteNetwork") -> None:
        super().__init__(net)
        self.items: dict[int, WME] = {}
        #: Two-input nodes fed from the right by this memory.
        self.successors: list[ReteNode] = []
        #: Names of productions with a CE backed by this memory -- the
        #: paper's "affected productions" bookkeeping.
        self.production_names: set[str] = set()

    def activate(self, wme: WME, direction: str) -> None:
        event = self.net.start_event(self, direction)
        if direction == ADD:
            self.items[wme.timetag] = wme
        else:
            # Rematch deletion: the WME must be present; a miss means the
            # add never reached this memory, i.e. corrupted state.  Fail
            # loudly with context (the convention ConflictSet follows)
            # instead of leaking a bare KeyError.
            if wme.timetag not in self.items:
                raise Ops5Error(
                    f"alpha memory node {self.id}: delete of WME t{wme.timetag} "
                    f"({wme.cls}) that it never stored -- network state is "
                    "corrupted"
                )
            del self.items[wme.timetag]
        event.outputs = 1
        self.net.note_affected(self.production_names)
        for successor in self.successors:
            successor.right_activate(wme, direction)
        self.net.finish_event(event)


# ---------------------------------------------------------------------------
# Beta network
# ---------------------------------------------------------------------------


class BetaMemory(ReteNode):
    """Stores the tokens matching a condition-element prefix.

    The *dummy top* beta memory (depth 0) permanently holds the empty
    token and never receives activations.
    """

    KIND = "bmem"

    __slots__ = ("items",)

    def __init__(self, net: "ReteNetwork", parent: Optional[ReteNode]) -> None:
        super().__init__(net)
        self.parent = parent
        self.items: dict[tuple, Token] = {}

    def left_activate(self, token: Token, direction: str) -> None:
        event = self.net.start_event(self, direction)
        if direction == ADD:
            self.items[token.key] = token
            self.net.count_token_built()
        else:
            token = self.items.pop(token.key)
        event.outputs = 1
        for child in self.children:
            child.left_activate(token, direction)
        self.net.finish_event(event)

    def populate_from_parent(self) -> None:
        """Build-time fill for a freshly created memory (quiet: no events)."""
        parent = self.parent
        if isinstance(parent, JoinNode):
            for token in parent.left_memory.items.values():
                for wme in parent.amem.items.values():
                    if parent.matches(token, wme):
                        child = Token(token, wme)
                        self.items[child.key] = child
        elif isinstance(parent, NegativeNode):
            for key, (token, count) in parent.stored.items():
                if count == 0:
                    child = Token(token, None)
                    self.items[child.key] = child
        elif parent is not None:  # pragma: no cover - builder invariant
            raise TypeError(f"beta memory under unexpected parent {parent!r}")


def _evaluate_join_tests(
    tests: tuple[JoinTest, ...], token: Token, wme: WME, own_ce: int
) -> bool:
    """Evaluate the cross-CE consistency tests for a candidate pair.

    ``own_ce`` is the LHS index of the CE this two-input node implements;
    a test whose ``other_ce`` equals it compares two fields of the
    candidate WME itself (an intra-CE predicate against a locally bound
    variable).
    """
    for test in tests:
        own_value = wme.get(test.own_attribute)
        other_wme = wme if test.other_ce == own_ce else token.wme_at(test.other_ce)
        if other_wme is None:  # pragma: no cover - validation forbids this
            return False
        if not test.predicate.apply(own_value, other_wme.get(test.other_attribute)):
            return False
    return True


class JoinNode(ReteNode):
    """A two-input node for a positive condition element.

    Left input: tokens from ``left_memory`` (the preceding beta memory).
    Right input: WMEs from ``amem``.  Emits extended tokens for every
    consistent pair.

    With ``indexed=True`` (the hashed-memory organisation studied in the
    PSM project's implementation work), the node keeps hash indexes over
    both inputs keyed by the equality-join values, so an activation
    probes a bucket instead of scanning the whole opposite memory.
    Non-equality (predicate) tests remain residual per-candidate checks.
    The conflict-set semantics are identical either way -- only the
    comparison counts (and therefore the modelled cost) change.
    """

    KIND = "join"

    __slots__ = (
        "left_memory",
        "amem",
        "tests",
        "ce_index",
        "eq_tests",
        "residual_tests",
        "indexed",
        "left_index",
        "right_index",
    )

    def __init__(
        self,
        net: "ReteNetwork",
        left_memory: BetaMemory,
        amem: AlphaMemory,
        tests: tuple[JoinTest, ...],
        ce_index: int,
        indexed: bool = False,
    ) -> None:
        super().__init__(net)
        self.left_memory = left_memory
        self.amem = amem
        self.tests = tests
        self.ce_index = ce_index
        # Equality tests against earlier CEs are hashable; intra-CE
        # predicates and ordering predicates stay residual.
        self.eq_tests = tuple(
            t
            for t in tests
            if t.predicate.name == "EQ" and t.other_ce != ce_index
        )
        self.residual_tests = tuple(t for t in tests if t not in self.eq_tests)
        self.indexed = indexed and bool(self.eq_tests)
        #: eq-key tuple -> {token.key: token} (left input index).
        self.left_index: dict[tuple, dict[tuple, Token]] = {}
        #: eq-key tuple -> {timetag: wme} (right input index).
        self.right_index: dict[tuple, dict[int, WME]] = {}
        self.rebuild_indexes()

    # Join keys are tuples of the values themselves: a dict compares OPS5
    # values the way OPS5 does (``1`` and ``1.0`` share a bucket, a symbol
    # never equals a number; ``bool`` and NaN are refused at ingestion),
    # so a bucket holds exactly the candidates an equality scan would pass.

    def _token_key(self, token: Token) -> tuple:
        key = []
        for test in self.eq_tests:
            other = token.wme_at(test.other_ce)
            key.append(other.get(test.other_attribute) if other else None)
        return tuple(key)

    def _wme_key(self, wme: WME) -> tuple:
        return tuple([wme.get(test.own_attribute) for test in self.eq_tests])

    def rebuild_indexes(self) -> None:
        """Compute both hash indexes from the backing memories (called
        at construction)."""
        self.left_index.clear()
        self.right_index.clear()
        if not self.indexed:
            return
        for token in self.left_memory.items.values():
            self.left_index.setdefault(self._token_key(token), {})[
                token.key
            ] = token
        for wme in self.amem.items.values():
            self.right_index.setdefault(self._wme_key(wme), {})[
                wme.timetag
            ] = wme

    def matches(self, token: Token, wme: WME) -> bool:
        return _evaluate_join_tests(self.tests, token, wme, self.ce_index)

    def _residual_matches(self, token: Token, wme: WME) -> bool:
        return _evaluate_join_tests(self.residual_tests, token, wme, self.ce_index)

    def right_activate(self, wme: WME, direction: str) -> None:
        """A WME entered/left our alpha memory: pair with stored tokens."""
        event = self.net.start_event(self, direction, side="right")
        matched: list[Token] = []
        if self.indexed:
            key = self._wme_key(wme)
            if direction == ADD:
                self.right_index.setdefault(key, {})[wme.timetag] = wme
            else:
                bucket = self.right_index.get(key, {})
                bucket.pop(wme.timetag, None)
                if not bucket:
                    self.right_index.pop(key, None)
            event.comparisons += 1  # the hash probe
            for token in self.left_index.get(key, {}).values():
                event.comparisons += 1 if self.residual_tests else 0
                if self._residual_matches(token, wme):
                    matched.append(token)
        else:
            for token in self.left_memory.items.values():
                event.comparisons += 1
                if self.matches(token, wme):
                    matched.append(token)
        for token in matched:
            event.outputs += 1
            child_token = Token(token, wme)
            for child in self.children:
                child.left_activate(child_token, direction)
        self.net.finish_event(event)

    def left_activate(self, token: Token, direction: str) -> None:
        """A token entered/left our beta memory: pair with stored WMEs."""
        event = self.net.start_event(self, direction, side="left")
        matched: list[WME] = []
        if self.indexed:
            key = self._token_key(token)
            if direction == ADD:
                self.left_index.setdefault(key, {})[token.key] = token
            else:
                bucket = self.left_index.get(key, {})
                bucket.pop(token.key, None)
                if not bucket:
                    self.left_index.pop(key, None)
            event.comparisons += 1  # the hash probe
            for wme in self.right_index.get(key, {}).values():
                event.comparisons += 1 if self.residual_tests else 0
                if self._residual_matches(token, wme):
                    matched.append(wme)
        else:
            for wme in self.amem.items.values():
                event.comparisons += 1
                if self.matches(token, wme):
                    matched.append(wme)
        for wme in matched:
            event.outputs += 1
            child_token = Token(token, wme)
            for child in self.children:
                child.left_activate(child_token, direction)
        self.net.finish_event(event)


class NegativeNode(ReteNode):
    """A two-input node for a negated condition element.

    Stores each left token together with the count of WMEs currently
    blocking it.  A token flows downstream (extended with a ``None``
    entry to keep LHS positions aligned) exactly while its count is zero.
    """

    KIND = "neg"

    __slots__ = ("left_memory", "amem", "tests", "ce_index", "stored")

    def __init__(
        self,
        net: "ReteNetwork",
        left_memory: BetaMemory,
        amem: AlphaMemory,
        tests: tuple[JoinTest, ...],
        ce_index: int,
    ) -> None:
        super().__init__(net)
        self.left_memory = left_memory
        self.amem = amem
        self.tests = tests
        self.ce_index = ce_index
        #: token.key -> (token, number of blocking WMEs)
        self.stored: dict[tuple, tuple[Token, int]] = {}

    def matches(self, token: Token, wme: WME) -> bool:
        return _evaluate_join_tests(self.tests, token, wme, self.ce_index)

    def _propagate(self, token: Token, direction: str) -> int:
        child_token = Token(token, None)
        for child in self.children:
            child.left_activate(child_token, direction)
        return 1

    def left_activate(self, token: Token, direction: str) -> None:
        event = self.net.start_event(self, direction, side="left")
        if direction == ADD:
            count = 0
            for wme in self.amem.items.values():
                event.comparisons += 1
                if self.matches(token, wme):
                    count += 1
            self.stored[token.key] = (token, count)
            if count == 0:
                event.outputs += self._propagate(token, ADD)
        else:
            stored_token, count = self.stored.pop(token.key)
            if count == 0:
                event.outputs += self._propagate(stored_token, DELETE)
        self.net.finish_event(event)

    def right_activate(self, wme: WME, direction: str) -> None:
        event = self.net.start_event(self, direction, side="right")
        for key, (token, count) in list(self.stored.items()):
            event.comparisons += 1
            if not self.matches(token, wme):
                continue
            if direction == ADD:
                self.stored[key] = (token, count + 1)
                if count == 0:
                    # Newly blocked: retract the downstream match.
                    event.outputs += self._propagate(token, DELETE)
            else:
                self.stored[key] = (token, count - 1)
                if count == 1:
                    # Last blocker gone: the negation is now satisfied.
                    event.outputs += self._propagate(token, ADD)
        self.net.finish_event(event)

    def populate_from_parent(self) -> None:
        """Build-time fill (quiet): count blockers for existing tokens."""
        for token in self.left_memory.items.values():
            count = sum(1 for wme in self.amem.items.values() if self.matches(token, wme))
            self.stored[token.key] = (token, count)


class TerminalNode(ReteNode):
    """One per production: edits the conflict set.

    ``binding_specs`` lists (variable, ce_index, attribute) triples for
    each variable's first (positive-CE) binding site, so instantiations
    carry the bindings the RHS needs.
    """

    KIND = "term"

    __slots__ = ("production", "binding_specs")

    def __init__(
        self,
        net: "ReteNetwork",
        parent: BetaMemory,
        production: Production,
        binding_specs: tuple[tuple[str, int, str], ...],
    ) -> None:
        super().__init__(net)
        self.parent = parent
        self.production = production
        self.binding_specs = binding_specs

    def _instantiation(self, token: Token) -> Instantiation:
        bindings = {}
        for variable, ce_index, attribute in self.binding_specs:
            wme = token.wme_at(ce_index)
            assert wme is not None  # binding sites are positive CEs
            bindings[variable] = wme.get(attribute)
        return Instantiation(self.production, token.positive_wmes(), bindings)

    def left_activate(self, token: Token, direction: str) -> None:
        event = self.net.start_event(self, direction)
        event.production = self.production.name
        event.outputs = 1
        instantiation = self._instantiation(token)
        if direction == ADD:
            self.net.conflict_set.insert(instantiation)
        else:
            self.net.conflict_set.delete(instantiation)
        self.net.finish_event(event)

    def populate_from_parent(self) -> None:
        """Build-time fill (quiet): instantiate existing full matches."""
        for token in self.parent.items.values():
            self.net.conflict_set.insert(self._instantiation(token))
