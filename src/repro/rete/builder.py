"""Compiling productions into the shared Rete network.

The builder walks a production's LHS analysis
(:func:`repro.ops5.condition.analyze_lhs`) and materialises the node
chain, *sharing* every node whose key already exists:

* alpha chain: class root -> one :class:`AlphaTestNode` per elementary
  single-WME test (in a canonical order, so identical CEs share their
  whole chain) -> :class:`AlphaMemory`;
* beta chain: dummy top -> (join | negative) -> beta memory -> ... ->
  terminal.  Two-input nodes are shared when parent memory, alpha
  memory, and join tests all coincide -- i.e. when two productions have
  identical LHS prefixes.

Sharing is the property the paper leans on twice: it is a large
uniprocessor win (Section 4), and *losing* it is one of the three
overheads behind the 1.93 lost factor of the parallel implementation
(Section 6), since production-parallel schemes cannot share.

New nodes are populated from current working memory at build time
("quiet" population: no activation events), so productions may be added
while the system runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..ops5.condition import (
    CEAnalysis,
    ConstantTest,
    DisjunctiveTest,
    PredicateTest,
    Test,
    binding_sites,
    wme_passes_alpha,
)
from ..ops5.production import Production
from ..ops5.wme import WME, values_equal
from .nodes import (
    AlphaMemory,
    AlphaTestNode,
    BetaMemory,
    JoinNode,
    NegativeNode,
    ReteNode,
    TerminalNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from .network import ReteNetwork


class _ClassRootPredicate:
    """The per-class entry point's predicate: every routed WME passes.

    Alpha predicates are plain callable objects (not closures), so what
    a node tests can be read off the node.
    """

    __slots__ = ()

    def __call__(self, wme: WME) -> bool:
        return True


class _AttributeTestPredicate:
    """A WME predicate for one (attribute, test) pair.

    Only constant-operand tests reach the alpha network, so evaluation
    with empty bindings is complete.
    """

    __slots__ = ("attribute", "test")

    def __init__(self, attribute: str, test: Test) -> None:
        self.attribute = attribute
        self.test = test

    def __call__(self, wme: WME) -> bool:
        return self.test.evaluate(wme.get(self.attribute), {}) is not None


class _IntraTestPredicate:
    """A WME predicate for intra-CE variable consistency."""

    __slots__ = ("attr_a", "attr_b")

    def __init__(self, attr_a: str, attr_b: str) -> None:
        self.attr_a = attr_a
        self.attr_b = attr_b

    def __call__(self, wme: WME) -> bool:
        return values_equal(wme.get(self.attr_a), wme.get(self.attr_b))


def _test_share_key(attribute: str, test: Test) -> tuple:
    """A canonical hashable key identifying one alpha test."""
    if isinstance(test, ConstantTest):
        return ("const", attribute, type(test.value).__name__, test.value)
    if isinstance(test, DisjunctiveTest):
        return ("disj", attribute, test.values)
    if isinstance(test, PredicateTest):
        assert isinstance(test.operand, ConstantTest)
        return ("pred", attribute, test.predicate.value, test.operand.value)
    raise TypeError(f"unexpected alpha test {test!r}")  # pragma: no cover


class NetworkBuilder:
    """Builds (and prunes) node chains inside one :class:`ReteNetwork`."""

    def __init__(self, net: "ReteNetwork") -> None:
        self.net = net

    # -- building -------------------------------------------------------------

    def build(self, production: Production) -> list[ReteNode]:
        """Compile *production*; return every node it uses, terminal last."""
        net = self.net
        used: list[ReteNode] = []

        current: BetaMemory = net.dummy_top
        for analysis in production.analysis:
            amem = self._alpha_chain(analysis, production.name, used)
            kind = "neg" if analysis.ce.negated else "join"
            key = ("beta", current.id, kind, amem.id, analysis.join_tests)
            node = net.share_registry.get(key)
            if node is None:
                if kind == "neg":
                    node = NegativeNode(net, current, amem, analysis.join_tests, analysis.index)
                    current.children.append(node)
                    # Descendants-first successor order (Doorenbos 2.4.1):
                    # when one WME feeds several CEs of a production
                    # through a shared alpha memory, the deeper join must
                    # right-activate before its ancestors, or the pair is
                    # produced twice.  Nodes attach top-down, so
                    # prepending yields exactly that order.
                    amem.successors.insert(0, node)
                    node.populate_from_parent()
                else:
                    node = JoinNode(
                        net, current, amem, analysis.join_tests,
                        analysis.index, indexed=net.indexed,
                    )
                    current.children.append(node)
                    amem.successors.insert(0, node)
                self._register(key, node)
            else:
                net.nodes_shared += 1
            used.append(node)

            bkey = ("bmem", node.id)
            bmem = net.share_registry.get(bkey)
            if bmem is None:
                bmem = BetaMemory(net, node)
                node.children.append(bmem)
                bmem.populate_from_parent()
                self._register(bkey, bmem)
            else:
                net.nodes_shared += 1
            assert isinstance(bmem, BetaMemory)
            used.append(bmem)
            current = bmem

        terminal = TerminalNode(
            net, current, production, binding_sites(production.analysis)
        )
        current.children.append(terminal)
        terminal.populate_from_parent()
        used.append(terminal)

        for node in used:
            node.refcount += 1
        return used

    def _alpha_chain(
        self, analysis: CEAnalysis, production_name: str, used: list[ReteNode]
    ) -> AlphaMemory:
        """Walk/create the constant-test chain and memory for one CE."""
        net = self.net
        cls = analysis.ce.cls

        root = net.class_roots.get(cls)
        if root is None:
            root = AlphaTestNode(net, ("class", cls), _ClassRootPredicate())
            # The per-class entry point is the change's root task in the
            # activation trace; its cost model differs from plain
            # constant tests.
            root.kind = "root"
            net.class_roots[cls] = root
            self._register(("class", cls), root)
        else:
            net.nodes_shared += 1
        used.append(root)
        parent: AlphaTestNode = root

        keys: list[tuple] = []
        predicates = []
        for attribute, test in sorted(
            analysis.alpha_tests, key=lambda pair: (pair[0], repr(pair[1]))
        ):
            keys.append(_test_share_key(attribute, test))
            predicates.append(_AttributeTestPredicate(attribute, test))
        for attr_a, attr_b in sorted(analysis.intra_tests):
            keys.append(("intra", attr_a, attr_b))
            predicates.append(_IntraTestPredicate(attr_a, attr_b))

        for key, predicate in zip(keys, predicates):
            full_key = ("alpha", parent.id) + key
            node = net.share_registry.get(full_key)
            if node is None:
                node = AlphaTestNode(net, full_key, predicate)
                node.parent = parent  # type: ignore[attr-defined]
                parent.children.append(node)
                self._register(full_key, node)
            else:
                net.nodes_shared += 1
            assert isinstance(node, AlphaTestNode)
            used.append(node)
            parent = node

        mem_key = ("amem", parent.id)
        amem = net.share_registry.get(mem_key)
        if amem is None:
            amem = AlphaMemory(net)
            amem.parent = parent  # type: ignore[attr-defined]
            parent.children.append(amem)
            # Quiet population from current working memory; the CE's alpha
            # semantics are exactly wme_passes_alpha.
            for wme in net.memory:
                if wme_passes_alpha(wme, analysis):
                    amem.items[wme.timetag] = wme
            self._register(mem_key, amem)
        else:
            net.nodes_shared += 1
        assert isinstance(amem, AlphaMemory)
        amem.production_names.add(production_name)
        used.append(amem)
        return amem

    def _register(self, key: tuple, node: ReteNode) -> None:
        self.net.share_registry[key] = node
        node.share_key_full = key  # type: ignore[attr-defined]

    # -- pruning --------------------------------------------------------------

    def detach(self, node: ReteNode) -> None:
        """Remove a refcount-zero node from the network graph."""
        net = self.net
        key = getattr(node, "share_key_full", None)
        if key is not None:
            net.share_registry.pop(key, None)
        if isinstance(node, TerminalNode):
            node.parent.children.remove(node)
        elif isinstance(node, (JoinNode, NegativeNode)):
            node.left_memory.children.remove(node)
            node.amem.successors.remove(node)
        elif isinstance(node, BetaMemory):
            parent = node.parent
            if parent is not None:
                parent.children.remove(node)
        elif isinstance(node, AlphaMemory):
            node.parent.children.remove(node)  # type: ignore[attr-defined]
        elif isinstance(node, AlphaTestNode):
            parent = getattr(node, "parent", None)
            if parent is None:
                # A class root.
                cls = node.share_key[1]
                net.class_roots.pop(cls, None)
            else:
                parent.children.remove(node)
