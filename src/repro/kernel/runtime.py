"""Per-session kernel state: the mutable half of a compiled ruleset.

A compiled ruleset splits in two (ROADMAP item 3, the multi-tenant
serve story):

* the **immutable artifact** -- generated source, code object, exec'd
  ``build`` function -- lives process-wide in
  :class:`~repro.kernel.shared.SharedKernel`, built once per ruleset
  *shape* and shared by every session running it;
* the **mutable state** -- :class:`~repro.kernel.layout.AlphaStore`
  rows/columns, the beta index dicts the generated closures capture,
  blocker counts, and the conflict-set edits -- lives here, one
  :class:`KernelRuntime` per session.

Attaching a session to a warm kernel therefore costs closure
construction (one ``build`` call over the already-compiled code object)
plus a working-memory replay -- never codegen, ``compile()``, or module
``exec``.  Each runtime's stores and index dicts are private: sessions
share the code, never the state, which is the copy-on-write discipline
that keeps thousands of concurrent sessions isolated.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME, is_number, same_type, values_equal
from .layout import AlphaStore

__all__ = ["KernelRuntime"]


_store_index = attrgetter("index")
_NO_NAMES: frozenset[str] = frozenset()


def _eqn(a, b) -> bool:
    """``a == b`` where *b* is a numeric constant (symbols never match)."""
    return is_number(a) and a == b


def _lt(a, b) -> bool:
    return is_number(a) and is_number(b) and a < b


def _le(a, b) -> bool:
    return is_number(a) and is_number(b) and a <= b


def _gt(a, b) -> bool:
    return is_number(a) and is_number(b) and a > b


def _ge(a, b) -> bool:
    return is_number(a) and is_number(b) and a >= b


def _anyeq(a, values) -> bool:
    """OPS5 disjunction ``<< v1 v2 ... >>`` membership."""
    for v in values:
        if values_equal(a, v):
            return True
    return False


class KernelRuntime:
    """Everything a generated ``build(rt)`` needs, plus the built state.

    The generated module binds the helper functions and conflict-set
    editors to locals once per build; ``store``/``subscribe`` are called
    during build to materialise the columnar memories and register the
    per-CE right-activation closures.
    """

    __slots__ = ("counters", "cs_insert", "cs_delete", "instantiation",
                 "productions", "stores", "by_class", "subscriptions")

    # Comparison helpers, shared by every generated kernel.
    veq = staticmethod(values_equal)
    same = staticmethod(same_type)
    num = staticmethod(is_number)
    eqn = staticmethod(_eqn)
    lt = staticmethod(_lt)
    le = staticmethod(_le)
    gt = staticmethod(_gt)
    ge = staticmethod(_ge)
    anyeq = staticmethod(_anyeq)

    def __init__(self, conflict_set, productions: list[Production]) -> None:
        #: [node activations, comparisons, tokens built] -- the generated
        #: code increments these; the matcher snapshots deltas per change.
        self.counters = [0, 0, 0]
        self.cs_insert = conflict_set.insert
        self.cs_delete = conflict_set.delete_key
        self.instantiation = Instantiation
        #: Positional production list, in codegen order.
        self.productions = productions
        self.stores: list[AlphaStore] = []
        #: The alpha dispatch table the generated ``build`` installs (see
        #: ``codegen.plan_alpha_index``): class -> (groups, linear tail),
        #: a group being (attribute | attribute tuple, {constants: stores}).
        self.by_class: dict[str, tuple[tuple, tuple[AlphaStore, ...]]] = {}
        self.subscriptions = 0

    def store(
        self,
        index: int,
        cls: str,
        columns: tuple[str, ...],
        predicate,
        production_names: tuple[str, ...],
    ) -> AlphaStore:
        assert index == len(self.stores)
        store = AlphaStore(index, cls, columns, predicate, frozenset(production_names))
        self.stores.append(store)
        return store

    def subscribe(self, store: AlphaStore, add_fn, del_fn) -> None:
        store.add_subs.append(add_fn)
        store.del_subs.append(del_fn)
        self.subscriptions += 1

    def index_stores(self, table: dict) -> None:
        """Install the alpha dispatch table (once, from ``build``)."""
        self.by_class = table

    def candidates(self, wme: WME) -> Sequence[AlphaStore]:
        """The stores whose constant tests *wme* can pass, in store order.

        One dict probe per group plus the class's linear tail -- a
        superset of the stores whose full predicate passes (the caller
        still runs it), never the whole class.
        """
        entry = self.by_class.get(wme.cls)
        if entry is None:
            return ()
        groups, found = entry
        get = wme.get
        for attrs, table in groups:
            hit = table.get(get(attrs) if type(attrs) is str else tuple(map(get, attrs)))
            if hit is not None:
                found = sorted((*found, *hit), key=_store_index) if found else hit
        return found

    def add_wme(self, wme: WME) -> int:
        """Insert *wme* into every store it passes and run their add
        subscribers; return the number of affected productions."""
        names = _NO_NAMES
        for store in self.candidates(wme):
            predicate = store.predicate
            if predicate is None or predicate(wme):
                store.insert(wme)
                for fn in store.add_subs:
                    fn(wme)
                # One store is the common hit: its own frozenset, no union.
                names = names | store.production_names if names else store.production_names
        return len(names)

    def remove_wme(self, wme: WME) -> int:
        """Retract *wme* from every store holding it; return the number
        of affected productions.

        Two-phase: every delete subscriber runs while rows and columns
        still hold the dying WME (retraction re-builds token keys from
        the columns of all constituent WMEs), then the rows drop.
        """
        timetag = wme.timetag
        stores = self.candidates(wme)
        names = _NO_NAMES
        for store in stores:
            if timetag in store.rows:
                for fn in store.del_subs:
                    fn(wme)
                names = names | store.production_names if names else store.production_names
        for store in stores:
            if timetag in store.rows:
                store.remove(wme)
        return len(names)

    def replay(self, wmes: Iterable[WME]) -> None:
        """Feed existing WMEs (in timetag order) into the fresh state.

        This is the O(working-memory) half of a session attach: stores
        fill, join indexes build, and the conflict set re-derives --
        quietly, with no per-change stats rows (the caller snapshots
        counter deltas around the whole replay).
        """
        for wme in wmes:
            self.add_wme(wme)

    def alpha_index_summary(self) -> dict:
        """Shape of the dispatch table (``kernel_summary``'s block)."""
        tails = [len(tail) for _groups, tail in self.by_class.values()]
        return {
            "classes": len(self.by_class),
            "groups": sum(len(groups) for groups, _tail in self.by_class.values()),
            "indexed_stores": len(self.stores) - sum(tails),
            "linear_tail_stores": sum(tails),
            "largest_tail": max(tails, default=0),
        }

    def state_size(self) -> int:
        """Rows across all stores (parity with ReteNetwork.state_size)."""
        return sum(len(s) for s in self.stores)
