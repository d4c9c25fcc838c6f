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

from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME, is_number, same_type, values_equal
from .layout import CODES, AlphaStore

__all__ = ["KernelRuntime"]


def _lt(a, b) -> bool:
    return is_number(a) and is_number(b) and a < b


def _le(a, b) -> bool:
    return is_number(a) and is_number(b) and a <= b


def _gt(a, b) -> bool:
    return is_number(a) and is_number(b) and a > b


def _ge(a, b) -> bool:
    return is_number(a) and is_number(b) and a >= b


class KernelRuntime:
    """Everything a generated ``build(rt)`` needs, plus the built state:
    ``build`` binds the helpers below, calls :meth:`store` per alpha
    store and installs its class entries in ``adds`` / ``removes``."""

    __slots__ = ("counters", "cs_insert", "cs_delete", "instantiation",
                 "productions", "stores", "adds", "removes")

    # Join-test helpers and the value codes, shared by every kernel.
    veq = staticmethod(values_equal)
    same = staticmethod(same_type)
    lt = staticmethod(_lt)
    le = staticmethod(_le)
    gt = staticmethod(_gt)
    ge = staticmethod(_ge)
    codes = CODES

    def __init__(self, conflict_set, productions: list[Production]) -> None:
        #: [node activations, comparisons, tokens built] -- the generated
        #: code increments these.  ``SharedKernel.attach`` swaps in a
        #: matcher's shared list (its ``MatchStats.effort``).
        self.counters = [0, 0, 0]
        self.cs_insert = conflict_set.insert
        self.cs_delete = conflict_set.delete_key
        self.instantiation = Instantiation
        #: Positional production list, in codegen order: a store's
        #: ``productions`` and the entries' affected bitmasks index it.
        self.productions = productions
        self.stores: list[AlphaStore] = []
        #: class -> generated entry: ``entry(wme)`` edits the stores, runs
        #: their subscribers, returns the number of affected productions.
        self.adds: dict = {}
        self.removes: dict = {}

    def store(self, cls: str, mask: int, *columns: str) -> tuple:
        """A new store's ``(rows, *columns)`` dicts (called from ``build``)."""
        store = AlphaStore(len(self.stores), cls, mask, columns)
        self.stores.append(store)
        return (store.rows, *store.cols.values())

    def add_wme(self, wme: WME) -> int:
        """Insert *wme*; return the number of affected productions."""
        entry = self.adds.get(wme.cls)
        return entry(wme) if entry is not None else 0

    def remove_wme(self, wme: WME) -> int:
        """Retract *wme*; return the number of affected productions."""
        entry = self.removes.get(wme.cls)
        return entry(wme) if entry is not None else 0

    def state_size(self) -> int:
        """Rows across all stores (parity with ReteNetwork.state_size)."""
        return sum(len(s) for s in self.stores)
