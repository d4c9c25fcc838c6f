"""Per-session kernel state: the mutable half of a compiled ruleset.

A compiled ruleset splits in two (ROADMAP item 3, the multi-tenant
serve story):

* the **immutable artifact** -- generated source, its exec'd parts and
  the ``build`` function chaining them -- lives process-wide in
  :class:`~repro.kernel.shared.SharedKernel`, built once per ruleset
  *shape* and shared by every session running it;
* the **mutable state** -- one count per
  :class:`~repro.kernel.layout.AlphaStore`, the beta index dicts the
  generated closures capture (a right index's one-member bucket is the
  WME itself: :func:`_file`), blocker counts, and the conflict-set
  edits -- lives here, one :class:`KernelRuntime` per session.

Attaching a session to a warm kernel therefore costs closure
construction (one ``build`` call over the already-compiled parts)
plus a working-memory replay -- never codegen, ``compile()``, or module
``exec``.  Each runtime's stores and index dicts are private: sessions
share the code, never the state, which is the copy-on-write discipline
that keeps thousands of concurrent sessions isolated.
"""

from __future__ import annotations

from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME, is_number, same_type, values_equal
from .layout import AlphaStore

__all__ = ["KernelRuntime"]


def _lt(a, b) -> bool:
    return is_number(a) and is_number(b) and a < b


def _le(a, b) -> bool:
    return is_number(a) and is_number(b) and a <= b


def _gt(a, b) -> bool:
    return is_number(a) and is_number(b) and a > b


def _ge(a, b) -> bool:
    return is_number(a) and is_number(b) and a >= b


def _file(index: dict, key, wt: int, w: WME) -> None:
    """File *w* in a right index: a key's one member is the WME itself,
    a second promotes the bucket to a ``{timetag: WME}`` dict."""
    b = index.get(key)
    if b is None:
        index[key] = w
    elif type(b) is dict:
        b[wt] = w
    else:
        index[key] = {b.timetag: b, wt: w}


def _unfile(index: dict, key, wt: int) -> None:
    """Drop *wt* from a right index: a dict left with one member demotes
    to that WME, and a key left with none goes."""
    b = index[key]
    if type(b) is not dict:
        del index[key]
        return
    del b[wt]
    if len(b) == 1:
        (index[key],) = b.values()


class KernelRuntime:
    """Everything the generated kernel's parts need, plus the built state:
    they bind the helpers below, call :meth:`store` and :meth:`index`, and
    install the class entries in ``adds`` / ``removes``."""

    __slots__ = ("counters", "cs_insert", "cs_delete", "instantiation",
                 "productions", "stores", "counts", "indexes", "adds", "removes")

    # Join-test helpers, shared by every kernel.
    veq = staticmethod(values_equal)
    same = staticmethod(same_type)
    lt = staticmethod(_lt)
    le = staticmethod(_le)
    gt = staticmethod(_gt)
    ge = staticmethod(_ge)
    # Right-index edits, shared by every kernel.
    file = staticmethod(_file)
    unfile = staticmethod(_unfile)

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
        #: WMEs each store holds, by store index: the generated edits
        #: bump it (the runtime keeps no per-WME row of a store).
        self.counts: list[int] = []
        self.indexes: list[dict] = []  # in ``codegen.plan_right_indexes`` order
        #: class -> generated entry: ``entry(wme)`` edits the stores, runs
        #: their subscribers, returns the number of affected productions.
        self.adds: dict = {}
        self.removes: dict = {}

    def store(self, cls: str, mask: int) -> int:
        """Register a new store; return its *mask* (called by the
        generated code)."""
        self.stores.append(AlphaStore(len(self.stores), cls, mask))
        self.counts.append(0)
        return mask

    def index(self) -> dict:
        """A new right index (called by the generated code)."""
        self.indexes.append(index := {})
        return index

    def add_wme(self, wme: WME) -> int:
        """Insert *wme*; return the number of affected productions."""
        entry = self.adds.get(wme.cls)
        return entry(wme) if entry is not None else 0

    def remove_wme(self, wme: WME) -> int:
        """Retract *wme*; return the number of affected productions."""
        entry = self.removes.get(wme.cls)
        return entry(wme) if entry is not None else 0

    def state_size(self) -> int:
        """WMEs held across this runtime's stores: one per (store, WME)."""
        return sum(self.counts)
