"""Columnar alpha memories and the int encoding of OPS5 values.

The generated join code never hashes a string and never probes a
per-token dict of attribute values.  Both properties come from the
layout in this module:

* :func:`encode_value` maps every OPS5 value to one small ``int``:
  symbols to ``2 * intern_id + 1`` (odd) through the process-wide
  :data:`~repro.ops5.symbols.SYMBOLS` table, numbers to ``2 * num_id``
  (even) through the :data:`NUMBERS` table.  The parity bit replaces
  the type mask the interpreted Rete appends to its index keys: a
  symbol id can never collide with a number id.  :data:`NUMBERS` keys
  its dict by the numeric value itself, so ``1`` and ``1.0`` share an
  id exactly as :func:`~repro.ops5.wme.values_equal` equates them.
  (``bool`` is not an OPS5 value -- ``Value = str | int | float`` -- so
  the ``True == 1`` dict collision cannot arise from parsed programs.)

* :class:`AlphaStore` is one alpha memory shared by every condition
  element with the same (class, fused alpha tests) signature.  Besides
  the ``timetag -> WME`` row dict it keeps one *column* per attribute
  that any subscriber's join keys reference: ``timetag -> encoded
  value``.  A generated join builds its hash key with one dict probe
  per component (the column dict is bound to a local variable in the
  generated closure) instead of ``wme.get(attr)`` plus an intern probe
  per component per activation.

Column removal on WME deletion is two-phase (see
``kernel/matcher.py``): all delete subscriptions fire first, then rows
and columns drop, because a token being retracted builds its key from
the columns of its constituent WMEs -- including the one being deleted.
"""

from __future__ import annotations

import threading

from ..ops5.symbols import intern_id
from ..ops5.wme import WME

__all__ = ["AlphaStore", "NUMBERS", "NumberTable", "encode_value"]


class NumberTable:
    """Dense ``number -> int`` intern table (the numeric half of
    :func:`encode_value`).

    The dict key is the number itself: Python dict equality already
    equates ``1`` and ``1.0`` (equal hash, equal value), which is
    precisely OPS5's numeric equality, so both spellings share one id.
    Thread-safety mirrors :class:`~repro.ops5.symbols.SymbolTable`:
    the hit path is a plain dict probe; only a miss takes the lock.
    """

    __slots__ = ("_ids", "_lock")

    def __init__(self) -> None:
        self._ids: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def number_id(self, value) -> int:
        ident = self._ids.get(value)
        if ident is not None:
            return ident
        with self._lock:
            return self._ids.setdefault(value, len(self._ids))


#: The process-wide number table; shares the encoded-id space with
#: :data:`~repro.ops5.symbols.SYMBOLS` via the parity bit.
NUMBERS = NumberTable()

_number_id = NUMBERS.number_id


def encode_value(value) -> int:
    """One int per OPS5 value, equal iff :func:`values_equal` says so."""
    if type(value) is str:
        return (intern_id(value) << 1) | 1
    return _number_id(value) << 1


class AlphaStore:
    """One columnar alpha memory: rows, join-key columns, subscribers.

    Shared by every CE (across all productions of the ruleset) whose
    class and fused alpha tests coincide -- the same sharing the
    interpreted Rete gets from its alpha-memory registry.
    ``production_names`` is the union of subscribing productions, which
    gives the paper's *affected productions* count per change without
    walking the beta network.
    """

    __slots__ = (
        "index",
        "cls",
        "predicate",
        "production_names",
        "rows",
        "cols",
        "add_subs",
        "del_subs",
        "_col_items",
    )

    def __init__(
        self,
        index: int,
        cls: str,
        columns: tuple[str, ...],
        predicate,
        production_names: frozenset[str],
    ) -> None:
        #: Position in the runtime's store list: the visiting order.
        self.index = index
        self.cls = cls
        #: Fused alpha predicate closure, or ``None`` for class-only CEs.
        self.predicate = predicate
        self.production_names = production_names
        self.rows: dict[int, WME] = {}
        self.cols: dict[str, dict[int, int]] = {attr: {} for attr in columns}
        self.add_subs: list = []
        self.del_subs: list = []
        self._col_items = tuple(self.cols.items())

    def insert(self, wme: WME) -> None:
        """Add a row; encode every subscribed column once."""
        timetag = wme.timetag
        self.rows[timetag] = wme
        get = wme.get
        for attr, col in self._col_items:
            col[timetag] = encode_value(get(attr))

    def remove(self, wme: WME) -> None:
        """Drop a row and its column entries (after delete propagation)."""
        timetag = wme.timetag
        del self.rows[timetag]
        for _attr, col in self._col_items:
            del col[timetag]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlphaStore({self.cls}, rows={len(self.rows)}, "
            f"cols={list(self.cols)}, prods={sorted(self.production_names)})"
        )
