"""Symbol interning: OPS5 symbols as small, dense integer ids.

The paper's PSM reaches its 9400 wme-changes/sec only because a
scheduling operation costs about one bus cycle (Section 5); every
software analogue of that number starts with making the *unit of work*
small.  The hash-indexed Rete join memories (``JoinNode._token_key`` /
``_wme_key``) and the compiled kernel's columnar stores
(``kernel/layout.py``) hash and compare symbol values over and over.

A :class:`SymbolTable` maps each distinct symbol string to a dense
``int`` id, one allocation per *distinct* symbol ever seen, so join
keys carry ints (C-speed hashing and equality) -- the Hiperfact
observation that fact-layout interning, not algorithmic novelty, is the
first-order lever for Rete-family throughput.  Everything interns
through the process-wide table (:data:`SYMBOLS`, via
:func:`intern_id`); ids are process-local.

Numbers are never interned: OPS5 equality compares ``1`` and ``1.0``
equal but a symbol never equals a number, so join keys tag interned
positions with a type mask (see ``rete/nodes.py``).
"""

from __future__ import annotations

import threading

__all__ = ["SymbolTable", "SYMBOLS", "intern_id"]


class SymbolTable:
    """A dense ``str <-> int`` intern table.

    Ids are assigned sequentially from 0 in intern order.  Interning is
    thread-safe: the read path is a plain dict probe (atomic under the
    GIL); only a miss takes the lock, so concurrent sessions interning
    the same new symbol cannot race two different ids onto it.
    """

    __slots__ = ("_ids", "_texts", "_lock")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._texts: list[str] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._texts)

    def intern_id(self, text: str) -> int:
        """The id for *text*, allocating the next one on first sight."""
        ident = self._ids.get(text)
        if ident is not None:
            return ident
        with self._lock:
            ident = self._ids.get(text)
            if ident is None:
                ident = len(self._texts)
                self._texts.append(text)
                self._ids[text] = ident
            return ident

    def text_of(self, ident: int) -> str:
        """The symbol string for *ident* (raises ``IndexError`` if unknown)."""
        return self._texts[ident]


#: The process-wide table: Rete join keys and the compiled kernel's
#: columns share this one id space.
SYMBOLS = SymbolTable()

#: Bound method lookup hoisted once -- the hot paths call this a lot.
intern_id = SYMBOLS.intern_id
