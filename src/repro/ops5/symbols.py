"""The value-code table: every OPS5 value as one small, dense ``int``.

The paper's PSM reaches its 9400 wme-changes/sec only because a
scheduling operation costs about one bus cycle (Section 5); every
software analogue of that number starts with making the *unit of work*
small.  Both hashed matchers build join keys over and over -- the
compiled kernel's columnar stores (``kernel/layout.py``) and the
hash-indexed Rete's join memories (``JoinNode._token_key`` /
``_wme_key``) -- so both key on codes from this one table: C-speed
hashing and equality over ints, the Hiperfact observation that
fact-layout interning is the first-order lever for Rete-family
throughput.

:data:`CODES` is a dict keyed by the value itself, and dict equality
*is* OPS5 equality on OPS5 values: ``1`` and ``1.0`` share a code, a
``str`` never equals a number, NaN never equals itself.  So equal codes
mean :func:`~repro.ops5.wme.values_equal` values, a key needs no type
tag, and encoding is one subscript (``CODES[v]``); only an unseen value
takes ``__missing__``.  Codes are process-local.

Growth: the table keeps one entry per distinct value any matcher ever
encoded (symbols and numbers alike) for the life of the process; it is
not bounded.  Parsing, fingerprinting and codegen never encode, so
loading a ruleset -- cached or not -- adds nothing; working-memory
traffic does.
"""

from __future__ import annotations

import threading

__all__ = ["CODES", "ValueCodes", "encode_value"]


class ValueCodes(dict):
    """The process-wide ``value -> int`` table (see module docs): a miss
    allocates the next code under a lock, so concurrent sessions never
    give one value two codes."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def __missing__(self, value) -> int:
        with self._lock:
            return self.setdefault(value, len(self))


#: The one code table every matcher encodes its join keys through.
CODES = ValueCodes()

#: ``encode_value(v)`` is ``CODES[v]`` (verification and tests).
encode_value = CODES.__getitem__
