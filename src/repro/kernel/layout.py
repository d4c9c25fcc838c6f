"""Columnar alpha memories and the int encoding of OPS5 values.

The generated join code never hashes a string and never probes a
per-token dict of attribute values.  Both properties come from the
layout in this module:

* :data:`CODES` maps every OPS5 value to one small ``int``, equal iff
  :func:`~repro.ops5.wme.values_equal` says so.  It is a dict keyed by
  the value itself -- dict equality *is* OPS5 equality on OPS5 values:
  ``1`` and ``1.0`` share a code, a ``str`` never equals a number, NaN
  never equals itself -- so a generated store encodes a column with one
  subscript (``C[v]``) and only an unseen value takes ``__missing__``.

* :class:`AlphaStore` is one alpha memory shared by every condition
  element with the same (class, fused alpha tests) signature.  Besides
  the ``timetag -> WME`` row dict it keeps one *column* per attribute
  that any subscriber's join keys reference: ``timetag -> code``, so a
  generated join builds its hash key with one dict probe per component.
  The generated class entries (``kernel/codegen.py``) test, file and
  drop rows themselves; the store is their state, not an object they
  call.  Removal is two-phase there: every delete subscriber of the
  change runs first, then rows and columns drop, because a token being
  retracted builds its key from the columns of its constituent WMEs --
  including the one being deleted.
"""

from __future__ import annotations

import threading

from ..ops5.wme import WME

__all__ = ["AlphaStore", "CODES", "ValueCodes", "encode_value"]


class ValueCodes(dict):
    """The process-wide ``value -> int`` table (see module docs): a miss
    allocates the next code under a lock, so concurrent sessions never
    give one value two codes.  It grows with the distinct values ever
    encoded."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def __missing__(self, value) -> int:
        with self._lock:
            return self.setdefault(value, len(self))


#: The one code table every kernel encodes its columns through.
CODES = ValueCodes()

#: ``encode_value(v)`` is ``CODES[v]`` (verification and tests).
encode_value = CODES.__getitem__


class AlphaStore:
    """One columnar alpha memory: rows, join-key columns, productions.

    Shared by every CE (across all productions of the ruleset) whose
    class and fused alpha tests coincide -- the same sharing the
    interpreted Rete gets from its alpha-memory registry.  ``mask`` has
    bit ``p`` set for each production *position* ``p`` (in the runtime's
    production list) reading the store; the generated entries OR it into
    the change's affected set, which gives the paper's *affected
    productions* count without walking the beta network and without a
    production name in the shared code.
    """

    __slots__ = ("index", "cls", "mask", "rows", "cols")

    def __init__(self, index: int, cls: str, mask: int, columns: tuple[str, ...]) -> None:
        #: Position in the runtime's store list (the plan's store index).
        self.index = index
        self.cls = cls
        self.mask = mask
        self.rows: dict[int, WME] = {}
        self.cols: dict[str, dict[int, int]] = {attr: {} for attr in columns}

    @property
    def productions(self) -> tuple[int, ...]:
        """The positions in ``mask``, ascending."""
        return tuple(p for p in range(self.mask.bit_length()) if self.mask >> p & 1)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlphaStore({self.cls}, rows={len(self.rows)}, "
            f"cols={list(self.cols)}, productions={list(self.productions)})"
        )
