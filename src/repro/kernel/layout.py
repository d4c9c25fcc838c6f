"""Columnar alpha memories: the stores the generated join code probes.

The generated join code never probes a per-token dict of attribute
values.  That property comes from the layout in this module:

* :class:`AlphaStore` is one alpha memory shared by every condition
  element with the same (class, fused alpha tests) signature.  Besides
  the ``timetag -> WME`` row dict it keeps one *column* per attribute
  that any subscriber's join keys reference: ``timetag -> value`` (the
  WME's own value object, ``nil`` when unassigned), so a generated join
  builds its hash key with one dict probe per component and a key
  compares values the way OPS5 does (see ``kernel/codegen.py``).
  The generated class entries (``kernel/codegen.py``) test, file and
  drop rows themselves; the store is their state, not an object they
  call.  Removal is two-phase there: every delete subscriber of the
  change runs first, then rows and columns drop, because a token being
  retracted builds its key from the columns of its constituent WMEs --
  including the one being deleted.
"""

from __future__ import annotations

from ..ops5.wme import WME, Value

__all__ = ["AlphaStore"]


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
        self.cols: dict[str, dict[int, Value]] = {attr: {} for attr in columns}

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
