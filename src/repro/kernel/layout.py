"""Alpha memories: the stores the generated class entries edit.

:class:`AlphaStore` is one alpha memory shared by every condition
element with the same (class, fused alpha tests) signature: a
``timetag -> WME`` row dict and the mask of the productions reading it.
The generated class entries (``kernel/codegen.py``) test, file and drop
rows themselves; the store is their state, not an object they call.
Join keys read the WMEs a row or token already holds, so a store keeps
no second copy of their values, and a remove mirrors an add: a store's
delete subscribers run, then its row drops.
"""

from __future__ import annotations

from ..ops5.wme import WME

__all__ = ["AlphaStore"]


class AlphaStore:
    """One alpha memory: rows and the productions reading them.

    Shared by every CE (across all productions of the ruleset) whose
    class and fused alpha tests coincide -- the same sharing the
    interpreted Rete gets from its alpha-memory registry.  ``mask`` has
    bit ``p`` set for each production *position* ``p`` (in the runtime's
    production list) reading the store; the generated entries OR it into
    the change's affected set, which gives the paper's *affected
    productions* count without walking the beta network and without a
    production name in the shared code.
    """

    __slots__ = ("index", "cls", "mask", "rows")

    def __init__(self, index: int, cls: str, mask: int) -> None:
        #: Position in the runtime's store list (the plan's store index).
        self.index = index
        self.cls = cls
        self.mask = mask
        self.rows: dict[int, WME] = {}

    @property
    def productions(self) -> tuple[int, ...]:
        """The positions in ``mask``, ascending."""
        return tuple(p for p in range(self.mask.bit_length()) if self.mask >> p & 1)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlphaStore({self.cls}, rows={len(self.rows)}, "
            f"productions={list(self.productions)})"
        )
