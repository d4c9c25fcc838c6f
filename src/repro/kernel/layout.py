"""Alpha memories: the stores the generated class entries edit.

:class:`AlphaStore` is one alpha memory shared by every condition
element with the same (class, fused alpha tests) signature: its class
and the mask of the productions reading it.  A store holds no WME: the
right indexes it feeds file them, and the runtime keeps one count per
store (``KernelRuntime.counts``), which the generated class entries
(``kernel/codegen.py``) bump as they file and unfile.  Records are
immutable, so a remove runs the add's tests to find the stores that
hold the WME; its delete subscribers run, then its count drops.
"""

from __future__ import annotations

__all__ = ["AlphaStore"]


class AlphaStore:
    """One alpha memory: its class and the productions reading it.

    Shared by every CE (across all productions of the ruleset) whose
    class and fused alpha tests coincide -- the same sharing the
    interpreted Rete gets from its alpha-memory registry.  ``mask`` has
    bit ``p`` set for each production *position* ``p`` (in the runtime's
    production list) reading the store; the generated entries OR it into
    the change's affected set, which gives the paper's *affected
    productions* count without walking the beta network and without a
    production name in the shared code.
    """

    __slots__ = ("index", "cls", "mask")

    def __init__(self, index: int, cls: str, mask: int) -> None:
        #: Position in the runtime's store list (the plan's store index).
        self.index = index
        self.cls = cls
        self.mask = mask

    @property
    def productions(self) -> tuple[int, ...]:
        """The positions in ``mask``, ascending."""
        return tuple(p for p in range(self.mask.bit_length()) if self.mask >> p & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AlphaStore({self.cls}, productions={list(self.productions)})"
