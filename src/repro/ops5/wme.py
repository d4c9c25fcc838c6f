"""Working memory elements and the working memory itself.

OPS5 working memory is a set of *working memory elements* (WMEs).  A WME is
a class name plus attribute--value pairs, e.g.::

    (block ^id b1 ^color red ^selected no)

Attributes that are never assigned hold the distinguished value ``nil``
(:data:`NIL`), matching OPS5 semantics where every field of the underlying
element vector defaults to ``nil``.

Each WME receives a unique, monotonically increasing integer *timetag* when
it enters working memory.  Timetags drive the recency comparisons of the
LEX and MEA conflict-resolution strategies.  OPS5's ``modify`` is a
*remove + make* pair, so a modified element always gets a fresh timetag;
this module follows that rule exactly (see
:meth:`WorkingMemory.modify`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import WorkingMemoryError

#: The type of attribute values: symbols are plain strings, numbers are
#: ``int`` or ``float``.
Value = Union[str, int, float]

#: The OPS5 ``nil`` symbol: the value of any attribute never assigned.
NIL: str = "nil"


def is_number(value: Value) -> bool:
    """Return True when *value* is numeric (``int`` or ``float``).

    Booleans are rejected explicitly: ``True``/``False`` are not OPS5
    values and accepting them would make ``1`` and ``True`` collide.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same_type(a: Value, b: Value) -> bool:
    """OPS5 ``<=>`` predicate: both numeric, or both symbolic."""
    return is_number(a) == is_number(b)


def values_equal(a: Value, b: Value) -> bool:
    """OPS5 equality: numbers compare numerically, symbols literally.

    ``1`` and ``1.0`` are equal; ``1`` and ``"1"`` are not.
    """
    if is_number(a) and is_number(b):
        return a == b
    if is_number(a) or is_number(b):
        return False
    return a == b


class WME:
    """A working memory element: a class name plus attribute--value pairs.

    WMEs are identity objects: two WMEs with equal content are still
    distinct elements with distinct timetags, exactly as in OPS5 where
    ``(make goal)`` twice yields two elements.  Equality and hashing are
    therefore identity-based.

    The attribute mapping is copied on construction and must not be
    mutated afterwards; ``modify`` semantics are remove-and-make.

    Parameters
    ----------
    cls:
        The element class symbol, e.g. ``"goal"``.
    attributes:
        Mapping of attribute name to value.  Attributes with value ``nil``
        are normalised away (absent and ``nil`` are indistinguishable).
    """

    __slots__ = ("cls", "_attributes", "timetag")

    def __init__(self, cls: str, attributes: Mapping[str, Value] | None = None) -> None:
        if not isinstance(cls, str) or not cls:
            raise WorkingMemoryError(f"WME class must be a non-empty symbol, got {cls!r}")
        self.cls = cls
        # The one copy (the caller keeps its mapping; ``**`` refuses a
        # non-mapping).  Absent attributes read as nil, so storing explicit
        # nils is redundant -- filtered only when there is one.
        attrs = {**attributes} if attributes else {}
        if NIL in attrs.values():
            attrs = {a: v for a, v in attrs.items() if v != NIL}
        self._attributes = attrs
        #: Timetag assigned by :class:`WorkingMemory`; 0 means "not in WM".
        self.timetag: int = 0

    def get(self, attribute: str) -> Value:
        """Return the value of *attribute*, or ``nil`` when unassigned."""
        return self._attributes.get(attribute, NIL)

    @property
    def attributes(self) -> Mapping[str, Value]:
        """Read-only view of the explicitly assigned attributes."""
        return MappingProxyType(self._attributes)

    def with_updates(self, updates: Mapping[str, Value]) -> "WME":
        """Return a new, un-timetagged WME with *updates* applied.

        This implements the value side of ``modify``: unmentioned
        attributes carry over, mentioned ones are replaced (and a ``nil``
        update clears the attribute).
        """
        return WME(self.cls, {**self._attributes, **updates})

    def content_key(self) -> tuple:
        """A hashable key describing this WME's content (class + attrs).

        Used by tests and by the naive matcher to compare matcher outputs;
        *not* used for WME identity.
        """
        return (self.cls, tuple(sorted(self._attributes.items())))

    def __repr__(self) -> str:
        parts = [self.cls]
        for attr in sorted(self._attributes):
            parts.append(f"^{attr} {self._attributes[attr]}")
        tag = f" @{self.timetag}" if self.timetag else ""
        return f"({' '.join(str(p) for p in parts)}){tag}"


class WorkingMemory:
    """The OPS5 working memory: a timetagged collection of WMEs.

    The working memory is deliberately *passive*: it stores elements and
    assigns timetags but does not notify matchers.  The
    :class:`~repro.ops5.engine.ProductionSystem` routes every change to
    both the working memory and the active matcher so the two can never
    disagree.
    """

    def __init__(self) -> None:
        self._elements: dict[int, WME] = {}
        self._next_timetag = 1

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[WME]:
        return iter(self._elements.values())

    def __contains__(self, wme: WME) -> bool:
        return wme.timetag in self._elements and self._elements[wme.timetag] is wme

    def add(self, wme: WME) -> WME:
        """Insert *wme*, assigning the next timetag. Returns the WME."""
        if wme.timetag:
            raise WorkingMemoryError(
                f"WME {wme!r} already carries timetag {wme.timetag}; "
                "WMEs cannot be inserted twice"
            )
        wme.timetag = self._next_timetag
        self._next_timetag += 1
        self._elements[wme.timetag] = wme
        return wme

    def adopt(self, wme: WME) -> WME:
        """Insert a WME that already carries a timetag (state restore).

        The normal insertion path (:meth:`add`) refuses timetagged WMEs
        -- an element cannot enter working memory twice.  Restoring a
        checkpoint or migrating a session is the one legitimate
        exception: the element's *original* timetag must survive, or
        recency-based conflict resolution (LEX/MEA) would order the
        restored memory differently and the continuation would diverge.
        The timetag counter advances past every adopted tag so future
        inserts never collide.
        """
        if not wme.timetag:
            raise WorkingMemoryError(
                f"WME {wme!r} carries no timetag; use add() for new elements"
            )
        if wme.timetag in self._elements:
            raise WorkingMemoryError(
                f"timetag {wme.timetag} is already present; cannot adopt {wme!r}"
            )
        self._elements[wme.timetag] = wme
        if wme.timetag >= self._next_timetag:
            self._next_timetag = wme.timetag + 1
        return wme

    def reserve_timetags(self, next_timetag: int) -> None:
        """Advance the counter to at least *next_timetag* (state restore).

        Elements removed before a checkpoint still consumed their tags;
        without this the restored engine could re-issue them.
        """
        if next_timetag > self._next_timetag:
            self._next_timetag = next_timetag

    def remove(self, wme: WME) -> None:
        """Remove *wme*.  Raises if it is not the element stored here."""
        stored = self._elements.get(wme.timetag)
        if stored is not wme:
            raise WorkingMemoryError(f"WME {wme!r} is not in working memory")
        del self._elements[wme.timetag]

    def has_timetag(self, timetag: int) -> bool:
        """True while the element that received *timetag* is still here."""
        return timetag in self._elements

    def by_timetag(self, timetag: int) -> WME:
        """Return the element with *timetag*, raising if absent."""
        try:
            return self._elements[timetag]
        except KeyError:
            raise WorkingMemoryError(f"no WME with timetag {timetag}") from None

    def of_class(self, cls: str) -> list[WME]:
        """All current elements whose class is *cls* (timetag order)."""
        return [w for w in self._elements.values() if w.cls == cls]

    def snapshot(self) -> list[WME]:
        """All current elements in timetag order."""
        return [self._elements[t] for t in sorted(self._elements)]

    @property
    def next_timetag(self) -> int:
        """The timetag the next inserted element will receive."""
        return self._next_timetag


def make_wme(cls: str, /, **attributes: Value) -> WME:
    """Convenience constructor: ``make_wme("block", id="b1", color="red")``.

    Attribute names that clash with Python keywords can be passed via the
    :class:`WME` constructor directly.
    """
    return WME(cls, attributes)
