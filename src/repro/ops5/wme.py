"""Working memory elements and the working memory itself.

OPS5 working memory is a set of *working memory elements* (WMEs).  A WME is
a class name plus attribute--value pairs, e.g.::

    (block ^id b1 ^color red ^selected no)

As in OPS5's element vector, a WME is a record of its class: each class
name has one :class:`Layout` of fields at a time, and an attribute
never assigned holds the distinguished value ``nil`` (:data:`NIL`).

Each WME receives a unique, monotonically increasing integer *timetag* when
it enters working memory.  Timetags drive the recency comparisons of the
LEX and MEA conflict-resolution strategies.  OPS5's ``modify`` is a
*remove + make* pair, so a modified element always gets a fresh timetag.
"""

from __future__ import annotations

import threading
import weakref
from functools import partial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

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
    ``(make goal)`` twice yields two elements.

    ``WME(cls, attributes)`` returns a record of the class's
    :class:`Layout`: slots hold its fields (``nil`` when unassigned),
    ``_extra`` the attributes outside it (``None`` when none) and
    ``_order`` the tuple of the assigned names as given, so every view
    reads as the mapping did; explicit ``nil`` values are dropped.
    Records are never mutated.  Each record type defines
    ``get(attribute)`` (the value, or ``nil``) and ``as_dict()``.
    """

    __slots__ = ("timetag", "_order", "_extra")
    cls: str
    _layout: "Layout"

    def __new__(cls_, cls: str, attributes: Mapping[str, Value] | None = None) -> "WME":
        ref = _LAYOUTS.get(cls) if type(cls) is str else None
        layout = ref() if ref is not None else None
        if layout is None:
            if not isinstance(cls, str) or not cls:
                raise WorkingMemoryError(f"WME class must be a non-empty symbol, got {cls!r}")
            layout = layout_of(cls, attributes or ())
        return layout.build(attributes)

    @property
    def attributes(self) -> Mapping[str, Value]:
        """Read-only view of the explicitly assigned attributes."""
        return MappingProxyType(self.as_dict())

    def with_updates(self, updates: Mapping[str, Value]) -> "WME":
        """Return a new, un-timetagged WME with *updates* applied: the
        value side of ``modify`` (a ``nil`` update clears the attribute)."""
        return self._layout.build({**self.as_dict(), **updates})

    def content_key(self) -> tuple:
        """A hashable key of this WME's content (class + attrs), for
        comparing matcher outputs; *not* its identity."""
        return (self.cls, tuple(sorted(self.as_dict().items())))

    def __repr__(self) -> str:
        attributes = self.as_dict()
        parts = [self.cls] + [f"^{attr} {attributes[attr]}" for attr in sorted(attributes)]
        tag = f" @{self.timetag}" if self.timetag else ""
        return f"({' '.join(str(p) for p in parts)}){tag}"


#: Class name -> a weak reference to its layout.  A layout lives while
#: something relies on its slots -- a record (through its type), an
#: engine's ruleset, a compiled kernel or RHS -- so a class has at most one
#: layout alive, and a class nothing uses any more costs nothing.
_LAYOUTS: dict[str, weakref.ref] = {}
#: Re-entrant: a collection inside :func:`layout_of` may run :func:`_drop`.
_LOCK = threading.RLock()
#: Orders a layout interns (its own names only); past this a record
#: keeps its own tuple.
_MAX_SHAPES = 1024
#: Fields a layout takes from the names that fix it; the rest overflow.
_MAX_WIDTH = 64

_RECORD = """\
def get(self, attribute):
{chain}    extra = self._extra
    return 'nil' if extra is None else extra.get(attribute, 'nil')
def as_dict(w):
    if w._order is NAMES: return {{{fields}}}
    get = w.get
    return {{name: get(name) for name in w._order}}
def build(attributes):
    w = new(R); w.timetag = 0
    if not attributes:
        {clear}w._order = (); w._extra = None
        return w
    g = attributes.get
{fill}    shape = None if 'nil' in attributes.values() else SHAPES.get(tuple(attributes))
    w._order, extra = shape or layout.shape(attributes)
    w._extra = extra and {{n: attributes[n] for n in extra}}
    if extra: layout.overflowed += 1
    return w
"""


class Layout:
    """One class's fixed fields and the record type generated for them: a
    slot ``_i`` per field (positional, as attribute names need not be
    identifiers), a ``get`` testing the names in line, ``as_dict`` and
    :attr:`build` (a record from a mapping).  :meth:`constructor` gives a
    compiled RHS its positional ``make`` and ``modify``."""

    __slots__ = ("names", "index", "type", "build", "shapes", "overflowed", "_code", "__weakref__")

    def __init__(self, cls: str, names: tuple[str, ...]) -> None:
        self.names, self._code = names, weakref.WeakValueDictionary()
        self.index = {name: i for i, name in enumerate(names)}
        #: Given (nil-free) names -> (interned order, None), for orders of
        #: the layout's own names.
        self.shapes: dict[tuple, tuple] = {names: (names, None)}
        #: Records built with an overflow dict (counted on that branch only).
        self.overflowed = 0
        slots = [f"_{i}" for i in range(len(names))]
        pairs = list(zip(map(repr, names), slots))
        # The type's name never embeds the class name (any string is one).
        self.type = type("Record", (WME,), {"__slots__": slots, "cls": cls, "_layout": self})
        namespace = self._exec(_RECORD.format(
            chain="".join(f"    if attribute == {a}: return self.{s}\n" for a, s in pairs),
            fields="".join(f"{a}: w.{s}, " for a, s in pairs),
            clear="".join(f"w.{s} = " for s in slots) + ("'nil'; " if slots else ""),
            fill="".join(f"    w.{s} = g({a}, 'nil')\n" for a, s in pairs),
        ), NAMES=names, SHAPES=self.shapes)
        self.type.get, self.type.as_dict = namespace["get"], namespace["as_dict"]
        self.build = namespace["build"]

    def _exec(self, source: str, **names) -> dict:
        namespace = {"new": object.__new__, "R": self.type, "layout": self, **names}
        exec(source, namespace)  # noqa: S102 - attribute names enter as repr literals
        return namespace

    def shape(self, attributes: Mapping[str, Value]) -> tuple:
        """``(order, names outside the layout or None)`` of *attributes*'
        non-nil names.  An order of the layout's own names is interned,
        spelled with the layout's strings, while the table has room."""
        names = tuple(name for name, value in attributes.items() if value != NIL)
        shape = self.shapes.get(names)
        if shape is None:
            index = self.index
            extra = tuple(name for name in names if name not in index) or None
            if extra is None:
                names = tuple(self.names[index[name]] for name in names)
            shape = (names, extra)
            if extra is None and len(self.shapes) < _MAX_SHAPES:
                self.shapes[names] = shape
        return shape

    def read(self, attribute: str, target: str) -> str:
        """Source reading *attribute* of *target*, a record of this class:
        its slot, or ``get`` for an attribute outside the layout."""
        i = self.index.get(attribute)
        return f"{target}._{i}" if i is not None else f"{target}.get({attribute!r})"

    def constructor(self, names: tuple[str, ...], modify: bool):
        """``make(*values)`` -- a record of *names* set to *values*, given
        in that order -- or, for *modify*, ``update(old, *values)``: *old*
        with them set.  Built slot by slot; a ``nil`` value or an *old*
        with overflow takes :attr:`build`.  Equal requests share one while
        it lives (``_code`` is weak-valued: no table keeps one for nothing)."""
        code = self._code.get((names, modify))
        if code is not None:
            return code
        xs = [f"x{k}" for k in range(len(names))]
        given = dict(zip(names, xs))  # a name given twice: its last value
        outside = "".join(f"{n!r}: {x}, " for n, x in given.items() if n not in self.index)
        slow = [f"{x} == 'nil'" for x in xs] + ["old._extra is not None"] * modify
        lines = [f"def code({'old, ' * modify}{', '.join(xs)}):"]
        if slow:
            lines.append(f"    if {' or '.join(slow)}: return layout.build({{"
                         + "**old.as_dict(), " * modify
                         + "".join(f"{n!r}: {x}, " for n, x in zip(names, xs)) + "})")
        lines += [
            "    w = new(R); w.timetag = 0",
            "    w._order = AFTER.get(old._order) or after(old._order)" if modify
            else "    w._order = ORDER",
            *(f"    w._{i} = {given.get(n, f'old._{i}' if modify else repr(NIL))}"
              for i, n in enumerate(self.names)),
            f"    w._extra = {{{outside}}}; layout.overflowed += 1" if outside
            else "    w._extra = None",
            "    return w",
        ]
        table: dict = {}

        def after(before: tuple) -> tuple:
            order = self.shape(dict.fromkeys(before + names, 0))[0]
            if len(table) < _MAX_SHAPES:
                table[before] = order
            return order

        code = self._code[names, modify] = self._exec(
            "\n".join(lines) + "\n", ORDER=self.shape(dict.fromkeys(names, 0))[0],
            AFTER=table, after=after,
        ).pop("code")  # not in its own globals: no cycle, freed on its last reference
        return code


def live_layout(cls: str) -> Layout | None:
    """The live layout of *cls*, or None: never fixes one."""
    ref = _LAYOUTS.get(cls)
    return ref() if ref is not None else None


def layout_of(cls: str, names: Iterable[str] = ()) -> Layout:
    """The layout of class *cls*: the live one, else one fixed now from
    *names* (the attributes whatever first needs the class names) and
    never changed while it lives; names outside it overflow."""
    layout = live_layout(cls)
    if layout is None:
        with _LOCK:
            layout = live_layout(cls)
            if layout is None:
                layout = Layout(cls, tuple(dict.fromkeys(names))[:_MAX_WIDTH])
                _LAYOUTS[cls] = weakref.ref(layout, partial(_drop, cls))
    return layout


def hold_layouts(named: Mapping[str, tuple[str, ...]]) -> list[Layout]:
    """The layouts of the *named* classes, with exactly those fields, for
    compiled text that reads their slots to hold (one that died since
    the text was written is fixed again, the same)."""
    layouts = [layout_of(cls, names) for cls, names in named.items()]
    for layout, (cls, names) in zip(layouts, named.items()):
        if layout.names != names:
            raise WorkingMemoryError(f"class {cls!r} was laid out anew under compiled code")
    return layouts


def _drop(cls: str, ref: weakref.ref) -> None:
    """Forget *cls*'s layout once it is collected (unless replaced)."""
    with _LOCK:
        if _LAYOUTS.get(cls) is ref:
            del _LAYOUTS[cls]


class WorkingMemory:
    """The OPS5 working memory: a timetagged collection of WMEs.

    The working memory is deliberately *passive*: it stores elements and
    assigns timetags but does not notify matchers.  The matcher owns it
    (``Matcher.memory``); the engine writes it before telling the matcher.
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
