"""The act phase, compiled: one straight-line ``fire`` per production.

:func:`compile_rhs` turns a production's ``Action`` list into the source
of ``fire(engine, wmes, record)``, the executor for every matcher; it
holds no state, because productions are shared by sessions and threads.

* Every LHS variable the RHS mentions is read into a numbered local from
  ``Production.binding_sites`` *before* the first action (a ``modify``
  replaces the element, not the values the firing started with);
  ``bind`` assigns a fresh local that the actions after it read.
* "The current WME of CE k" is a local ``w{k}`` that ``modify`` rebinds.
  Whether CE k is already removed is known here, so the two "already
  removed" errors are a bare ``raise`` and nothing follows them.
* ``record.adds`` / ``removes`` advance after each change lands.

OPS5 names are not identifiers and program text arrives over the wire:
locals are numbered and every class, attribute, symbol and message goes
through :func:`literal`.  ``Expression.evaluate`` stays the reference
semantics (``tests/ops5/test_compiled_rhs.py`` compares the two).
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import count
from math import isfinite
from typing import Callable

from .actions import _ARITH, Bind, Compute, Constant, Expression, Halt, Make, Modify, Remove, Write
from .errors import ExecutionError
from .wme import is_number, layout_of

#: Binds the names :func:`literal` emits; every generated module runs it.
LITERAL_PRELUDE = "_inf = float('inf'); _nan = float('nan')"


def literal(value) -> str:
    """Python source for one OPS5 constant (or any ``str``): ``repr``,
    except that an overflowed numeral (400 digits parse to ``inf``) has
    no literal and goes through the names :data:`LITERAL_PRELUDE` binds."""
    if isinstance(value, float) and not isfinite(value):
        return "_nan" if value != value else "_inf" if value > 0 else "-_inf"
    return repr(value)


def _number(value):
    if not is_number(value):
        raise ExecutionError(f"compute on non-numeric value {value!r}")
    return value


def _divide(op, a, b):
    try:
        return _ARITH[op](a, b)
    except ZeroDivisionError:
        raise ExecutionError("compute: division by zero") from None


def _whole(value):
    """Whole floats back to ``int`` (see :class:`Compute`); NaN refused."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        if value != value:
            raise ExecutionError("compute: result is not a number")
    return value


def _site(cls: str, names: tuple[str, ...], modify: bool) -> Callable[[], Callable]:
    """One ``make`` or ``modify`` of class *cls*: a call returns its record
    constructor (``Layout.constructor``) on the class's live layout.  It
    keeps that weakly, so a cached ``fire`` never keeps a layout alive,
    and looks it up again once the layout is gone."""
    ref: Callable = lambda: None  # noqa: E731 - a dead reference

    def constructor() -> Callable:
        nonlocal ref
        code = ref()
        if code is None:
            code = layout_of(cls, names).constructor(names, modify)
            ref = weakref.ref(code)
        return code

    return constructor


_GLOBALS = dict(
    _site=_site, ExecutionError=ExecutionError, _number=_number, _divide=_divide, _whole=_whole
)
exec(LITERAL_PRELUDE, _GLOBALS)  # noqa: S102 - the two names literal() emits


class _Body:
    """One ``fire`` under construction (a class: recursive closures
    would leave a reference cycle behind per rule per parse)."""

    def __init__(self) -> None:
        #: Module-level lines above ``fire``: its record constructors' sites.
        self.head: list[str] = []
        self.lines = ["def fire(engine, wmes, record):"]
        self.emit = self.lines.append
        #: OPS5 variable -> the numbered local holding its current value.
        self.local: dict[str, str] = {}
        self.numbered = count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self.numbered)}"

    def value(self, expression: Expression) -> str:
        """An atom for *expression*; a ``compute`` emits its steps first,
        in evaluation order (operand, numeric check, operator)."""
        if isinstance(expression, Constant):
            return literal(expression.value)
        if not isinstance(expression, Compute):
            return self.local[expression.name]
        acc, emit, operand = self.fresh("t"), self.emit, self.operand
        emit(f"    {acc} = {operand(expression.operands[0])}")
        for op, inner in zip(expression.operators, expression.operands[1:]):
            if op in ("+", "-", "*"):
                emit(f"    {acc} = {acc} {op} {operand(inner)}")
            else:  # the dividing operators: // and the two spellings of modulus
                emit(f"    {acc} = _divide({literal(op)}, {acc}, {operand(inner)})")
        emit(f"    {acc} = _whole({acc})")
        return acc

    def operand(self, inner: Expression) -> str:
        atom = self.value(inner)
        if isinstance(inner, Compute) or (isinstance(inner, Constant) and is_number(inner.value)):
            return atom
        return f"_number({atom})"

    def record(self, cls: str, attributes, modify: bool) -> tuple[str, str]:
        """A module-level :func:`_site` for *attributes* of *cls*, and the
        values its constructor takes, in the order given."""
        site = self.fresh("_k")
        names = "".join(f"{literal(a)}, " for a, _e in attributes)
        self.head.append(f"{site} = _site({literal(cls)}, ({names}), {modify})")
        return site, "".join(f", {self.value(e)}" for _a, e in attributes)


def compile_rhs(production) -> tuple[Callable, str]:
    """``(fire, source)`` for *production*, compiled as ``<rhs:NAME>``."""
    body = _Body()
    emit, local, value, record = body.emit, body.local, body.value, body.record
    mentioned = {v for action in production.actions for v in action.variables()}
    for variable, position, attribute in production.binding_sites:
        if variable in mentioned:
            local[variable] = body.fresh("v")
            emit(f"    {local[variable]} = wmes[{position}].get({literal(attribute)})")
    #: CE position -> is its WME still there; its local is ``w{position}``.
    live: dict[int, bool] = {}
    for action in production.actions:
        for index in action.ce_references():
            position = production.ce_position_of(index)
            if position not in live:
                live[position] = True
                emit(f"    w{position} = wmes[{position}]")

    for number, action in enumerate(production.actions, 1):
        emit(f"    # {number}: {type(action).__name__.lower()}")
        if isinstance(action, Make):
            site, values = record(action.cls, action.attributes, False)
            emit(f"    engine.add_wme({site}()({values[2:]}))")
            emit("    record.adds += 1")
        elif isinstance(action, (Remove, Modify)):
            position = production.ce_position_of(action.ce_index)
            if not live[position]:
                message = (
                    "{}: condition element {} was already removed in this firing"
                    if isinstance(action, Remove)
                    else "{}: modify of condition element {} after its removal"
                ).format(production.name, action.ce_index)
                emit(f"    raise ExecutionError({literal(message)})")
                break
            if isinstance(action, Remove):
                live[position] = False
                emit(f"    engine.remove_wme(w{position})")
                emit("    record.removes += 1")
            else:
                cls = production.conditions[action.ce_index - 1].cls
                site, values = record(cls, action.attributes, True)
                emit(f"    old = w{position}")
                emit(f"    w{position} = {site}()(old{values})")
                emit("    engine.remove_wme(old)")
                emit("    record.removes += 1")
                emit(f"    engine.add_wme(w{position})")
                emit("    record.adds += 1")
        elif isinstance(action, Write):
            parts = [
                literal(str(e.value)) if isinstance(e, Constant) else f"str({value(e)})"
                for e in action.values
            ]
            emit(f"    engine.output.append(' '.join(({''.join(p + ', ' for p in parts)})))")
        elif isinstance(action, Bind):
            atom = value(action.expression)
            local[action.name] = body.fresh("v")
            emit(f"    {local[action.name]} = {atom}")
        elif isinstance(action, Halt):
            emit("    engine.halt()")
        else:  # pragma: no cover - exhaustive over Action subclasses
            raise ExecutionError(f"unknown action {action!r}")
    if not production.actions:
        emit("    pass")
    source = "".join(line + "\n" for line in body.head + body.lines)
    # compile() refuses a NUL in the file name.
    return _compiled(f"<rhs:{production.name}>".replace("\0", "?"), source), source


@lru_cache(maxsize=4096)
def _compiled(filename: str, source: str) -> Callable:
    """``fire`` for one generated text: emitting it costs ~10 us a rule,
    ``compile()`` 50-150, and the same programs are parsed over and over."""
    namespace = dict(_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return namespace["fire"]
