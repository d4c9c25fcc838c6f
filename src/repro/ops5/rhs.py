"""The act phase, compiled: one straight-line ``fire`` per production.

:func:`rhs_source` turns a production's ``Action`` list into the source
of ``fire(engine, wmes, record)``, the executor for every matcher, which
the production compiles on its :data:`COMPILE_AT`-th firing
(:func:`first_firings`; the firings before it :func:`interpret` the list);
``fire`` holds no engine state, because productions are shared by sessions and threads.

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

from itertools import count
from math import isfinite

from .actions import _ARITH, Bind, Compute, Constant, Expression, Halt, Make, Modify, Remove, Write
from .errors import ExecutionError
from .wme import WME, is_number, layout_of

#: The firing on which a production compiles its ``fire``; the ones before
#: it are interpreted.  A compile costs what 30-40 interpreted firings of
#: a rule lose against compiled ones (EXPERIMENTS.md), so a rule that a
#: fresh parse fires a few times (a short session, a program parsed per
#: run) compiles nothing, and one that fires on pays at most twice that.
COMPILE_AT = 32

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


_GLOBALS = dict(layout_of=layout_of, ExecutionError=ExecutionError,
                _number=_number, _divide=_divide, _whole=_whole)
exec(LITERAL_PRELUDE, _GLOBALS)  # noqa: S102 - the two names literal() emits


class _Body:
    """One ``fire`` under construction (a class: recursive closures
    would leave a reference cycle behind per rule per parse)."""

    def __init__(self) -> None:
        #: Module-level lines above ``fire``: its record constructors.
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
        """A module-level record constructor for *attributes* of *cls*,
        and the values it takes, in the order given."""
        site = self.fresh("_k")
        names = "({})".format("".join(f"{literal(a)}, " for a, _e in attributes))
        line = f"{site} = layout_of({literal(cls)}, {names}).constructor({names}, {modify})"
        self.head.append(line)
        return site, "".join(f", {self.value(e)}" for _a, e in attributes)


def _gone(production, action) -> str:
    """The error of a ``remove`` / ``modify`` of a CE this firing removed."""
    return (
        "{}: condition element {} was already removed in this firing"
        if isinstance(action, Remove)
        else "{}: modify of condition element {} after its removal"
    ).format(production.name, action.ce_index)


def rhs_source(production) -> str:
    """The source of *production*'s ``fire``."""
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
            emit(f"    engine.add_wme({site}({values[2:]}))")
            emit("    record.adds += 1")
        elif isinstance(action, (Remove, Modify)):
            position = production.ce_position_of(action.ce_index)
            if not live[position]:
                emit(f"    raise ExecutionError({literal(_gone(production, action))})")
                break
            if isinstance(action, Remove):
                live[position] = False
                emit(f"    engine.remove_wme(w{position})")
                emit("    record.removes += 1")
            else:
                cls = production.conditions[action.ce_index - 1].cls
                site, values = record(cls, action.attributes, True)
                emit(f"    old = w{position}")
                emit(f"    w{position} = {site}(old{values})")
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
    return "".join(line + "\n" for line in body.head + body.lines)


def interpret(production, engine, wmes, record) -> None:
    """One firing of *production*, its ``Action`` list walked: what its
    ``fire`` does, with ``Expression.evaluate`` for values and ``WME`` /
    ``with_updates`` (the same layout's records) for ``make`` / ``modify``."""
    bindings = {v: wmes[position].get(a) for v, position, a in production.binding_sites}
    current = list(wmes)
    for action in production.actions:
        kind = type(action)
        if kind is Make:
            engine.add_wme(WME(action.cls, {a: e.evaluate(bindings) for a, e in action.attributes}))
            record.adds += 1
        elif kind is Remove or kind is Modify:
            position = production.ce_position_of(action.ce_index)
            old = current[position]
            if old is None:
                raise ExecutionError(_gone(production, action))
            new = current[position] = None if kind is Remove else old.with_updates(
                {a: e.evaluate(bindings) for a, e in action.attributes})
            engine.remove_wme(old)
            record.removes += 1
            if new is not None:
                engine.add_wme(new)
                record.adds += 1
        elif kind is Write:
            engine.output.append(" ".join(str(e.evaluate(bindings)) for e in action.values))
        elif kind is Bind:
            bindings[action.name] = action.expression.evaluate(bindings)
        else:
            engine.halt()


def compile_fire(production):
    """*production*'s ``fire``, compiled from its ``rhs_source`` as
    ``<rhs:NAME>`` in a namespace of its own, each site's record
    constructor bound to the class's layout live now."""
    namespace = dict(_GLOBALS)
    # compile() refuses a NUL in the file name.
    filename = f"<rhs:{production.name}>".replace("\0", "?")
    exec(compile(production.rhs_source, filename, "exec"), namespace)  # noqa: S102
    return namespace.pop("fire")  # not in its own globals: no reference cycle


def first_firings(ref, firings, engine, wmes, record) -> None:
    """A production's ``fire`` until it is compiled (bound to *ref*, a weak
    reference to it, and *firings*, a count from 1): interprets it, and on
    firing :data:`COMPILE_AT` compiles ``fire``, installs it and fires it."""
    owner = ref()
    if next(firings) < COMPILE_AT:
        interpret(owner, engine, wmes, record)
    else:
        owner.fire = compile_fire(owner)
        owner.fire(engine, wmes, record)
