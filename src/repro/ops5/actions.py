"""Right-hand-side actions and value expressions.

The RHS of an OPS5 production is an unconditional sequence of actions
executed when the production fires.  The actions that change working
memory are:

* ``(make class ^attr value ...)`` — create a new WME;
* ``(remove k)`` — delete the WME matched by the *k*-th condition element;
* ``(modify k ^attr value ...)`` — remove + re-make with updated fields
  (the replacement WME receives a fresh timetag, as in OPS5).

Non-memory actions: ``(write ...)`` for output, ``(bind <x> value)`` for
RHS-local variables, ``(halt)`` to stop the interpreter.

Value positions accept *expressions*: constants, variables bound on the
LHS (or by ``bind``), and ``(compute ...)`` arithmetic.  ``compute``
evaluates a flat infix sequence strictly left to right (OPS5 gives all
operators equal precedence), e.g. ``(compute <x> + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ExecutionError
from .condition import Bindings
from .wme import Value, is_number


# --------------------------------------------------------------------------
# Value expressions
# --------------------------------------------------------------------------


class Expression:
    """Base class for RHS value expressions."""

    __slots__ = ()

    def evaluate(self, bindings: Bindings) -> Value:
        raise NotImplementedError

    def variables(self) -> list[str]:
        return []


@dataclass(frozen=True)
class Constant(Expression):
    """A literal symbol or number."""

    value: Value

    def evaluate(self, bindings: Bindings) -> Value:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VariableRef(Expression):
    """A reference to a variable bound on the LHS or by ``bind``."""

    name: str

    def evaluate(self, bindings: Bindings) -> Value:
        try:
            return bindings[self.name]
        except KeyError:
            raise ExecutionError(f"variable <{self.name}> is unbound on the RHS") from None

    def variables(self) -> list[str]:
        return [self.name]

    def __repr__(self) -> str:
        return f"<{self.name}>"


_ARITH: Mapping[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
    "\\\\": lambda a, b: a % b,  # OPS5 writes modulus as \\
    "mod": lambda a, b: a % b,
}


@dataclass(frozen=True)
class Compute(Expression):
    """``(compute a <op> b <op> c ...)`` evaluated left to right.

    All operands must evaluate to numbers.  Results that are whole floats
    are normalised back to ``int`` so arithmetic on integers stays in the
    integers (OPS5 numbers are integers in the common implementations).
    """

    operands: tuple[Expression, ...]
    operators: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.operands) != len(self.operators) + 1:
            raise ExecutionError(
                "compute needs operands interleaved with operators, e.g. "
                "(compute <x> + 1)"
            )
        for op in self.operators:
            if op not in _ARITH:
                raise ExecutionError(f"unknown compute operator {op!r}")

    def evaluate(self, bindings: Bindings) -> Value:
        acc = self.operands[0].evaluate(bindings)
        if not is_number(acc):
            raise ExecutionError(f"compute on non-numeric value {acc!r}")
        for op, operand in zip(self.operators, self.operands[1:]):
            rhs = operand.evaluate(bindings)
            if not is_number(rhs):
                raise ExecutionError(f"compute on non-numeric value {rhs!r}")
            try:
                acc = _ARITH[op](acc, rhs)
            except ZeroDivisionError:
                raise ExecutionError("compute: division by zero") from None
        if isinstance(acc, float) and acc.is_integer():
            acc = int(acc)
        return acc

    def variables(self) -> list[str]:
        out: list[str] = []
        for operand in self.operands:
            out.extend(operand.variables())
        return out

    def __repr__(self) -> str:
        parts: list[str] = [repr(self.operands[0])]
        for op, operand in zip(self.operators, self.operands[1:]):
            parts.append(op)
            parts.append(repr(operand))
        return f"(compute {' '.join(parts)})"


# --------------------------------------------------------------------------
# Actions
# --------------------------------------------------------------------------


class Action:
    """Base class for RHS actions.

    Actions are *descriptions*: :mod:`repro.ops5.rhs` compiles a
    production's action list into one function that drives the engine,
    so working-memory changes are routed through the active matcher.
    """

    __slots__ = ()

    def variables(self) -> list[str]:
        """LHS variables this action references (for validation)."""
        return []

    def ce_references(self) -> list[int]:
        """1-based condition-element indices this action references."""
        return []


@dataclass(frozen=True)
class Make(Action):
    """``(make class ^attr expr ...)``."""

    cls: str
    attributes: tuple[tuple[str, Expression], ...]

    def variables(self) -> list[str]:
        out: list[str] = []
        for _attr, expr in self.attributes:
            out.extend(expr.variables())
        return out

    def __repr__(self) -> str:
        parts = [self.cls] + [f"^{a} {e!r}" for a, e in self.attributes]
        return f"(make {' '.join(parts)})"


@dataclass(frozen=True)
class Remove(Action):
    """``(remove k)`` — delete the WME bound to the k-th CE (1-based)."""

    ce_index: int

    def ce_references(self) -> list[int]:
        return [self.ce_index]

    def __repr__(self) -> str:
        return f"(remove {self.ce_index})"


@dataclass(frozen=True)
class Modify(Action):
    """``(modify k ^attr expr ...)`` — remove + make with updates."""

    ce_index: int
    attributes: tuple[tuple[str, Expression], ...]

    def variables(self) -> list[str]:
        out: list[str] = []
        for _attr, expr in self.attributes:
            out.extend(expr.variables())
        return out

    def ce_references(self) -> list[int]:
        return [self.ce_index]

    def __repr__(self) -> str:
        parts = [str(self.ce_index)] + [f"^{a} {e!r}" for a, e in self.attributes]
        return f"(modify {' '.join(parts)})"


@dataclass(frozen=True)
class Write(Action):
    """``(write expr ...)`` — append evaluated values to the output log."""

    values: tuple[Expression, ...]

    def variables(self) -> list[str]:
        out: list[str] = []
        for expr in self.values:
            out.extend(expr.variables())
        return out

    def __repr__(self) -> str:
        return f"(write {' '.join(repr(v) for v in self.values)})"


@dataclass(frozen=True)
class Bind(Action):
    """``(bind <x> expr)`` — bind an RHS-local variable."""

    name: str
    expression: Expression

    def variables(self) -> list[str]:
        return self.expression.variables()

    def __repr__(self) -> str:
        return f"(bind <{self.name}> {self.expression!r})"


@dataclass(frozen=True)
class Halt(Action):
    """``(halt)`` — stop the recognize--act loop after this firing."""

    def __repr__(self) -> str:
        return "(halt)"


def actions_are_valid(actions: Sequence[Action], ce_is_negated: Sequence[bool]) -> list[str]:
    """Validate action CE references; return a list of problems (empty = ok).

    ``remove``/``modify`` must reference an existing, *positive* CE: a
    negated CE matched nothing, so there is no element to remove.
    """
    problems: list[str] = []
    for action in actions:
        for index in action.ce_references():
            if index < 1 or index > len(ce_is_negated):
                problems.append(
                    f"{action!r} references condition element {index}, but the LHS "
                    f"has only {len(ce_is_negated)}"
                )
            elif ce_is_negated[index - 1]:
                problems.append(
                    f"{action!r} references negated condition element {index}; "
                    "negated elements match no WME"
                )
    return problems
