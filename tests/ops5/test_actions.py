"""RHS actions and value expressions."""

import pytest

from repro.ops5 import (
    ConditionElement,
    ExecutionError,
    Production,
    ProductionSystem,
    VariableTest,
)
from repro.ops5.actions import (
    Bind,
    Compute,
    Constant,
    Make,
    Modify,
    Remove,
    VariableRef,
    Write,
    actions_are_valid,
)


class TestExpressions:
    def test_constant(self):
        assert Constant(5).evaluate({}) == 5

    def test_variable_ref(self):
        assert VariableRef("x").evaluate({"x": "red"}) == "red"

    def test_unbound_variable_raises(self):
        with pytest.raises(ExecutionError):
            VariableRef("x").evaluate({})

    def test_compute_left_to_right(self):
        # OPS5 compute has no precedence: 2 + 3 * 4 = (2+3)*4 = 20.
        expr = Compute(
            (Constant(2), Constant(3), Constant(4)), ("+", "*")
        )
        assert expr.evaluate({}) == 20

    def test_compute_with_variables(self):
        expr = Compute((VariableRef("n"), Constant(1)), ("-",))
        assert expr.evaluate({"n": 5}) == 4

    def test_compute_modulus_spellings(self):
        assert Compute((Constant(7), Constant(3)), ("mod",)).evaluate({}) == 1

    def test_compute_normalises_whole_floats(self):
        result = Compute((Constant(5.0), Constant(1)), ("+",)).evaluate({})
        assert result == 6
        assert isinstance(result, int)

    def test_compute_on_symbol_raises(self):
        expr = Compute((Constant("red"), Constant(1)), ("+",))
        with pytest.raises(ExecutionError):
            expr.evaluate({})

    def test_compute_division_by_zero(self):
        expr = Compute((Constant(1), Constant(0)), ("//",))
        with pytest.raises(ExecutionError):
            expr.evaluate({})

    def test_compute_unknown_operator_rejected_at_build(self):
        with pytest.raises(ExecutionError):
            Compute((Constant(1), Constant(2)), ("**",))

    def test_compute_arity_checked(self):
        with pytest.raises(ExecutionError):
            Compute((Constant(1),), ("+",))


def fired(action, **attributes):
    """The engine after firing ``(p r (seed) (src ^k <k> ...) --> action)``
    on ``(src **attributes)``: actions execute only as a production's
    compiled ``fire``."""
    tests = {name: VariableTest(name) for name in attributes}
    conditions = [ConditionElement("seed"), ConditionElement("src", tests)]
    ps = ProductionSystem([Production("r", conditions, [action])])
    ps.add("seed")
    ps.add("src", **attributes)
    assert ps.step() is not None
    return ps


class TestActions:
    def test_make_builds_wme(self):
        action = Make("block", (("color", VariableRef("c")), ("size", Constant(2))))
        wme = fired(action, c="red").memory.snapshot()[-1]
        assert wme.cls == "block"
        assert wme.get("color") == "red"
        assert wme.get("size") == 2

    def test_modify_updates(self):
        action = Modify(2, (("n", Compute((VariableRef("n"), Constant(1)), ("+",))),))
        assert dict(fired(action, n=3).memory.snapshot()[-1].attributes) == {"n": 4}
        assert action.ce_references() == [2]

    def test_write_renders(self):
        action = Write((Constant("hello"), VariableRef("x")))
        assert fired(action, x=42).output == ["hello 42"]

    def test_variables_collected(self):
        action = Make("b", (("v", VariableRef("x")), ("w", VariableRef("y"))))
        assert action.variables() == ["x", "y"]
        assert Bind("z", VariableRef("q")).variables() == ["q"]


class TestActionValidation:
    def test_out_of_range_reference(self):
        problems = actions_are_valid([Remove(3)], [False, False])
        assert problems and "3" in problems[0]

    def test_negated_reference(self):
        problems = actions_are_valid([Remove(2)], [False, True])
        assert problems and "negated" in problems[0]

    def test_valid_reference(self):
        assert actions_are_valid([Remove(1), Modify(2, ())], [False, False]) == []
