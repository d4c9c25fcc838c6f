"""Literalize declarations: attribute checking on working memory."""

import pytest

from repro.ops5 import ExecutionError, ProductionSystem

SRC = """
(literalize goal type color)
(p go (goal ^type find) --> (halt))
"""


class TestElementChecking:
    def test_declared_attributes_accepted(self):
        ps = ProductionSystem(SRC)
        ps.add("goal", type="find", color="red")
        assert len(ps.memory) == 1

    def test_undeclared_attribute_rejected(self):
        ps = ProductionSystem(SRC)
        with pytest.raises(ExecutionError) as info:
            ps.add("goal", type="find", colour="red")
        assert "colour" in str(info.value)

    def test_error_names_sorted_unknowns_and_the_declared_list(self):
        ps = ProductionSystem(SRC)
        with pytest.raises(ExecutionError) as info:
            ps.add("goal", zeta=1, type="find", alpha=2)
        assert str(info.value) == (
            "WME of class 'goal' uses undeclared attribute(s) "
            "['alpha', 'zeta']; literalized: ['type', 'color']"
        )

    def test_explicit_nil_of_an_undeclared_attribute_is_absent(self):
        ps = ProductionSystem(SRC)
        ps.add("goal", type="find", colour="nil")
        assert len(ps.memory) == 1

    def test_undeclared_classes_are_free_form(self):
        ps = ProductionSystem(SRC)
        ps.add("anything", whatever=1)
        assert len(ps.memory) == 1

    def test_rhs_make_checked_too(self):
        ps = ProductionSystem("""
          (literalize goal type)
          (p bad (trigger) --> (make goal ^typo x))
        """)
        ps.add("trigger")
        with pytest.raises(ExecutionError):
            ps.run(1)

    def test_rejected_wme_not_in_memory(self):
        ps = ProductionSystem(SRC)
        with pytest.raises(ExecutionError):
            ps.add("goal", nope=1)
        assert len(ps.memory) == 0
        assert ps.memory.next_timetag == 1  # no timetag burned

    def test_programs_without_literalize_unchecked(self):
        ps = ProductionSystem("(p go (a) --> (halt))")
        ps.add("a", anything="goes")
        assert ps.run(1).fired == 1
