"""Working memory elements and the working memory."""

import pytest

from repro.ops5 import NIL, WME, WorkingMemory, WorkingMemoryError, make_wme
from repro.ops5.wme import is_number, same_type, values_equal


class TestValueHelpers:
    def test_numbers_are_numeric(self):
        assert is_number(3)
        assert is_number(-2.5)

    def test_symbols_are_not_numeric(self):
        assert not is_number("red")
        assert not is_number("3")

    def test_booleans_are_rejected(self):
        assert not is_number(True)
        assert not is_number(False)

    def test_same_type_numeric_vs_symbolic(self):
        assert same_type(1, 2.5)
        assert same_type("a", "b")
        assert not same_type(1, "a")

    def test_values_equal_numeric_coercion(self):
        assert values_equal(1, 1.0)
        assert not values_equal(1, "1")
        assert values_equal("red", "red")
        assert not values_equal("red", "blue")


class TestWME:
    def test_attributes_default_to_nil(self):
        wme = make_wme("block", color="red")
        assert wme.get("color") == "red"
        assert wme.get("weight") == NIL

    def test_explicit_nil_is_normalised_away(self):
        wme = WME("block", {"color": NIL})
        assert wme.get("color") == NIL
        assert "color" not in wme.attributes

    def test_callers_mapping_is_copied_once_and_stays_theirs(self):
        attrs = {"color": "red", "size": NIL}
        wme = WME("block", attrs)
        attrs["color"] = "blue"
        attrs["weight"] = 3
        assert wme.get("color") == "red"
        assert wme.get("weight") == NIL
        assert attrs["size"] == NIL  # normalisation never edits the caller's dict
        assert dict(wme.attributes) == {"color": "red"}

    def test_attributes_is_a_read_only_view(self):
        wme = make_wme("block", color="red")
        with pytest.raises(TypeError):
            wme.attributes["color"] = "blue"
        assert wme.attributes == {"color": "red"}

    def test_no_attributes_at_all(self):
        assert dict(WME("block").attributes) == dict(WME("block", {}).attributes) == {}

    def test_identity_not_content_equality(self):
        a = make_wme("block", color="red")
        b = make_wme("block", color="red")
        assert a != b
        assert a.content_key() == b.content_key()

    def test_with_updates_preserves_unmentioned(self):
        wme = make_wme("block", color="red", size=3)
        updated = wme.with_updates({"color": "blue"})
        assert updated.get("color") == "blue"
        assert updated.get("size") == 3
        assert updated.timetag == 0

    def test_with_updates_nil_clears(self):
        wme = make_wme("block", color="red")
        updated = wme.with_updates({"color": NIL})
        assert updated.get("color") == NIL

    def test_with_updates_copies_the_updates(self):
        wme = make_wme("block", color="red")
        updates = {"color": "blue"}
        updated = wme.with_updates(updates)
        updates["color"] = "green"
        assert updated.get("color") == "blue"
        assert wme.get("color") == "red"

    def test_empty_class_rejected(self):
        with pytest.raises(WorkingMemoryError):
            WME("", {})

    def test_repr_mentions_class_and_attrs(self):
        wme = make_wme("block", color="red")
        assert "block" in repr(wme)
        assert "^color red" in repr(wme)


class TestWorkingMemory:
    def test_add_assigns_increasing_timetags(self):
        memory = WorkingMemory()
        a = memory.add(make_wme("x"))
        b = memory.add(make_wme("y"))
        assert (a.timetag, b.timetag) == (1, 2)
        assert memory.next_timetag == 3

    def test_double_add_rejected(self):
        memory = WorkingMemory()
        wme = memory.add(make_wme("x"))
        with pytest.raises(WorkingMemoryError):
            memory.add(wme)

    def test_remove_and_membership(self):
        memory = WorkingMemory()
        wme = memory.add(make_wme("x"))
        assert wme in memory
        memory.remove(wme)
        assert wme not in memory
        assert len(memory) == 0

    def test_remove_absent_raises(self):
        memory = WorkingMemory()
        with pytest.raises(WorkingMemoryError):
            memory.remove(make_wme("x"))

    def test_timetags_never_reused(self):
        memory = WorkingMemory()
        wme = memory.add(make_wme("x"))
        memory.remove(wme)
        other = memory.add(make_wme("y"))
        assert other.timetag == 2

    def test_by_timetag(self):
        memory = WorkingMemory()
        wme = memory.add(make_wme("x"))
        assert memory.by_timetag(wme.timetag) is wme
        with pytest.raises(WorkingMemoryError):
            memory.by_timetag(99)

    def test_of_class_and_snapshot_order(self):
        memory = WorkingMemory()
        a = memory.add(make_wme("x"))
        b = memory.add(make_wme("y"))
        c = memory.add(make_wme("x"))
        assert memory.of_class("x") == [a, c]
        assert memory.snapshot() == [a, b, c]
