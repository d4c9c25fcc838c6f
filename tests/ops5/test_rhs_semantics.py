"""What one firing does, action by action -- pinned on the engine's
public surface, so it holds for whatever executes the RHS.

Each case loads a one-rule program, inserts its WMEs, fires once and
reads working memory, the ``write`` log and the ``CycleRecord``.  The
cases are the ones no other test reaches: the two "already removed"
errors, what ``modify`` does to the element *and not* to the variables,
``bind`` shadowing, life after ``halt``, ``compute``'s edge cases, the
literalize check on a RHS ``make``, and the record of a firing that
raised half-way.
"""

import pytest

from repro.ops5 import EngineListener, ExecutionError, ProductionSystem, WorkingMemoryError


def fire_once(source, wmes):
    """(engine, the fired cycle's record) after one step of *source*."""
    ps = ProductionSystem(source, history=True)
    for cls, attrs in wmes:
        ps.add(cls, **attrs)
    assert ps.step() is not None
    return ps, ps.cycles[-1]


def contents(ps):
    """Working memory as (timetag, class, attributes), timetag order."""
    return [(w.timetag, w.cls, dict(w.attributes)) for w in ps.memory.snapshot()]


# (name, RHS, working memory after, output, (adds, removes)); the LHS is
# always ``(a ^n <n> ^m <m>) (b ^n <n>)`` over ``(a ^n 1 ^m 7) (b ^n 1)``.
LHS = "(a ^n <n> ^m <m>) (b ^n <n>)"
WMES = [("a", {"n": 1, "m": 7}), ("b", {"n": 1})]
A, B = (1, "a", {"n": 1, "m": 7}), (2, "b", {"n": 1})

CASES = [
    (
        "modify twice: the second sees the first's replacement and a fresh timetag",
        "(modify 1 ^m 8) (modify 1 ^n 5)",
        [B, (4, "a", {"n": 5, "m": 8})],
        [],
        (2, 2),
    ),
    (
        "a variable read after the modify that changed its attribute keeps the old value",
        "(modify 1 ^m 8) (write <m>) (make c ^m <m>)",
        [B, (3, "a", {"n": 1, "m": 8}), (4, "c", {"m": 7})],
        ["7"],
        (2, 1),
    ),
    (
        "bind shadows an LHS variable for the actions after it, not before",
        "(write <m>) (bind <m> (compute <m> + 1)) (write <m>) (bind <m> x) (make c ^m <m>)",
        [A, B, (3, "c", {"m": "x"})],
        ["7", "8"],
        (1, 0),
    ),
    (
        "actions after halt still run",
        "(halt) (make c ^k 1) (write after)",
        [A, B, (3, "c", {"k": 1})],
        ["after"],
        (1, 0),
    ),
    (
        "remove then make: positions are LHS positions, not timetag order",
        "(remove 2) (make c ^n <n>) (remove 1)",
        [(3, "c", {"n": 1})],
        [],
        (1, 2),
    ),
    (
        "a nil update clears the attribute; unmentioned ones carry over",
        "(modify 1 ^m nil ^k <n>)",
        [B, (3, "a", {"n": 1, "k": 1})],
        [],
        (1, 1),
    ),
    (
        "4 // 2.0 normalises to the integer 2; left to right, no precedence",
        "(make c ^q (compute 4 // 2.0) ^r (compute <n> + <m> * 2) ^s (compute 7 \\\\ 4 - 0.5))",
        [A, B, (3, "c", {"q": 2, "r": 16, "s": 2.5})],
        [],
        (1, 0),
    ),
    (
        "write joins str() of every value with one space",
        "(write <n> and 2.50 <m>) (write)",
        [A, B],
        ["1 and 2.5 7", ""],
        (0, 0),
    ),
]


@pytest.mark.parametrize("name,rhs,memory,output,counts", CASES, ids=[c[0] for c in CASES])
def test_one_firing(name, rhs, memory, output, counts):
    ps, record = fire_once(f"(p r {LHS} --> {rhs})", WMES)
    assert contents(ps) == memory
    assert ps.output == output
    assert (record.adds, record.removes) == counts
    assert type(contents(ps)[-1][2].get("q", 0)) is int
    assert ps.halted == ("(halt)" in rhs)


# (name, RHS, exact message, memory after, output, (adds, removes)): the
# actions before the failing one are applied and counted, nothing after.
ERRORS = [
    (
        "remove k twice",
        "(make c ^k 1) (remove 1) (write one) (remove 1) (write two)",
        "r: condition element 1 was already removed in this firing",
        [B, (3, "c", {"k": 1})],
        ["one"],
        (1, 1),
    ),
    (
        "modify k after remove k",
        "(remove 2) (modify 2 ^n 3) (make c ^k 1)",
        "r: modify of condition element 2 after its removal",
        [A],
        [],
        (0, 1),
    ),
    (
        "compute on a symbol",
        "(make c ^k 1) (make c ^k (compute <n> + sym))",
        "compute on non-numeric value 'sym'",
        [A, B, (3, "c", {"k": 1})],
        [],
        (1, 0),
    ),
    (
        "division by zero, after a modify that already landed",
        "(modify 1 ^m 0) (make c ^k (compute <m> // 0)) (halt)",
        "compute: division by zero",
        [B, (3, "a", {"n": 1, "m": 0})],
        [],
        (1, 1),
    ),
    (
        "modulus by zero inside a modify leaves the element alone",
        "(modify 2 ^n (compute <n> mod 0))",
        "compute: division by zero",
        [A, B],
        [],
        (0, 0),
    ),
    (
        "the leftmost faulty operand wins",
        "(write (compute sym + (compute 1 // 0)))",
        "compute on non-numeric value 'sym'",
        [A, B],
        [],
        (0, 0),
    ),
]


@pytest.mark.parametrize(
    "name,rhs,message,memory,output,counts", ERRORS, ids=[c[0] for c in ERRORS]
)
def test_an_action_that_raises(name, rhs, message, memory, output, counts):
    ps = ProductionSystem(f"(p r {LHS} --> {rhs})", history=True)
    for cls, attrs in WMES:
        ps.add(cls, **attrs)
    with pytest.raises(ExecutionError) as info:
        ps.step()
    assert str(info.value) == message
    assert contents(ps) == memory
    assert ps.output == output
    record = ps.cycles[-1]
    assert (record.production, record.adds, record.removes) == ("r", *counts)
    assert not ps.halted


def test_ce_references_skip_negated_elements():
    """``remove 3`` names LHS element 3; the instantiation holds no WME
    for the negated element 2, so that is its second WME."""
    ps, record = fire_once(
        "(p r (a ^n <n>) - (z ^n <n>) (b ^n <n>) --> (modify 3 ^n 9) (remove 1))",
        [("a", {"n": 1}), ("b", {"n": 1})],
    )
    assert contents(ps) == [(3, "b", {"n": 9})]
    assert (record.adds, record.removes) == (1, 2)


def test_one_wme_matching_two_ces_cannot_be_removed_twice():
    """``remove 2`` is not 'already removed in this firing' -- CE 2 was
    not -- but its element left working memory with CE 1's."""
    ps = ProductionSystem("(p r (a ^n <n>) (a ^n <n>) --> (remove 1) (remove 2))", history=True)
    ps.add("a", n=1)
    with pytest.raises(WorkingMemoryError):
        ps.step()
    assert contents(ps) == []
    assert (ps.cycles[-1].adds, ps.cycles[-1].removes) == (0, 1)


LITERALIZED = """
(literalize a n m)
(literalize c k)
(p r (a ^n <n>) --> (make c ^k 1) (make c ^k 2 ^colour <n>) (make c ^k 3))
"""


def test_make_of_a_literalized_class_with_an_undeclared_attribute():
    ps = ProductionSystem(LITERALIZED, history=True)
    ps.add("a", n=1)
    with pytest.raises(ExecutionError) as info:
        ps.step()
    assert str(info.value) == (
        "WME of class 'c' uses undeclared attribute(s) ['colour']; literalized: ['k']"
    )
    assert contents(ps) == [(1, "a", {"n": 1}), (2, "c", {"k": 1})]
    assert (ps.cycles[-1].adds, ps.cycles[-1].removes) == (1, 0)


def test_a_nil_valued_undeclared_attribute_is_absent_not_undeclared():
    source = "(literalize c k) (p r (a ^n <n> ^m <m>) --> (make c ^k <n> ^colour <m>))"
    ps, record = fire_once(source, [("a", {"n": 1})])
    assert contents(ps)[-1] == (2, "c", {"k": 1})
    assert record.adds == 1


@pytest.mark.parametrize("matcher", ["rete", "treat", "naive", "compiled"])
def test_listener_sees_every_change_of_a_firing_in_order(matcher):
    seen = []

    class Spy(EngineListener):
        def on_change(self, cycle, kind, wme):
            seen.append((cycle, kind, wme.cls, wme.timetag))

    ps = ProductionSystem(
        f"(p r {LHS} --> (modify 1 ^m 8) (make c ^k <m>) (remove 2))",
        matcher=matcher,
        listener=Spy(),
    )
    for cls, attrs in WMES:
        ps.add(cls, **attrs)
    del seen[:]
    ps.step()
    assert seen == [
        (1, "remove", "a", 1),
        (1, "add", "a", 3),
        (1, "add", "c", 4),
        (1, "remove", "b", 2),
    ]
