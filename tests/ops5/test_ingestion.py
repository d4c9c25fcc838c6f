"""The ingestion boundary: ``apply_changes`` takes OPS5 values only.

A batch comes from a client (``repro.serve`` hands request JSON to it),
so a value that is not a symbol or a number -- a list, an object,
``true`` / ``false``, ``null`` -- is refused with ``ExecutionError``
before the batch touches working memory, the matcher or the run state.
Before the check a list raised ``TypeError`` from inside the kernel with
the WME already in working memory, and a ``true`` was stored, joined as
``1`` by the compiled kernel only, and then failed the checkpoint
validator, so a durable session holding one could not be restored.
OPS5 has no NaN either: one joined itself in the hashed matchers (a dict
finds a key by identity first) and nothing in the others.
"""

import pytest

from repro.ops5 import MATCHER_NAMES, ProductionSystem
from repro.ops5.errors import ExecutionError
from repro.serve.durability import validate_engine_state

SRC = """
  (p pair (a ^x <v>) (b ^x <v>) --> (write pair <v>))
  (p one  (a ^x 1) --> (write one))
"""

NOT_VALUES = [[1, 2], {"k": 1}, True, False, None, (1,), float("nan")]


def _state(system):
    return (
        [(w.timetag, w.cls, dict(w.attributes)) for w in system.memory.snapshot()],
        sorted(system.conflict_set.snapshot()),
        system.memory.next_timetag,
        system.total_wme_changes,
        system.matcher.peek_stats().total_changes,
    )


@pytest.mark.parametrize("matcher", ["compiled", "rete", "naive"])
@pytest.mark.parametrize("bad", NOT_VALUES, ids=repr)
def test_a_batch_with_a_non_value_is_refused_whole(matcher, bad):
    system = ProductionSystem(SRC, matcher=matcher)
    (b,) = system.apply_changes([("assert", "b", {"x": 1})]).added
    system.run()  # quiesce: a refused batch must not resume the engine either
    before = _state(system)
    batches = [
        [("assert", "a", {"x": 1}), ("assert", "a", {"x": bad})],
        [("modify", b.timetag, {"y": bad})],
        [("retract", b.timetag), ("assert", "a", {"x": 1, "y": bad})],
    ]
    for batch in batches:
        with pytest.raises(ExecutionError, match="neither a symbol nor a number"):
            system.apply_changes(batch)
        assert _state(system) == before
    assert system.halted
    assert validate_engine_state(system.export_state()) is None
    # The session carries on with good values.
    system.apply_changes([("assert", "a", {"x": 1})])
    assert [line for line in system.run().output] == ["pair 1", "one"]


def test_attributes_must_be_a_mapping():
    system = ProductionSystem(SRC, matcher="compiled")
    with pytest.raises(ExecutionError, match="attributes must map"):
        system.apply_changes([("assert", "a", [["x", 1]])])
    assert len(system.memory) == 0


def test_every_ops5_value_is_accepted():
    system = ProductionSystem(SRC, matcher="compiled")
    values = ["sym", "", 0, -3, 2.5, -0.0, float("inf"), 10**40]
    added = system.apply_changes([("assert", "b", {"x": v}) for v in values]).added
    assert [w.get("x") for w in added] == values
    assert validate_engine_state(system.export_state()) is None


def test_a_nan_state_is_refused():
    system = ProductionSystem(SRC, matcher="compiled")
    system.add("b", x=1)
    state = system.export_state()
    state["wmes"][0][2]["x"] = float("nan")
    problem = validate_engine_state(state)
    assert problem is not None and "neither a symbol nor a number" in problem


#: A NaN made on the RHS from a client's ``inf``, filed on both sides
#: of a join: before ``compute`` refused it, ``compiled`` and
#: ``rete-indexed`` wrote ``joined`` and the other matchers did not.
NAN_JOIN = """
  (p mk (a ^v <x>) --> (bind <n> (compute <x> - <x>)) (make b ^v <n>) (make c ^v <n>) (remove 1))
  (p j (b ^v <y>) (c ^v <y>) --> (write joined))
"""


@pytest.mark.parametrize("matcher", MATCHER_NAMES)
def test_compute_refuses_to_make_a_nan_on_every_matcher(matcher):
    system = ProductionSystem(NAN_JOIN, matcher=matcher)
    system.apply_changes([("assert", "a", {"v": float("inf")})])
    with pytest.raises(ExecutionError, match="compute: result is not a number"):
        system.run()
    assert system.output == []
    assert [w.cls for w in system.memory.snapshot()] == ["a"]


def test_the_trusted_in_process_path_is_not_checked():
    """``add`` / ``add_wme`` / RHS actions are the program's own values
    (the hot path): no per-value check there."""
    system = ProductionSystem(SRC, matcher="compiled")
    system.add("b", x=(1, 2))
    assert system.memory.snapshot()[0].get("x") == (1, 2)


#: Changes that could not be applied whole, and what each used to do
#: after the changes before it in the batch had landed.
MALFORMED = [
    ("assert", "a"),  # ValueError: too few fields
    ("retract",),  # IndexError
    ("bogus", 1),  # unknown kind
    (),  # IndexError
    ("assert", "a", {}, "extra"),
    ("retract", 1, {}),
    ("modify", 1),
    ("assert", 5, {}),  # class is not a symbol
    ("assert", "", {}),
    ("retract", True),  # a bool names timetag 1
    ("modify", True, {"x": 2}),
    ("retract", 1.0),
    ("retract", "1"),
    ([1], "a", {}),  # an unhashable kind
]


@pytest.mark.parametrize("matcher", ["compiled", "rete"])
@pytest.mark.parametrize("bad", MALFORMED, ids=repr)
def test_a_malformed_change_is_refused_before_the_batch_lands(matcher, bad):
    system = ProductionSystem(SRC, matcher=matcher)
    (b,) = system.apply_changes([("assert", "b", {"x": 1})]).added
    before = _state(system)
    with pytest.raises(ExecutionError):
        system.apply_changes([("assert", "a", {"x": 1}), bad])
    assert _state(system) == before  # WM, CS and the timetag counter
    with pytest.raises(ExecutionError):
        system.check_changes([bad])


def test_a_missing_timetag_is_still_a_mid_batch_error():
    """Liveness is the one thing the up-front check cannot see."""
    system = ProductionSystem(SRC, matcher="compiled")
    with pytest.raises(Exception, match="no WME with timetag 99"):
        system.apply_changes([("assert", "a", {"x": 1}), ("retract", 99)])
    assert len(system.memory) == 1
