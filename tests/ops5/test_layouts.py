"""A WME is a record of its class (``repro.ops5.wme.Layout``).

A class has one layout while something holds it (an engine, a record, a
compiled kernel), so every class here is named by this module alone and
each test keeps the engine whose ruleset fixed the layouts it asserts on.
"""

import gc
import json
import subprocess
import sys
import threading
import weakref

import pytest

from repro.ops5 import ProductionSystem, WME
from repro.ops5.actions import Constant, Make, Modify, VariableRef
from repro.ops5.condition import ConditionElement, ConstantTest, VariableTest
from repro.ops5.production import Production
from repro.ops5.rhs import COMPILE_AT, first_firings
from repro.kernel import CompiledMatcher
from repro.ops5.wme import _LAYOUTS, _drop, layout_of, live_layout
from repro.serve.session import encode_wme


def _trace(productions, wmes, matcher):
    """Firings, conflict set per cycle, ``MatchStats`` rows (affected
    productions) and final memory (in the key order each element keeps)."""
    ps = ProductionSystem(productions, matcher=matcher, history=True)
    for cls, attributes in wmes:
        ps.add_wme(WME(cls, attributes))
    sets = []
    while ps.step() is not None and len(sets) < 40:
        sets.append(sorted(i.key for i in ps.conflict_set))
    return (
        [(c.production, c.timetags) for c in ps.cycles],
        sets,
        [(r.kind, r.wme_class, r.affected_productions) for r in ps.matcher.stats.changes],
        [(w.timetag, w.cls, list(w.attributes.items())) for w in ps.memory.snapshot()],
        ps.export_state()["wmes"],
    )


def _agree(productions, wmes):
    compiled = _trace(productions, wmes, "compiled")
    assert compiled == _trace(productions, wmes, "rete")
    return compiled


def test_order_outside_names_nil_and_odd_names_match_like_rete():
    program = """
        (literalize lay-person first-name rank dept)
        (p greet (lay-person ^first-name <n> ^rank <k> ^dept nil) --> (make lay-out ^first-name <n> ^rank <k>))
        (p tagged (lay-person ^first-name <n> ^dept <d>) (lay-tag ^of <n> ^note <d>)
           --> (modify 2 ^seen yes ^note done ^colour nil))
    """
    wmes = [
        ("lay-person", {"dept": "nil", "rank": 5, "first-name": "ann"}),  # given out of layout order
        ("lay-person", {"rank": 6, "first-name": "bo", "dept": "ops"}),
        ("lay-tag", {"note": "ops", "of": "bo", "colour": "red", "shade": "dark"}),
        ("lay-tag", {"of": "ann", "note": "nil"}),
    ]
    layouts = ProductionSystem(program).layouts  # held through both runs
    firings, _sets, _rows, memory, rows = _agree(program, wmes)
    assert layouts["lay-person"].names == ("first-name", "rank", "dept")
    assert layouts["lay-tag"].names == ("of", "note", "seen", "colour")  # no ^shade
    assert firings == [("tagged", (1, 4)), ("tagged", (2, 3)), ("greet", (1,))]
    assert layouts["lay-tag"].overflowed == 4  # bo's tag, then its modify, twice
    assert [items for _tag, _cls, items in memory] == [
        [("rank", 5), ("first-name", "ann")],  # given order kept, explicit nil dropped
        [("rank", 6), ("first-name", "bo"), ("dept", "ops")],
        [("of", "ann"), ("seen", "yes"), ("note", "done")],  # a modify appends new keys
        [("note", "done"), ("of", "bo"), ("shade", "dark"), ("seen", "yes")],  # ^colour nil cleared
        [("first-name", "ann"), ("rank", 5)],
    ]
    assert [list(row[2]) for row in rows] == [[k for k, _v in items] for _t, _c, items in memory]


def test_a_second_program_reads_attributes_outside_a_live_layout():
    first = ProductionSystem("(p first (lay-job ^id <i>) --> (halt))")
    assert first.layouts["lay-job"].names == ("id",)
    program = "(p second (lay-job ^id <i> ^owner <o>) - (lay-job ^id <o>) --> (make lay-job ^id <o> ^owner <i>))"
    _agree(program, [("lay-job", {"owner": "y", "id": "x"}), ("lay-job", {"id": "z"})])
    system = ProductionSystem(program)
    system.add("lay-job", id="x", owner="y")
    system.run(max_cycles=3)
    kernel = system.matcher.kernel_summary()
    # Each trace: x, and the makes for x and for z (whose ^owner is nil);
    # here: x and its make.
    assert kernel["layouts"]["lay-job"] == {"width": 1, "overflowed": 3 + 3 + 2}
    del first, system
    gc.collect()
    # With nothing holding it, the class is laid out afresh by the next ruleset.
    assert ProductionSystem(program).layouts["lay-job"].names == ("id", "owner")


def test_a_layout_lives_while_an_engine_record_or_kernel_relies_on_it():
    system = ProductionSystem("(p r (lay-life ^a <x> ^b 1) --> (make lay-life-out ^v <x>))")
    wme = system.add("lay-life", a=1, b=1)
    system.run()
    (out,) = system.memory.of_class("lay-life-out")
    system.remove_wme(wme)
    system.remove_wme(out)
    matcher = system.matcher
    assert "_held = hold_layouts({'lay-life': ('a', 'b')})\n" in matcher.generated_source
    del system, wme
    gc.collect()
    assert live_layout("lay-life").names == ("a", "b")  # its kernel holds it
    del matcher
    gc.collect()
    assert live_layout("lay-life") is None and "lay-life" not in _LAYOUTS
    assert live_layout("lay-life-out") is type(out)._layout  # a record holds its own
    del out
    gc.collect()
    assert live_layout("lay-life-out") is None and "lay-life-out" not in _LAYOUTS


def test_an_act_phase_is_compiled_on_its_compile_at_th_firing_and_held_by_its_production():
    system = ProductionSystem("""
        (p lay-fires (lay-act ^go yes) --> (make lay-act-out ^v 1) (modify 1 ^go no ^n 2))
        (p lay-idle (lay-act ^go never) --> (make lay-idle-out ^v 1))
    """)
    fires, idle = sorted(system.matcher.productions, key=lambda p: p.name)
    assert fires._rhs_source is None  # generated on first read
    site = "_k0 = layout_of('lay-act-out', ('v', )).constructor(('v', ), False)"
    assert site in fires.rhs_source
    for n in range(COMPILE_AT - 1):
        system.add("lay-act", go="yes", n=n)
    assert system.run().fired == COMPILE_AT - 1
    act = live_layout("lay-act")
    # Interpreted firings build records through the layout, compile nothing.
    assert fires.fire.func is first_firings and dict(act._code) == {}
    system.add("lay-act", go="yes")
    assert system.run().fired == 1
    compiled = weakref.ref(fires.fire)
    assert compiled().__code__.co_filename == "<rhs:lay-fires>"
    assert idle.fire.func is first_firings and idle._rhs_source is None
    assert sorted(act._code) == [(("go", "n"), True)]
    del system
    gc.collect()
    # The program and its records are gone; the fired rule's sites hold
    # their layouts, the idle rule's class has none.
    assert live_layout("lay-act-out").names == ("v",)
    assert live_layout("lay-idle-out") is None and "lay-idle-out" not in _LAYOUTS
    rules = [weakref.ref(fires), weakref.ref(idle)]
    del fires, idle
    assert [rule() for rule in rules] == [None, None]  # no cycle: freed without a collection
    gc.collect()
    assert compiled() is None
    assert live_layout("lay-act-out") is None and "lay-act-out" not in _LAYOUTS
    assert dict(act._code) == {}  # no constructor outlives the last fire using it


def test_a_kernel_reads_a_class_with_no_layout_through_get_and_fixes_none():
    matcher = CompiledMatcher()
    (production,) = ProductionSystem("(p r (lay-none ^k 1) --> (halt))").matcher.productions
    gc.collect()
    matcher.add_production(production)
    assert live_layout("lay-none") is None
    wme = WME("lay-other", {"k": 1})  # any element compiles the kernel
    matcher.memory.add(wme)
    matcher.add_wme(wme)
    assert "b = Q0_0.get(w.get('k'))" in matcher.generated_source
    assert "_held = hold_layouts({})\n" in matcher.generated_source
    assert live_layout("lay-none") is None


@pytest.mark.parametrize("name", ["lay\0nul", "lay-'quote\"", "lay-é"])
def test_hostile_class_names_get_a_record_type(name):
    # Attribute names that are no identifiers: ``^1``, ``1``, ``first-name``.
    conditions = [ConditionElement(name, {"^1": VariableTest("v"), "k": ConstantTest("go")})]
    actions = [
        Make(name, (("k", Constant("done")), ("1", VariableRef("v")), ("first-name", Constant("x")))),
        Modify(1, (("new", Constant(1)), ("k", Constant("stop")))),
    ]
    production = Production("hostile", conditions, actions)
    *_, memory, _rows = _agree([production], [(name, {"k": "go", "^1": 3})])
    assert [items for _t, _c, items in memory] == [
        [("k", "done"), ("1", 3), ("first-name", "x")],
        [("k", "stop"), ("^1", 3), ("new", 1)],
    ]
    assert name not in type(WME(name)).__name__


def test_threads_churning_one_class_keep_one_layout_at_a_time():
    """Engines on one class that name different attributes, built, run
    and dropped from more threads than cores while collections fire
    the table's callbacks: two live layouts of one class would misread
    a slot, so every run must fire exactly its own rule."""
    errors = []

    def churn(k):
        try:
            for i in range(30):
                a, b = f"f{k}", f"g{(k + i) % 3}"
                system = ProductionSystem(
                    f"(p r (lay-churn ^{a} <x> ^{b} 1) --> (make lay-churn-out ^v <x>))"
                )
                system.add("lay-churn", **{a: i + 1, b: 1})
                system.add("lay-churn", **{b: 1, a: -i - 1, "other": 3})
                system.add("lay-churn", **{a: i + 1, b: 2})
                system.run()
                made = sorted(w.get("v") for w in system.memory.of_class("lay-churn-out"))
                assert made == [-i - 1, i + 1], (k, i, made)
                if i % 5 == 0:
                    gc.collect()
        except BaseException as error:
            errors.append(error)  # the main thread reports it

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_a_late_callback_for_a_collected_layout_keeps_its_successor():
    # The callback of a layout collected after its class was laid out
    # anew must not drop the new one (two live layouts would follow).
    layout = layout_of("lay-stale", ("a",))
    _drop("lay-stale", weakref.ref(layout.build))  # some other, older reference
    assert live_layout("lay-stale") is layout


def test_attributes_and_rows_keep_the_given_order():
    declared = ProductionSystem("(literalize lay-row a b c)")
    assert declared.layouts["lay-row"].names == ("a", "b", "c")
    wme = WME("lay-row", {"c": 3, "zz": 9, "a": 1})
    assert list(wme.attributes) == ["c", "zz", "a"]
    assert list(wme.with_updates({"b": 2, "a": "nil"}).attributes) == ["c", "zz", "b"]
    assert list(encode_wme(wme)[1]) == ["c", "zz", "a"]
    system = ProductionSystem()  # no literalize: ^zz is allowed (it overflows)
    system.add_wme(wme)
    assert [list(row[2]) for row in system.export_state()["wmes"]] == [["c", "zz", "a"]]
    assert repr(wme) == "(lay-row ^a 1 ^c 3 ^zz 9) @1"
    assert wme.content_key() == WME("lay-row", {"a": 1, "zz": 9, "c": 3}).content_key()


#: Bytes one r1-soar ``item`` costs (record plus its list slot), measured
#: 88.5 on CPython 3.11 (x86-64): 16 B GC header, 16 B object header, 8 B
#: each for timetag, order, overflow and three fields, 8 B in the list.
#: The dict-backed element it replaced measured 248.5.  Margin: 8 B.
ITEM_BYTES = 88.5 + 8


def test_r1_soar_item_bytes():
    """In a fresh interpreter, so ``item``'s layout is the program's."""
    script = (
        "import tracemalloc\n"
        "from repro.workloads.programs import SYSTEM_PROGRAMS\n"
        "from repro.ops5 import WME\n"
        "system = SYSTEM_PROGRAMS['r1-soar'].build()\n"
        "rows = [{'lane': f'{i}-x', 'kind': f'k{i % 7}', 'val': i % 20} for i in range(10000)]\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "wmes = [WME('item', row) for row in rows]\n"
        "print((tracemalloc.get_traced_memory()[0] - before) / len(wmes))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) <= ITEM_BYTES
