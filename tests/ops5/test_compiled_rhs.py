"""The act phase (``ops5/rhs.py``), compiled and interpreted, against a
reference interpreter.

``Production.fire`` runs ``rhs.interpret`` until its ``COMPILE_AT``-th
firing, then generated source (``rhs.compile_fire``); ``reference_fire``
below walks the same ``Action`` objects with ``Expression.evaluate`` --
the semantics of the ``isinstance`` ladder the engine used to run -- and
takes its bindings from ``ConditionElement.match`` over the matched
WMEs, not from ``Production.binding_sites``.  Engines with each
executor must leave the same working memory, output lines,
``CycleRecord``s and exceptions.

Hand mutations of ``ops5/rhs.py`` / ``ops5/production.py`` that each
fail this file (edited, run, reverted; see CHANGES.md): variables read
at use instead of before the first action; ``modify`` not rebinding the
CE local; the binding site taken from the *last* positive CE;
``record.adds`` bumped before the change instead of after.
"""

import sys
import threading
import traceback
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops5 import (
    Bind,
    Compute,
    ConditionElement,
    Constant,
    ConstantTest,
    CycleRecord,
    ExecutionError,
    Halt,
    Make,
    Modify,
    Ops5Error,
    Production,
    ProductionSystem,
    Remove,
    VariableRef,
    VariableTest,
    Write,
    parse_program,
)
from repro.ops5.parser import Program
from repro.ops5 import rhs
from repro.ops5.rhs import compile_fire, first_firings, interpret, literal
from repro.ops5.wme import WME
from repro.serve.session import shared_program
from repro.workloads.programs import ALL_PROGRAMS, SYSTEM_PROGRAMS


def reference_fire(production, engine, wmes, record):
    """One firing, interpreted: what ``ProductionSystem._execute`` did."""
    bindings = {}
    for position, index in enumerate(production.positive_indices):
        bindings = production.conditions[index].match(wmes[position], bindings)
    current = list(wmes)
    for action in production.actions:
        if isinstance(action, Make):
            values = {a: e.evaluate(bindings) for a, e in action.attributes}
            engine.add_wme(WME(action.cls, values))
            record.adds += 1
        elif isinstance(action, (Remove, Modify)):
            position = production.ce_position_of(action.ce_index)
            wme = current[position]
            if wme is None and isinstance(action, Remove):
                raise ExecutionError(
                    f"{production.name}: condition element {action.ce_index} "
                    "was already removed in this firing"
                )
            if wme is None:
                raise ExecutionError(
                    f"{production.name}: modify of condition element "
                    f"{action.ce_index} after its removal"
                )
            if isinstance(action, Modify):
                current[position] = wme.with_updates(
                    {a: e.evaluate(bindings) for a, e in action.attributes}
                )
            else:
                current[position] = None
            engine.remove_wme(wme)
            record.removes += 1
            if current[position] is not None:
                engine.add_wme(current[position])
                record.adds += 1
        elif isinstance(action, Write):
            engine.output.append(" ".join(str(v.evaluate(bindings)) for v in action.values))
        elif isinstance(action, Bind):
            bindings[action.name] = action.expression.evaluate(bindings)
        else:
            assert isinstance(action, Halt)
            engine.halt()


def interpreted(system):
    """*system* with every production's ``fire`` swapped for the
    reference (its productions are its own: ``build`` parses afresh)."""
    for production in system.matcher.productions:
        production.fire = lambda *args, _p=production: reference_fire(_p, *args)
    return system


def compiled(system):
    """*system* with every production's ``fire`` compiled now."""
    for production in system.matcher.productions:
        production.fire = compile_fire(production)
    return system


def observed(system, cycles):
    """Everything a run leaves behind, in comparable form."""
    error = None
    try:
        result = system.run(max_cycles=cycles)
        records = result.cycles
    except Ops5Error as caught:
        error = (type(caught).__name__, str(caught))
        records = system.cycles
    return {
        "error": error,
        "cycles": [(c.cycle, c.production, c.timetags, c.adds, c.removes) for c in records],
        "output": list(system.output),
        # By repr: a computed ``nan`` equals itself here.
        "memory": [repr((w.timetag, w.cls, sorted(w.attributes.items()))) for w in system.memory.snapshot()],
        "halted": system.halted,
        "changes": system.total_wme_changes,
    }


# -- every bundled program, its real firing sequence ---------------------------


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_bundled_programs_fire_as_the_reference_does(name):
    module = ALL_PROGRAMS[name]
    theirs = observed(interpreted(module.build(history=True)), 400)
    ours = observed(module.build(history=True), 400)  # compiled as each rule warms up
    assert ours == theirs == observed(compiled(module.build(history=True)), 400)
    fired = {cycle[1] for cycle in ours["cycles"]}
    assert len(fired) > 1, "the comparison must cover several productions"


class Log:
    """The four things ``fire`` asks of an engine, written down."""

    def __init__(self):
        self.calls, self.output = [], []

    def add_wme(self, wme):
        self.calls.append(("add", wme.cls, sorted(wme.attributes.items())))

    def remove_wme(self, wme):
        self.calls.append(("remove", wme.cls, sorted(wme.attributes.items())))

    def halt(self):
        self.calls.append(("halt",))


def constants(test):
    """Every constant *test* mentions, numbers with their neighbours."""
    if isinstance(test, ConstantTest):
        value = test.value
        return [value] if isinstance(value, str) else [value, value + 1, value - 1]
    inner = getattr(test, "tests", None) or [getattr(test, "operand", None)]
    found = list(getattr(test, "values", ()))
    return found + [v for t in inner if t is not None for v in constants(t)]


def synthesised_match(production):
    """One WME per positive CE that together satisfy them: each tested
    attribute greedily takes the first candidate its test accepts."""
    bindings, wmes = {}, []
    for index in production.positive_indices:
        ce, attributes = production.conditions[index], {}
        for attribute in sorted(ce.tests):
            test = ce.tests[attribute]
            pool = (*constants(test), *bindings.values(), 1, 2, 0, "a")
            candidate = next(v for v in pool if test.evaluate(v, bindings) is not None)
            bindings = test.evaluate(candidate, bindings)
            attributes[attribute] = candidate
        wmes.append(WME(ce.cls, attributes))
        assert ce.match(wmes[-1], bindings) == bindings, (production.name, index)
    return tuple(wmes)


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_every_production_fires_as_the_reference_does(name):
    """The runs above never satisfy the generated programs' watch rules;
    here every production fires once, on a synthesised match, compiled,
    interpreted and by the reference."""
    for production in ALL_PROGRAMS[name].build().matcher.productions:
        wmes = synthesised_match(production)
        logs = []
        for fire in (
            compile_fire(production),
            lambda *args: interpret(production, *args),
            lambda *args: reference_fire(production, *args),
        ):
            log, record = Log(), CycleRecord(1, production.name, ())
            fire(log, wmes, record)
            logs.append((log.calls, log.output, record.adds, record.removes))
        assert logs[0] == logs[1] == logs[2], production.name
        assert logs[0][0] or logs[0][1], production.name


# -- bindings are derived data -------------------------------------------------


@pytest.mark.parametrize("matcher", ["rete", "treat", "naive", "oflazer"])
@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_derived_bindings_equal_what_the_interpreted_matchers_pass(name, matcher):
    system = SYSTEM_PROGRAMS[name].build(matcher=matcher)
    seen = 0
    for _ in range(25):
        for inst in system.conflict_set.members():
            passed = inst.bindings
            derived = type(inst)(inst.production, inst.wmes).bindings
            assert derived == passed and list(map(type, derived.values())) == list(
                map(type, passed.values())
            ), inst
            seen += bool(passed)
        if system.step() is None:
            break
    assert seen > 25


TWO_SITES = "(p r (a ^n <n>) (b ^n <n> ^m <m>) (c ^m <m> ^n <n>) --> (make d ^n <n> ^m <m>))"


@pytest.mark.parametrize("matcher", ["rete", "treat", "naive", "oflazer", "compiled", "parallel"])
def test_a_variable_takes_its_value_at_its_first_positive_site(matcher):
    """``<n>`` joins ``1`` with ``1.0`` (OPS5 numeric equality) and
    ``<m>`` ``2.0`` with ``2``: the RHS and ``bindings`` see CE 1's
    ``1`` and CE 2's ``2.0``, whatever matched later."""
    ps = ProductionSystem(TWO_SITES, matcher=matcher)
    ps.add("a", n=1)
    ps.add("b", n=1.0, m=2.0)
    ps.add("c", n=1.0, m=2)
    (inst,) = ps.conflict_set.members()
    assert [(k, v, type(v)) for k, v in inst.bindings.items()] == [
        ("n", 1, int),
        ("m", 2.0, float),
    ]
    ps.step()
    made = ps.memory.snapshot()[-1]
    assert (type(made.get("n")), type(made.get("m"))) == (int, float)


def test_binding_sites_skip_negated_elements():
    (production,) = parse_program(
        "(p r (a ^n <n>) - (z ^n <n> ^q <q>) (b ^k <k> ^n <n>) --> (make c ^k <k>))"
    ).productions
    assert production.binding_sites == (("n", 0, "n"), ("k", 1, "k"))


# -- hostile names are data ----------------------------------------------------

HOSTILE = [
    "it's",
    'say "hi"',
    "back\\slash",
    "new\nline",
    "r²",
    "class",
    "__import__('os').system('true')",
    "{0}",
    "%s",
    "nil\0nul",
    "'''",
    "\\",
    "# comment",
]


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_spellings_round_trip_as_data(name):
    """One spelling used as production name, class, attribute, symbol
    constant and variable name at once."""
    conditions = [ConditionElement(name, {name: VariableTest(name), "k": ConstantTest(name)})]
    actions = [
        Make(name, ((name, VariableRef(name)), ("sym", Constant(name)))),
        Bind(name + "2", Constant(name)),
        Write((Constant(name), VariableRef(name), VariableRef(name + "2"))),
        Modify(1, ((name, Constant(name)),)),
        Remove(1),
        Remove(1),
    ]
    production = Production(name, conditions, actions)
    for matcher in ("rete", "compiled"):
        ps = ProductionSystem([production], matcher=matcher, history=True)
        ps.add_wme(WME(name, {name: 7, "k": name}))
        with pytest.raises(ExecutionError) as info:
            ps.step()
        assert str(info.value) == f"{name}: condition element 1 was already removed in this firing"
        assert [(w.cls, dict(w.attributes)) for w in ps.memory.snapshot()] == [
            (name, {name: 7, "sym": name})
        ]
        assert ps.output == [f"{name} 7 {name}"]
        assert (ps.cycles[-1].adds, ps.cycles[-1].removes) == (2, 2)


def test_generated_source_mentions_names_only_inside_literals():
    (production,) = parse_program("(p r (a ^v <x-y>) --> (make class ^def <x-y> ^v import))").productions
    assert production.rhs_source == (
        "_k1 = layout_of('class', ('def', 'v', )).constructor(('def', 'v', ), False)\n"
        "def fire(engine, wmes, record):\n"
        "    v0 = wmes[0].get('v')\n"
        "    # 1: make\n"
        "    engine.add_wme(_k1(v0, 'import'))\n"
        "    record.adds += 1\n"
    )


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 1e308, -0.0, 10**30])
def test_literal_round_trips_every_number(value):
    namespace = {}
    exec("_inf = float('inf'); _nan = float('nan')\nresult = " + literal(value), namespace)
    assert repr(namespace["result"]) == repr(value)


# -- debuggability -------------------------------------------------------------


def test_a_failing_compute_names_the_production_in_the_traceback():
    ps = ProductionSystem("(p price-check (item ^cost <c>) --> (make total ^v (compute <c> // 0)))")
    compiled(ps)
    ps.add("item", cost=3)
    with pytest.raises(ExecutionError):
        try:
            ps.step()
        except ExecutionError:
            frames = traceback.extract_tb(sys.exc_info()[2])
            raise
    assert "<rhs:price-check>" in [frame.filename for frame in frames]
    (production,) = ps.matcher.productions
    line = production.rhs_source.splitlines()[
        next(f.lineno for f in frames if f.filename == "<rhs:price-check>") - 1
    ]
    assert "_divide" in line


def test_rhs_source_of_the_docs_examples():
    system = SYSTEM_PROGRAMS["r1-soar"].build(matcher="compiled")
    sources = {p.name: p.rhs_source for p in system.matcher.productions}
    assert (
        "_k0 = layout_of('task', ('stage', )).constructor(('stage', ), True)"
        in sources["r1-soar-advance-0"]
    )
    assert "w0 = _k0(old, 1)" in sources["r1-soar-advance-0"]
    assert "engine.output.append(' '.join(('done', str(v0), )))" in sources["r1-soar-done"]
    # ... and none of it is in the match module: no RHS data, no bindings dict.
    kernel = system.matcher.generated_source
    terminals = [line for line in kernel.splitlines() if "cs_insert(Inst(" in line]
    assert len(terminals) == len(sources) and all(", None, " in line for line in terminals)
    assert "'done'" not in kernel and ".constructor(" not in kernel and "'lane':" not in kernel


# -- one shared program, two sessions, two threads ------------------------------


def test_two_sessions_on_one_shared_program_fire_from_two_threads(monkeypatch):
    # Its rules fire 1-3 times a run: compile on the second firing, so
    # that the threads race interpreted firings and the compiles.
    monkeypatch.setattr(rhs, "COMPILE_AT", 2)
    module = SYSTEM_PROGRAMS["r1-soar"]
    program = shared_program(module.PROGRAM)
    assert shared_program(module.PROGRAM) is program
    serial = observed(module.build(history=True, matcher="compiled"), 300)
    # The threads race each rule's firings up to the one that compiles it.
    assert all(p.fire.func is first_firings for p in program.productions)
    results, errors = {}, []

    def session(slot):
        try:
            ps = ProductionSystem(program, matcher="compiled", history=True)
            for wme in module.setup():
                ps.add_wme(wme)
            results[slot] = observed(ps, 300)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=session, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(serial["cycles"]) > 50
    assert all(results[slot] == serial for slot in range(4))
    compiled_rules = [p for p in program.productions if not isinstance(p.fire, partial)]
    assert compiled_rules and all(p.fire.__name__ == "fire" for p in compiled_rules)


# -- random right-hand sides ----------------------------------------------------

VARIABLES = ("n", "m", "s", "k")
numbers = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, 2.0, -1.5, 0.0, float("inf")]))
# Mostly numbers, so that most computes get past their first operand.
values = st.one_of(numbers, numbers, numbers, st.sampled_from(["red", "nil", "x y", "it's"]))
atoms = st.one_of(values.map(Constant), st.sampled_from(VARIABLES + ("b1", "b2")).map(VariableRef))
operators = st.sampled_from(["+", "-", "*", "//", "\\\\", "mod"])


@st.composite
def computes(draw, operand):
    operands = draw(st.lists(operand, min_size=1, max_size=4))
    return Compute(tuple(operands), tuple(draw(operators) for _ in operands[1:]))


expressions = st.recursive(atoms, lambda inner: st.one_of(inner, computes(inner)), max_leaves=6)
pairs = st.lists(st.tuples(st.sampled_from(["n", "m", "colour"]), expressions), max_size=3)
actions = st.one_of(
    st.builds(Make, st.sampled_from(["a", "lit"]), pairs.map(tuple)),
    st.builds(Modify, st.sampled_from([1, 3]), pairs.map(tuple)),
    st.builds(Remove, st.sampled_from([1, 3])),
    st.builds(Write, st.lists(expressions, max_size=3).map(tuple)),
    st.builds(Bind, st.sampled_from(["b1", "b2", "m"]), expressions),
    st.just(Halt()),
)

#: ``(a ^n <n> ^m <m> ^s <s>) - (z ^n <n>) (b ^n <n> ^k <k>)``: CE 3 is
#: the second WME, ``<n>`` has two sites, and class ``lit`` is literalized.
CONDITIONS = [
    ConditionElement("a", {v: VariableTest(v) for v in "nms"}),
    ConditionElement("z", {"n": VariableTest("n")}, negated=True),
    ConditionElement("b", {"n": VariableTest("n"), "k": VariableTest("k")}),
]


def well_formed(rhs):
    """Drop references to ``bind`` variables no earlier ``bind`` set
    (``Production`` would refuse the rule)."""
    bound = set(VARIABLES)
    for action in rhs:
        if not set(action.variables()) <= bound:
            return False
        if isinstance(action, Bind):
            bound.add(action.name)
    return True


def check_random_rhs(rhs, a, b):
    outcomes = []
    for executor in (compiled, lambda system: system, interpreted):
        production = Production("r", CONDITIONS, rhs)
        program = Program([production], {"lit": ("n", "m")})
        ps = executor(ProductionSystem(program, matcher="compiled", history=True))
        ps.add("a", **dict(zip("nms", a)))
        ps.add("b", n=a[0], k=b)
        outcomes.append(observed(ps, 1))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert len(outcomes[0]["cycles"]) == 1


rhs_lists = st.lists(actions, min_size=1, max_size=6).filter(well_formed)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(rhs=rhs_lists, a=st.tuples(values, values, values), b=values)
def test_random_rhs_against_the_reference(rhs, a, b):
    check_random_rhs(rhs, a, b)


@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None, database=None)
@given(rhs=rhs_lists, a=st.tuples(values, values, values), b=values)
def test_random_rhs_against_the_reference_long(rhs, a, b):
    check_random_rhs(rhs, a, b)
