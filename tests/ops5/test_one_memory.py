"""One working memory per engine: the matcher owns it, the engine writes it.

``ProductionSystem.memory`` is ``matcher.memory``: no backend keeps a
timetag map, list or mirror of its own, so the engine's writes are the
only copy, a production added late folds that copy in, and a remove of
a WME the memory does not hold is refused by the memory before any
matcher sees it.
"""

import gc
import importlib.util
from pathlib import Path
from types import FunctionType, MethodType, ModuleType

import pytest

from repro.ops5 import MATCHER_NAMES, ProductionSystem, WorkingMemoryError, matcher_named
from repro.ops5.parser import parse_production
from repro.ops5.wme import WME

PROGRAM = "(p pair (goal ^want <c>) (block ^color <c>) --> (halt))"

#: Enough WMEs that no other container of the engine comes near.
NOISE = 1_000


def _tracing():
    """``benchmarks/e2e/tracing.py``, loaded from its file (read only)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"
    spec = importlib.util.spec_from_file_location("e2e_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _big_containers(root, size):
    """Every dict, list, set or tuple of at least *size* entries reachable
    from *root* through instance state (classes, modules and functions
    lead to the whole interpreter, so the walk stops at them)."""
    stop = (type, ModuleType, FunctionType, MethodType)
    seen = {id(root)}
    todo = [root]
    found = []
    while todo:
        obj = todo.pop()
        if isinstance(obj, (dict, list, set, tuple)) and len(obj) >= size:
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, stop):
                seen.add(id(ref))
                todo.append(ref)
    return found


def _fill(system):
    """File ``NOISE`` WMEs of a class no production reads."""
    for n in range(NOISE):
        system.add("noise", n=n)


def _check_one_copy(system):
    assert system.memory is system.matcher.memory
    _fill(system)
    assert len(system.memory) == NOISE
    (held,) = _big_containers(system, NOISE)
    assert held is system.memory._elements


@pytest.mark.parametrize("name", MATCHER_NAMES)
def test_the_engine_and_its_matcher_hold_one_working_memory(name):
    _check_one_copy(ProductionSystem(PROGRAM, matcher=name))


def test_an_engine_over_the_benchmark_probe_shares_the_inner_memory():
    """``EngineProbe``'s timing proxy skips ``Matcher.__init__`` and
    forwards unknown attributes, so ``memory`` reaches the inner matcher:
    the engine writes the kernel's memory, and a production added after
    the WMEs folds them in."""
    tracing = _tracing()
    probe = tracing.EngineProbe(tracing.Tracer(), matcher_named("compiled"))
    system = ProductionSystem(PROGRAM, matcher=probe.matcher)
    assert system.memory is probe.matcher.inner.memory
    _check_one_copy(system)
    system.add_production(parse_production("(p late (noise ^n <n>) --> (halt))"))
    late = {key for key in system.conflict_set.snapshot() if key[0] == "late"}
    assert len(late) == NOISE


@pytest.mark.parametrize("name", MATCHER_NAMES)
def test_a_stray_remove_is_refused_by_working_memory(name):
    """The refusal lives in ``WorkingMemory.remove``, which runs before
    the matcher is told: a WME never added, or a different element under
    a live timetag, changes nothing."""
    system = ProductionSystem(PROGRAM, matcher=name)
    goal = system.add("goal", want="red")
    system.add("block", color="red")
    before = (
        system.conflict_set.snapshot(),
        system.matcher.peek_stats().total_changes,
        system.total_wme_changes,
    )
    impostor = WME("goal", {"want": "red"})
    impostor.timetag = goal.timetag
    for stray in (WME("block", {"color": "red"}), impostor):
        with pytest.raises(WorkingMemoryError):
            system.remove_wme(stray)
    after = (
        system.conflict_set.snapshot(),
        system.matcher.peek_stats().total_changes,
        system.total_wme_changes,
    )
    assert after == before
    assert len(before[0]) == 1
