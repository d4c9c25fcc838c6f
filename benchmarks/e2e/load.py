"""The offered load: one rule program, one unit of work, five op streams.

Every workload drives ``emit_system_program(profile_named("r1-soar"))``
(53 rules, the paper's Section 6 statistics) *without* its ``ctx`` WME,
so the halt rule never fires and a quiescent engine is resumed by the
next input.  The unit of offered work is a **lane**: 7 ``item`` asserts
plus 1 ``task`` assert, after which the rules fire a closed-form number
of times.  ``--seed`` shuffles item order inside lanes, lane-name
suffixes and the order clients visit sessions; the program under test
sees only the generated ops.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.ops5 import ProductionSystem
from repro.workloads.generator import SystemProgram, emit_system_program
from repro.workloads.profiles import profile_named

PROFILE = "r1-soar"

#: Closed form of one lane on the r1-soar program (3 stages x 7 branches):
#: 21 marks + 3 advances + 1 done.
LANE_FIRINGS = 25
#: 8 asserts + 21 mark makes + 3 task modifies (remove + make) + 1 remove.
LANE_CHANGES = 36
#: 7 items + 21 marks stay behind; every task incarnation is removed.
LANE_LEFTOVER = 28
LANE_ASSERTS = 8


def system_program() -> SystemProgram:
    """Emit the program (part of every cold set-up) and check the closed form."""
    program = emit_system_program(profile_named(PROFILE))
    stages, branches = program.stages, program.branches
    if (
        stages * (branches + 1) + 1 != LANE_FIRINGS
        or branches + 1 != LANE_ASSERTS
        or LANE_ASSERTS + stages * branches + 2 * stages + 1 != LANE_CHANGES
        or branches + stages * branches != LANE_LEFTOVER
    ):
        raise RuntimeError(
            f"{PROFILE} emits {stages} stages x {branches} branches; the "
            "benchmark's closed-form lane counts no longer describe it"
        )
    return program


class LaneSource:
    """Seeded lane generator; the same seed gives the same ops."""

    def __init__(self, seed: int, prefix: str = "") -> None:
        self._rng = random.Random(f"e2e-{seed}-{prefix}")
        self._prefix = prefix
        self._count = 0

    def lane(self) -> list[tuple[str, dict]]:
        """One lane as ``(class, attributes)`` pairs, task last."""
        rng = self._rng
        name = f"{self._prefix}{self._count}-{rng.randrange(16 ** 4):04x}"
        self._count += 1
        items = [
            ("item", {"lane": name, "kind": f"k{branch}", "val": 10 + branch})
            for branch in range(LANE_ASSERTS - 1)
        ]
        rng.shuffle(items)
        items.append(("task", {"stage": 0, "lane": name}))
        return items

    def lanes(self, count: int) -> list[tuple[str, dict]]:
        """*count* lanes, concatenated."""
        wmes: list[tuple[str, dict]] = []
        for _ in range(count):
            wmes.extend(self.lane())
        return wmes


def asserts(wmes: Iterable[tuple[str, dict]]) -> list[tuple]:
    """``apply_changes`` specs for a list of ``(class, attributes)``."""
    return [("assert", cls, attrs) for cls, attrs in wmes]


def leftover_timetags(batch_timetags: Sequence[int], cycles) -> list[int]:
    """Timetags a quiesced batch of lanes leaves behind (items + marks).

    Timetags are allocated in sequence, so everything from the batch's
    first timetag on that is not a task incarnation survives: the task asserts
    are every eighth batch timetag, and each ``-advance-`` firing's
    modify makes exactly one more.  Walking the public ``RunResult.cycles``
    keeps this off the engine's own data structures.
    """
    tasks = set(batch_timetags[LANE_ASSERTS - 1 :: LANE_ASSERTS])
    tag = batch_timetags[-1] + 1
    for cycle in cycles:
        if cycle.adds:
            if "-advance-" in cycle.production:
                tasks.add(tag)
            tag += cycle.adds
    return [t for t in range(batch_timetags[0], tag) if t not in tasks]


def firing_rows(cycles) -> list[list]:
    """The wire shape of a firing sequence: ``[production, [timetags]]``."""
    return [[cycle.production, list(cycle.timetags)] for cycle in cycles]


class Reference:
    """A serial ``compiled`` engine replaying an op stream: the oracle.

    The invariant every other path is held to is bit-identity with this
    engine's firing sequence over the same acknowledged history.
    """

    def __init__(self, source: str) -> None:
        self.system = ProductionSystem(source, matcher="compiled")

    def step(self, changes: Sequence[tuple], run: bool = True) -> list[list]:
        self.system.apply_changes(changes)
        return firing_rows(self.system.run().cycles) if run else []
