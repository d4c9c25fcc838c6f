"""Property-based OPS5 *program* generation and the differential fuzzer.

The paper's evaluation (Section 6) runs over six real systems whose
traces never left CMU; :mod:`repro.workloads.synthetic` substitutes
calibrated *trace* generators, but every bit-identity claim in this repo
still rested on a handful of hand-written programs.  This module closes
that gap from the other side: it generates whole OPS5 **programs** --
typed attribute schemas, rulesets with negated condition elements and
variable-join graphs of controlled fan-in/fan-out, RHS make/remove/
modify mixes -- together with matched working-memory change streams, and
feeds them to the cross-matcher differential harness: every generated
``(ruleset, stream)`` pair must produce bit-identical conflict sets,
firing sequences, output, and final memories across every matcher
backend (naive, TREAT, Rete, indexed Rete, Oflazer, the compiled kernel,
and the compiled kernel over a partitioned ruleset, ``parallel``).

Three consumers share the machinery:

* **hypothesis** property tests -- :func:`fuzz_cases` builds a strategy
  whose draws flow through the same :class:`Choices` abstraction as the
  seeded path, so hypothesis shrinks structure, not just seeds;
* the ``repro fuzz`` CLI -- :func:`fuzz` runs a seeded, time-budgeted
  campaign and reports counterexamples minimised by the built-in
  greedy shrinker (:func:`shrink_case`), each reproducible from its
  recorded ``case_seed``;
* the six *system-class* program emitters -- :func:`emit_system_program`
  turns a :class:`~repro.workloads.profiles.SystemProfile` into a real,
  runnable, terminating OPS5 program whose per-change affected-production
  counts track the paper's Section 6 statistics
  (``workloads/programs/{vt,ilog,mud,daa,r1_soar,ep_soar}.py``).

Everything derives from ``random.Random`` seeded through ``zlib.crc32``
(stable across processes), so a counterexample found in CI reproduces
locally from its seed alone.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..ops5.actions import Action, Constant, Halt, Make, Modify, Remove, VariableRef, Write
from ..ops5.condition import (
    ConditionElement,
    ConstantTest,
    Predicate,
    PredicateTest,
    Test,
    VariableTest,
)
from ..ops5.engine import ProductionSystem, matcher_named
from ..ops5.errors import Ops5Error, ValidationError
from ..ops5.parser import Program, parse_program
from ..ops5.production import Production
from ..ops5.unparse import unparse_program
from ..ops5.wme import Value
from .profiles import PAPER_SYSTEMS, SystemProfile

# ---------------------------------------------------------------------------
# Typed attribute schemas
# ---------------------------------------------------------------------------

#: Symbol constants the generator draws from.  ``nil`` is deliberately
#: excluded: a WME attribute set to NIL is indistinguishable from an
#: absent attribute (see :mod:`repro.ops5.wme`).
SYMBOL_POOL: tuple[str, ...] = ("red", "blue", "green", "amber")

#: Number constants: small ints so ordering predicates hit both sides.
NUMBER_POOL: tuple[int, ...] = (0, 1, 2, 3, 7)

#: Variable names available to one production's LHS.
VARIABLE_NAMES: tuple[str, ...] = ("x", "y", "z", "w")


@dataclass(frozen=True)
class ClassSchema:
    """One element class: a name plus typed attributes.

    ``attributes`` maps attribute name to a kind, ``"sym"`` or ``"num"``;
    constants drawn for that attribute come from the matching pool, so
    ordering predicates are generated only where they can ever succeed.
    """

    name: str
    attributes: tuple[tuple[str, str], ...]

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)


@dataclass(frozen=True)
class Schema:
    """The typed attribute schema one generated program is built over."""

    classes: tuple[ClassSchema, ...]

    def literalizations(self) -> dict[str, tuple[str, ...]]:
        return {cls.name: cls.attribute_names() for cls in self.classes}

    def class_named(self, name: str) -> ClassSchema:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Generator profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorProfile:
    """Knobs of the program generator.

    The default is the fuzzing scale: programs small enough that a
    failing pair shrinks to a reviewable reproduction in seconds, but
    structurally rich (joins, negation, predicates, RHS churn).  The six
    per-system profiles (:data:`GENERATOR_PROFILES`) scale these knobs
    from the paper systems' measured statistics via
    :func:`profile_for_system`.
    """

    name: str = "default"
    #: Number of element classes in the schema.
    classes: int = 3
    #: Attribute-count range per class.
    min_attributes: int = 2
    max_attributes: int = 3
    #: Fraction of attributes that are numeric.
    numeric_rate: float = 0.45
    #: Production-count range per ruleset.
    min_rules: int = 1
    max_rules: int = 4
    #: Condition elements per production (first is always positive).
    max_ces: int = 3
    #: Probability a non-first CE is negated.
    negation_rate: float = 0.25
    #: Probability an attribute test is a variable occurrence at all.
    variable_rate: float = 0.45
    #: Probability a variable occurrence reuses an already-bound variable
    #: (the fan-in/fan-out control of the join graph).
    join_rate: float = 0.6
    #: Probability an attribute test is a predicate (vs. a constant).
    predicate_rate: float = 0.3
    #: RHS mix.
    max_makes: int = 2
    modify_rate: float = 0.3
    remove_rate: float = 0.35
    write_rate: float = 0.2
    halt_rate: float = 0.05
    #: Working-memory change-stream length range.
    min_stream: int = 2
    max_stream: int = 10
    #: Probability a stream op retracts a live element.
    stream_remove_rate: float = 0.3
    #: Probability a stream add populates any given attribute.
    stream_attribute_rate: float = 0.7

    def __post_init__(self) -> None:
        if self.min_rules < 1 or self.max_rules < self.min_rules:
            raise ValueError("rule-count range must be ordered and >= 1")
        if self.max_ces < 1:
            raise ValueError("max_ces must be >= 1")
        if self.min_stream < 1 or self.max_stream < self.min_stream:
            raise ValueError("stream range must be ordered and >= 1")


DEFAULT_PROFILE = GeneratorProfile()


def profile_for_system(system: SystemProfile) -> GeneratorProfile:
    """Scale fuzzing knobs from one paper system's measured statistics.

    The mapping keeps the *relative* structure the paper reports: systems
    with more productions fuzz with larger rulesets, heavier fan-out
    raises the join-reuse rate, deeper serial chains raise the CE count,
    and the stream length tracks working-memory changes per firing.
    """
    return GeneratorProfile(
        name=system.name,
        classes=3,
        min_attributes=2,
        max_attributes=3,
        min_rules=2,
        max_rules=max(3, round(system.program_productions / 40)),
        max_ces=min(4, system.heavy_depth + 2),
        negation_rate=min(0.4, 0.15 + system.heavy_serial_bias / 4.0),
        join_rate=min(0.85, system.heavy_fanout / 8.0),
        predicate_rate=0.3,
        max_makes=max(1, round(system.changes_per_firing * 0.75)),
        min_stream=3,
        max_stream=max(6, round(system.changes_per_firing * 5)),
    )


#: The six paper systems as generator profiles, keyed by system name.
GENERATOR_PROFILES: dict[str, GeneratorProfile] = {
    system.name: profile_for_system(system) for system in PAPER_SYSTEMS
}

#: Everything ``repro fuzz --profile`` accepts.
FUZZ_PROFILES: dict[str, GeneratorProfile] = {
    "default": DEFAULT_PROFILE,
    **GENERATOR_PROFILES,
}


# ---------------------------------------------------------------------------
# Choice sources: one generator body, two randomness backends
# ---------------------------------------------------------------------------


class Choices:
    """Decision source backed by ``random.Random`` (the seeded path)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def integer(self, low: int, high: int) -> int:
        """An int in [low, high]; shrink-friendly backends pull to *low*."""
        return self._rng.randint(low, high)

    def fraction(self) -> float:
        """A float in [0, 1); shrink-friendly backends pull toward 0."""
        return self._rng.random()

    def boolean(self, probability: float = 0.5) -> bool:
        """True with *probability*; shrinks toward False.

        Implemented as ``fraction() >= 1 - p`` so a shrinking backend
        driving :meth:`fraction` toward 0 turns every optional feature
        off -- smaller programs, not different ones.
        """
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.fraction() >= 1.0 - probability

    def choice(self, items: Sequence):
        """One of *items*; shrinks toward the first."""
        return items[self.integer(0, len(items) - 1)]


class _HypothesisChoices(Choices):
    """The same decision surface, drawing through hypothesis.

    Every structural decision becomes a hypothesis draw, so shrinking
    operates on the program's shape (fewer rules, fewer CEs, earlier
    pool values) rather than on an opaque seed.
    """

    def __init__(self, draw, strategies) -> None:  # no super().__init__
        self._draw = draw
        self._st = strategies

    def integer(self, low: int, high: int) -> int:
        return self._draw(self._st.integers(min_value=low, max_value=high))

    def fraction(self) -> float:
        # 1/1000 resolution keeps the draw space small; probabilities in
        # the profiles have at most two significant digits.
        return self._draw(self._st.integers(min_value=0, max_value=999)) / 1000.0


# ---------------------------------------------------------------------------
# The generated artefact
# ---------------------------------------------------------------------------

#: One working-memory stream operation:
#: ``("add", slot, class, attrs)`` or ``("remove", slot)``.  Slots are
#: stable ids, so dropping an add during shrinking drops its dependent
#: remove instead of silently retargeting it.
StreamOp = tuple


@dataclass(frozen=True)
class FuzzCase:
    """One generated (ruleset, stream) pair, the fuzzer's unit of work."""

    productions: tuple[Production, ...]
    literalizations: Mapping[str, tuple[str, ...]]
    stream: tuple[StreamOp, ...]
    profile: str = "default"
    case_seed: Optional[int] = None

    def program(self) -> Program:
        return Program(
            productions=list(self.productions),
            literalizations=dict(self.literalizations),
        )

    def source(self) -> str:
        """The ruleset as OPS5 source (via the unparser)."""
        return unparse_program(self.program())

    def stream_text(self) -> str:
        """The change stream as reviewable lines."""
        lines = []
        for op in self.stream:
            if op[0] == "add":
                _, slot, cls, attrs = op
                rendered = " ".join(f"^{a} {v}" for a, v in sorted(attrs.items()))
                lines.append(f"add  #{slot} ({cls}{' ' + rendered if rendered else ''})")
            else:
                lines.append(f"remove #{op[1]}")
        return "\n".join(lines)

    def snapshot(self) -> dict:
        """JSON-ready form (embedded in fuzz reports)."""
        return {
            "profile": self.profile,
            "case_seed": self.case_seed,
            "productions": len(self.productions),
            "stream_ops": len(self.stream),
            "source": self.source(),
            "stream": [list(op) for op in self.stream],
        }


def roundtrip_problems(case: FuzzCase) -> list[str]:
    """``parse(unparse(p)) == p`` violations for this case's ruleset.

    The unparser's contract is that generated programs survive a full
    round trip; any discrepancy here is a reportable bug in its own
    right (and historically how exponent-formatted floats and unlexable
    symbols were caught).
    """
    problems: list[str] = []
    try:
        reparsed = parse_program(case.source())
    except Ops5Error as error:
        return [f"unparse produced unparseable source: {error}"]
    if reparsed.literalizations != dict(case.literalizations):
        problems.append("literalize declarations did not round-trip")
    if len(reparsed.productions) != len(case.productions):
        problems.append(
            f"production count changed: {len(case.productions)} -> "
            f"{len(reparsed.productions)}"
        )
        return problems
    for original, again in zip(case.productions, reparsed.productions):
        if again.name != original.name:
            problems.append(f"production name {original.name!r} became {again.name!r}")
        if tuple(again.conditions) != tuple(original.conditions):
            problems.append(f"{original.name}: conditions did not round-trip")
        if tuple(again.actions) != tuple(original.actions):
            problems.append(f"{original.name}: actions did not round-trip")
    return problems


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _value_for(ch: Choices, kind: str) -> Value:
    return ch.choice(NUMBER_POOL if kind == "num" else SYMBOL_POOL)


def build_schema(ch: Choices, profile: GeneratorProfile) -> Schema:
    """Draw a typed attribute schema."""
    classes = []
    for index in range(profile.classes):
        count = ch.integer(profile.min_attributes, profile.max_attributes)
        attributes = tuple(
            (f"a{j}", "num" if ch.boolean(profile.numeric_rate) else "sym")
            for j in range(count)
        )
        classes.append(ClassSchema(f"c{index}", attributes))
    return Schema(tuple(classes))


def _build_condition(
    ch: Choices,
    profile: GeneratorProfile,
    schema: Schema,
    index: int,
    bound: dict[str, str],
) -> ConditionElement:
    """One CE.  *bound* maps exported variables (positive CEs only) to
    their kinds; it is updated in place for positive CEs."""
    cls = ch.choice(schema.classes)
    negated = index > 0 and ch.boolean(profile.negation_rate)
    tests: dict[str, Test] = {}
    local: dict[str, str] = {}
    chosen = [attr for attr in cls.attributes if ch.boolean(0.75)]
    if not chosen:
        chosen = [ch.choice(cls.attributes)]
    for attribute, kind in chosen:
        roll = ch.fraction()
        if roll < profile.variable_rate:
            # A variable occurrence: reuse an existing same-kind variable
            # (a join / intra-CE consistency edge) or bind a fresh one.
            known = {**bound, **local}
            same_kind = sorted(v for v, k in known.items() if k == kind)
            if same_kind and ch.boolean(profile.join_rate):
                name = ch.choice(same_kind)
            else:
                unused = [v for v in VARIABLE_NAMES if v not in known]
                name = ch.choice(unused) if unused else ch.choice(sorted(known))
            tests[attribute] = VariableTest(name)
            local[name] = kind
        elif roll < profile.variable_rate + profile.predicate_rate:
            # Predicate: against a constant, or a variable bound by an
            # earlier CE (strictly earlier keeps binding order valid).
            ordering = kind == "num"
            candidates = sorted(v for v, k in bound.items() if k == kind)
            if candidates and ch.boolean(0.5):
                predicate = (
                    ch.choice((Predicate.NE, Predicate.LT, Predicate.GT))
                    if ordering
                    else Predicate.NE
                )
                tests[attribute] = PredicateTest(
                    predicate, VariableTest(ch.choice(candidates))
                )
            else:
                predicate = (
                    ch.choice((Predicate.NE, Predicate.GT, Predicate.LE))
                    if ordering
                    else Predicate.NE
                )
                tests[attribute] = PredicateTest(
                    predicate, ConstantTest(_value_for(ch, kind))
                )
        else:
            tests[attribute] = ConstantTest(_value_for(ch, kind))
    if not negated:
        bound.update(local)
    return ConditionElement(cls.name, tests, negated)


def _build_actions(
    ch: Choices,
    profile: GeneratorProfile,
    schema: Schema,
    conditions: Sequence[ConditionElement],
    bound: Mapping[str, str],
) -> tuple[Action, ...]:
    """A small RHS: makes, at most one modify, at most one remove,
    occasionally a write or a halt.  Made WMEs may re-enter the matched
    classes, so runs can cascade; the drivers cap cycles and every
    backend hits the same cap."""
    actions: list[Action] = []

    def expression_for(kind: str):
        same_kind = sorted(v for v, k in bound.items() if k == kind)
        if same_kind and ch.boolean(0.5):
            return VariableRef(ch.choice(same_kind))
        return Constant(_value_for(ch, kind))

    for _ in range(ch.integer(0, profile.max_makes)):
        cls = ch.choice(schema.classes)
        attrs = tuple(
            (attribute, expression_for(kind))
            for attribute, kind in cls.attributes
            if ch.boolean(0.6)
        )
        actions.append(Make(cls.name, attrs))

    positive = [i + 1 for i, ce in enumerate(conditions) if not ce.negated]
    if positive and ch.boolean(profile.modify_rate):
        target = ch.choice(positive)
        cls = schema.class_named(conditions[target - 1].cls)
        updates = tuple(
            (attribute, expression_for(kind))
            for attribute, kind in cls.attributes
            if ch.boolean(0.5)
        )
        if not updates:
            attribute, kind = ch.choice(cls.attributes)
            updates = ((attribute, expression_for(kind)),)
        actions.append(Modify(target, updates))
    if positive and ch.boolean(profile.remove_rate):
        actions.append(Remove(ch.choice(positive)))
    if ch.boolean(profile.write_rate):
        values = [Constant(ch.choice(SYMBOL_POOL))]
        exported = sorted(bound)
        if exported and ch.boolean(0.6):
            values.append(VariableRef(ch.choice(exported)))
        actions.append(Write(tuple(values)))
    if ch.boolean(profile.halt_rate):
        actions.append(Halt())
    return tuple(actions)


def build_production(
    ch: Choices, profile: GeneratorProfile, schema: Schema, name: str
) -> Production:
    """Draw one valid production (first CE positive, bindings ordered)."""
    ce_count = ch.integer(1, profile.max_ces)
    bound: dict[str, str] = {}
    conditions = [
        _build_condition(ch, profile, schema, index, bound) for index in range(ce_count)
    ]
    actions = _build_actions(ch, profile, schema, conditions, bound)
    return Production(name, conditions, actions)


def build_stream(
    ch: Choices, profile: GeneratorProfile, schema: Schema
) -> tuple[StreamOp, ...]:
    """Draw a working-memory change stream matched to *schema*."""
    ops: list[StreamOp] = []
    live: list[int] = []
    slot = 0
    for _ in range(ch.integer(profile.min_stream, profile.max_stream)):
        if live and ch.boolean(profile.stream_remove_rate):
            victim = ch.choice(live)
            live.remove(victim)
            ops.append(("remove", victim))
        else:
            cls = ch.choice(schema.classes)
            attrs = {
                attribute: _value_for(ch, kind)
                for attribute, kind in cls.attributes
                if ch.boolean(profile.stream_attribute_rate)
            }
            ops.append(("add", slot, cls.name, attrs))
            live.append(slot)
            slot += 1
    return tuple(ops)


def build_case(
    ch: Choices,
    profile: GeneratorProfile = DEFAULT_PROFILE,
    case_seed: Optional[int] = None,
) -> FuzzCase:
    """Draw one complete fuzz case from any :class:`Choices` source."""
    schema = build_schema(ch, profile)
    rules = ch.integer(profile.min_rules, profile.max_rules)
    productions = tuple(
        build_production(ch, profile, schema, f"p{i}") for i in range(rules)
    )
    stream = build_stream(ch, profile, schema)
    return FuzzCase(
        productions=productions,
        literalizations=schema.literalizations(),
        stream=stream,
        profile=profile.name,
        case_seed=case_seed,
    )


def case_from_seed(profile: GeneratorProfile, seed: int) -> FuzzCase:
    """The seeded path: one deterministic case per (profile, seed).

    ``zlib.crc32`` mixes the profile name into the seed (``str.__hash__``
    is per-process randomised), so the same seed under different profiles
    explores different programs, and the same (profile, seed) pair
    reproduces bit-identically everywhere.
    """
    rng = random.Random(zlib.crc32(profile.name.encode()) * 2654435761 + seed)
    return build_case(Choices(rng), profile, case_seed=seed)


def fuzz_cases(profile: GeneratorProfile = DEFAULT_PROFILE):
    """A hypothesis strategy of :class:`FuzzCase` values.

    Imported lazily so the seeded CLI path never needs hypothesis
    installed.  The strategy drives :func:`build_case` through draws, so
    hypothesis shrinking minimises program *structure*.
    """
    from hypothesis import strategies as st

    @st.composite
    def cases(draw) -> FuzzCase:
        return build_case(_HypothesisChoices(draw, st), profile)

    return cases()


# ---------------------------------------------------------------------------
# The differential harness: every registered matcher
# ---------------------------------------------------------------------------

#: The serial matcher backends every case runs through.  ``compiled`` is
#: the generated kernel (``repro.kernel``); its inclusion makes every
#: fuzz case a differential check of the codegen against all six
#: interpreted matchers.
SERIAL_BACKENDS: tuple[str, ...] = (
    "naive",
    "treat",
    "rete",
    "rete-indexed",
    "oflazer",
    "compiled",
)


@dataclass(frozen=True)
class CaseRecord:
    """Everything observable about one backend's run of one case.

    Phase 1 applies the change stream op by op, snapshotting the
    conflict set after every change (the per-change bit-identity the
    paper's Section 2 semantics require); phase 2 runs recognize--act to
    quiescence or the cycle cap, recording the firing sequence, the
    conflict set after each cycle, the ``write`` output, and the final
    working memory.
    """

    stream_sets: tuple[frozenset, ...]
    fired: tuple[tuple[str, tuple[int, ...]], ...]
    cycle_sets: tuple[frozenset, ...]
    output: tuple[str, ...]
    final_memory: tuple[tuple[int, tuple], ...]
    halted: bool


class CaseCut(Exception):
    """A case's run passed the campaign's deadline (``time.monotonic``)."""


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise CaseCut


def drive_case(
    matcher,
    case: FuzzCase,
    strategy: str = "lex",
    max_cycles: int = 40,
    deadline: Optional[float] = None,
) -> CaseRecord:
    """Run *case* on *matcher* and reduce the run to a :class:`CaseRecord`;
    raise :class:`CaseCut` once *deadline* has passed after a stream op
    or a cycle."""
    system = ProductionSystem(case.program(), matcher=matcher, strategy=strategy)
    live: dict[int, object] = {}
    stream_sets = []
    for op in case.stream:
        if op[0] == "add":
            _, slot, cls, attrs = op
            live[slot] = system.add(cls, **attrs)
        else:
            system.remove_wme(live.pop(op[1]))
        stream_sets.append(system.conflict_set.snapshot())
        _check_deadline(deadline)
    fired = []
    cycle_sets = []
    while len(fired) < max_cycles:
        instantiation = system.step()
        if instantiation is None:
            break
        fired.append((instantiation.production.name, instantiation.timetags))
        cycle_sets.append(system.conflict_set.snapshot())
        _check_deadline(deadline)
    return CaseRecord(
        stream_sets=tuple(stream_sets),
        fired=tuple(fired),
        cycle_sets=tuple(cycle_sets),
        output=tuple(system.output),
        final_memory=tuple(
            (w.timetag, w.content_key()) for w in system.memory.snapshot()
        ),
        halted=system.halted,
    )


class MatcherFleet:
    """The backends the fuzzer checks; every matcher is rebuilt per case."""

    def __init__(
        self,
        workers: int = 2,
        serial: Sequence[str] = SERIAL_BACKENDS,
    ) -> None:
        self._serial = tuple(serial)
        self._workers = workers

    def backends(self) -> dict[str, Callable[[], object]]:
        """Label -> zero-argument matcher factory, fleet-wide."""
        factories = {name: partial(matcher_named, name) for name in self._serial}
        factories["parallel"] = partial(matcher_named, "parallel", workers=self._workers)
        return factories

    def labels(self) -> list[str]:
        return sorted(self.backends())


@dataclass
class CaseOutcome:
    """Verdict of one case across the fleet."""

    case: FuzzCase
    records: dict[str, CaseRecord] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    roundtrip: list[str] = field(default_factory=list)
    #: The deadline passed mid-run: no verdict, neither agreement nor a
    #: counterexample (``ok`` and ``kind`` describe only what ran).
    cut: bool = False

    @property
    def errors_agree(self) -> bool:
        """Every backend raised, and with the same error.

        A program that is uniformly invalid at runtime (e.g. a rule
        whose ``modify 1`` and ``remove 2`` alias the same WME) is
        *agreement*: the error, raised at the same point with the same
        message, is part of the observable semantics.  Only asymmetric
        errors -- some backends raise, others complete, or the messages
        differ -- are findings.
        """
        return (
            bool(self.errors)
            and not self.records
            and len(set(self.errors.values())) == 1
        )

    @property
    def ok(self) -> bool:
        if self.roundtrip:
            return False
        if self.errors:
            return self.errors_agree
        return len(set(self.records.values())) <= 1

    @property
    def kind(self) -> str:
        """What went wrong: ``ok``, ``roundtrip``, ``error``, ``mismatch``."""
        if self.roundtrip:
            return "roundtrip"
        if self.errors:
            return "ok" if self.errors_agree else "error"
        if len(set(self.records.values())) > 1:
            return "mismatch"
        return "ok"

    def divergences(self) -> list[str]:
        """Human-readable description of every disagreement."""
        problems = list(self.roundtrip)
        if not self.errors_agree:
            for name in sorted(self.errors):
                problems.append(f"{name}: raised {self.errors[name]}")
            if self.errors and self.records:
                for name in sorted(self.records):
                    problems.append(f"{name}: completed without error")
        names = sorted(self.records)
        if len(names) >= 2:
            reference = names[0]
            base = self.records[reference]
            for name in names[1:]:
                other = self.records[name]
                if other != base:
                    problems.append(_describe(reference, base, name, other))
        return problems


def _describe(ref_name: str, ref: CaseRecord, name: str, other: CaseRecord) -> str:
    if ref.stream_sets != other.stream_sets:
        for i, (a, b) in enumerate(zip(ref.stream_sets, other.stream_sets)):
            if a != b:
                extra = sorted(b - a)
                missing = sorted(a - b)
                return (
                    f"{name} vs {ref_name}: conflict set after stream op {i + 1} "
                    f"differs (extra {extra}, missing {missing})"
                )
    if ref.fired != other.fired:
        for i, (a, b) in enumerate(zip(ref.fired, other.fired)):
            if a != b:
                return f"{name} vs {ref_name}: cycle {i + 1} fired {b} != {a}"
        return f"{name} vs {ref_name}: fired {len(other.fired)} cycles != {len(ref.fired)}"
    if ref.cycle_sets != other.cycle_sets:
        for i, (a, b) in enumerate(zip(ref.cycle_sets, other.cycle_sets)):
            if a != b:
                extra = sorted(b - a)
                missing = sorted(a - b)
                return (
                    f"{name} vs {ref_name}: conflict set after cycle {i + 1} "
                    f"differs (extra {extra}, missing {missing})"
                )
    if ref.output != other.output:
        return f"{name} vs {ref_name}: output differs"
    if ref.final_memory != other.final_memory:
        return f"{name} vs {ref_name}: final working memory differs"
    return f"{name} vs {ref_name}: halt state differs"


def run_case(
    case: FuzzCase,
    backends: Mapping[str, Callable[[], object]],
    strategy: str = "lex",
    max_cycles: int = 40,
    deadline: Optional[float] = None,
) -> CaseOutcome:
    """One case through every backend; asymmetric exceptions are failures.

    A backend that *raises* on a program the others accept is as much a
    divergence as a wrong conflict set -- the fuzzer reports both kinds
    and the shrinker minimises both.  A program every backend rejects
    with the identical error is agreement (see
    :attr:`CaseOutcome.errors_agree`).  Past *deadline* the run stops
    at the next stream op, cycle or backend, marked ``cut``.
    """
    outcome = CaseOutcome(case=case)
    outcome.roundtrip = roundtrip_problems(case)
    for name in sorted(backends):
        try:
            _check_deadline(deadline)
            matcher = backends[name]()
            outcome.records[name] = drive_case(
                matcher, case, strategy=strategy, max_cycles=max_cycles, deadline=deadline
            )
        except CaseCut:
            outcome.cut = True
            break
        except Exception as error:  # noqa: BLE001 - any crash is a finding
            outcome.errors[name] = f"{type(error).__name__}: {error}"
    return outcome


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _rebuild(
    production: Production,
    conditions: Sequence[ConditionElement],
    actions: Sequence[Action],
) -> Optional[Production]:
    """Reconstruct a production, or None if the variant is invalid."""
    try:
        return Production(production.name, tuple(conditions), tuple(actions))
    except (ValidationError, Ops5Error):
        return None


def _without_ce(production: Production, index: int) -> Optional[Production]:
    """Drop CE *index*, remapping 1-based RHS references across the gap."""
    conditions = [ce for i, ce in enumerate(production.conditions) if i != index]
    if not conditions or conditions[0].negated:
        return None
    actions: list[Action] = []
    for action in production.actions:
        ce_index = getattr(action, "ce_index", None)
        if ce_index is None:
            actions.append(action)
        elif ce_index - 1 == index:
            continue  # action referenced the dropped CE
        elif ce_index - 1 > index:
            if isinstance(action, Remove):
                actions.append(Remove(ce_index - 1))
            else:
                actions.append(Modify(ce_index - 1, action.attributes))
        else:
            actions.append(action)
    return _rebuild(production, conditions, actions)


def _stream_without(stream: Sequence[StreamOp], index: int) -> tuple[StreamOp, ...]:
    """Drop stream op *index* and any remove depending on a dropped add."""
    dropped = stream[index]
    out = [op for i, op in enumerate(stream) if i != index]
    if dropped[0] == "add":
        out = [op for op in out if not (op[0] == "remove" and op[1] == dropped[1])]
    return tuple(out)


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Strictly smaller variants of *case*, biggest cuts first."""

    def with_productions(productions) -> FuzzCase:
        return FuzzCase(
            tuple(productions), case.literalizations, case.stream,
            case.profile, case.case_seed,
        )

    # Drop whole productions.
    if len(case.productions) > 1:
        for i in range(len(case.productions)):
            yield with_productions(
                [p for j, p in enumerate(case.productions) if j != i]
            )
    # Drop stream ops, tail first (later ops are least load-bearing).
    if len(case.stream) > 1:
        for i in reversed(range(len(case.stream))):
            shrunk = _stream_without(case.stream, i)
            if shrunk:
                yield FuzzCase(
                    case.productions, case.literalizations, shrunk,
                    case.profile, case.case_seed,
                )
    # Drop condition elements.
    for i, production in enumerate(case.productions):
        if len(production.conditions) > 1:
            for j in range(len(production.conditions)):
                variant = _without_ce(production, j)
                if variant is not None:
                    yield with_productions(
                        [variant if k == i else p for k, p in enumerate(case.productions)]
                    )
    # Drop actions.
    for i, production in enumerate(case.productions):
        for j in range(len(production.actions)):
            variant = _rebuild(
                production,
                production.conditions,
                [a for k, a in enumerate(production.actions) if k != j],
            )
            if variant is not None:
                yield with_productions(
                    [variant if k == i else p for k, p in enumerate(case.productions)]
                )
    # Drop individual attribute tests.
    for i, production in enumerate(case.productions):
        for j, ce in enumerate(production.conditions):
            if len(ce.tests) <= 1:
                continue
            for attribute in sorted(ce.tests):
                smaller = {a: t for a, t in ce.tests.items() if a != attribute}
                conditions = list(production.conditions)
                conditions[j] = ConditionElement(ce.cls, smaller, ce.negated)
                variant = _rebuild(production, conditions, production.actions)
                if variant is not None:
                    yield with_productions(
                        [variant if k == i else p for k, p in enumerate(case.productions)]
                    )
    # Drop attributes from stream adds.
    for i, op in enumerate(case.stream):
        if op[0] != "add" or not op[3]:
            continue
        for attribute in sorted(op[3]):
            attrs = {a: v for a, v in op[3].items() if a != attribute}
            stream = list(case.stream)
            stream[i] = ("add", op[1], op[2], attrs)
            yield FuzzCase(
                case.productions, case.literalizations, tuple(stream),
                case.profile, case.case_seed,
            )


def shrink_case(
    case: FuzzCase,
    failing: Callable[[FuzzCase], bool],
    max_attempts: int = 250,
    deadline: Optional[float] = None,
) -> tuple[FuzzCase, int]:
    """Greedy ddmin-style minimisation of a failing case.

    Repeatedly tries strictly smaller variants (*_candidates* order:
    whole productions, stream ops, CEs, actions, tests, attributes) and
    keeps any variant for which *failing* still holds, restarting the
    scan from the top after every success.  Stops at a fixpoint, the
    attempt budget, or the wall-clock *deadline* (``time.monotonic``
    value).  Returns the shrunk case and the number of evaluations.
    """
    attempts = 0
    improved = True
    while improved:
        improved = False
        for candidate in _candidates(case):
            if attempts >= max_attempts:
                return case, attempts
            if deadline is not None and time.monotonic() > deadline:
                return case, attempts
            attempts += 1
            try:
                still_failing = failing(candidate)
            except Exception:  # noqa: BLE001 - a crashing candidate still fails
                still_failing = True
            if still_failing:
                case = candidate
                improved = True
                break
    return case, attempts


# ---------------------------------------------------------------------------
# The fuzz campaign
# ---------------------------------------------------------------------------


@dataclass
class CounterExample:
    """One shrunk failing (ruleset, stream) pair, report-ready."""

    iteration: int
    case_seed: int
    kind: str
    divergences: list[str]
    original: FuzzCase
    shrunk: FuzzCase
    shrink_attempts: int

    def snapshot(self) -> dict:
        return {
            "iteration": self.iteration,
            "case_seed": self.case_seed,
            "kind": self.kind,
            "divergences": self.divergences,
            "original": self.original.snapshot(),
            "shrunk": self.shrunk.snapshot(),
            "shrink_attempts": self.shrink_attempts,
        }


@dataclass
class FuzzReport:
    """Outcome of one seeded, time-budgeted fuzz campaign."""

    seed: int
    profile: str
    budget: float
    elapsed: float
    iterations: int
    backends: list[str]
    counterexamples: list[CounterExample] = field(default_factory=list)
    #: Seed of the case the deadline cut off mid-run, if one was.
    unfinished: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def snapshot(self) -> dict:
        """JSON-ready form (the CI fuzz artifact)."""
        return {
            "schema": "repro.fuzz/1",
            "seed": self.seed,
            "profile": self.profile,
            "budget_seconds": self.budget,
            "elapsed_seconds": round(self.elapsed, 3),
            "iterations": self.iterations,
            "backends": self.backends,
            "mismatches": len(self.counterexamples),
            "counterexamples": [c.snapshot() for c in self.counterexamples],
            "unfinished_case_seed": self.unfinished,
        }


def _case_seed_for(seed: int, iteration: int) -> int:
    """Per-iteration case seed: reproducible independent of the budget."""
    return (seed * 1_000_003 + iteration) & 0xFFFFFFFF


def fuzz(
    seed: int = 0,
    budget: float = 60.0,
    profile: GeneratorProfile = DEFAULT_PROFILE,
    backends: Optional[Mapping[str, Callable[[], object]]] = None,
    workers: int = 2,
    max_cycles: int = 40,
    iterations: Optional[int] = None,
    shrink_attempts: int = 250,
    strategy: str = "lex",
    on_case: Optional[Callable[[int, CaseOutcome], None]] = None,
) -> FuzzReport:
    """Run a seeded fuzz campaign until the time *budget* (seconds) or
    *iterations* runs out; shrink and record every failure.

    Each iteration derives ``case_seed = _case_seed_for(seed, i)``, so a
    report row reproduces via :func:`case_from_seed` regardless of how
    far the budget let the original campaign run.  *backends* overrides
    the fleet (used by the injected-bug tests); by default every
    :class:`MatcherFleet` backend runs.  The budget is checked after
    every stream op and cycle, not only between cases: a case it cuts
    off is recorded as ``unfinished``, neither agreement nor a
    counterexample, and ends the campaign.
    """
    start = time.monotonic()
    deadline = start + budget
    if backends is None:
        backends = MatcherFleet(workers=workers).backends()
    report = FuzzReport(
        seed=seed,
        profile=profile.name,
        budget=budget,
        elapsed=0.0,
        iterations=0,
        backends=sorted(backends),
    )
    run = partial(
        run_case, backends=backends, strategy=strategy, max_cycles=max_cycles,
        deadline=deadline,
    )
    iteration = 0
    while time.monotonic() < deadline:
        if iterations is not None and iteration >= iterations:
            break
        case_seed = _case_seed_for(seed, iteration)
        case = case_from_seed(profile, case_seed)
        outcome = run(case)
        if outcome.cut:
            report.unfinished = case_seed
            break
        if on_case is not None:
            on_case(iteration, outcome)
        if not outcome.ok:
            def still_fails(candidate: FuzzCase) -> bool:
                verdict = run(candidate)
                return not (verdict.cut or verdict.ok)

            shrunk, attempts = shrink_case(
                case, still_fails, max_attempts=shrink_attempts, deadline=deadline
            )
            final = run(shrunk)
            if final.cut or final.ok:
                final = outcome
            report.counterexamples.append(
                CounterExample(
                    iteration=iteration,
                    case_seed=case_seed,
                    kind=final.kind,
                    divergences=final.divergences(),
                    original=case,
                    shrunk=shrunk,
                    shrink_attempts=attempts,
                )
            )
        iteration += 1
    report.iterations = iteration
    report.elapsed = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# System-class program emission (the six runnable paper workloads)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemProgram:
    """A generated, runnable, terminating system-class OPS5 program.

    Structure: per stage and branch a *mark* rule joins the lane's task
    to a typed item (negated-CE deduplicated), an *advance* rule with
    branch-count fan-in moves the lane's task to the next stage once all
    marks exist, a *done* rule retires finished tasks, a *halt* rule
    fires when no task remains, and ``distractors`` rules are affected
    by every task change without ever firing -- which is what calibrates
    the measured affected-productions-per-change to the paper's Table
    statistics for the system.
    """

    name: str
    source: str
    setup: tuple[tuple[str, dict], ...]
    stages: int
    branches: int
    lanes: int
    distractors: int
    rule_count: int
    max_cycles: int

    def expected_firings(self) -> int:
        """Exact recognize--act cycles a full run takes."""
        # Per lane: every (stage, branch) mark, one advance per stage,
        # one done; plus the single final halt rule firing.
        return self.lanes * (self.stages * (self.branches + 1) + 1) + 1


def emit_system_program(
    profile: SystemProfile, lanes: Optional[int] = None
) -> SystemProgram:
    """Emit one paper system's runnable program from its profile.

    Deterministic (no randomness): the structure is a closed-form
    function of the profile's knobs, so the committed program modules
    are stable across runs and platforms.
    """
    stages = max(2, profile.heavy_depth + 1)
    branches = max(2, round(profile.heavy_fanout))
    lane_count = lanes if lanes is not None else max(2, round(profile.changes_per_firing))
    distractors = max(0, round(profile.affected_mean) - branches - 2)
    name = profile.name

    productions: list[Production] = []
    for stage in range(stages):
        for branch in range(branches):
            tests: dict[str, Test] = {
                "lane": VariableTest("l"),
                "kind": ConstantTest(f"k{branch}"),
            }
            if branch % 3 == 2:
                # Predicate coverage: item values are 10+branch, so > 5
                # always passes -- structure, not filtering.
                tests["val"] = PredicateTest(Predicate.GT, ConstantTest(5))
            productions.append(
                Production(
                    f"{name}-s{stage}-b{branch}",
                    (
                        ConditionElement(
                            "task",
                            {"stage": ConstantTest(stage), "lane": VariableTest("l")},
                        ),
                        ConditionElement("item", tests),
                        ConditionElement(
                            "mark",
                            {
                                "stage": ConstantTest(stage),
                                "lane": VariableTest("l"),
                                "branch": ConstantTest(branch),
                            },
                            negated=True,
                        ),
                    ),
                    (
                        Make(
                            "mark",
                            (
                                ("stage", Constant(stage)),
                                ("lane", VariableRef("l")),
                                ("branch", Constant(branch)),
                            ),
                        ),
                    ),
                )
            )
        # Advance: fan-in of *branches* mark CEs plus the task anchor.
        advance_ces: list[ConditionElement] = [
            ConditionElement(
                "task", {"stage": ConstantTest(stage), "lane": VariableTest("l")}
            )
        ]
        for branch in range(branches):
            advance_ces.append(
                ConditionElement(
                    "mark",
                    {
                        "stage": ConstantTest(stage),
                        "lane": VariableTest("l"),
                        "branch": ConstantTest(branch),
                    },
                )
            )
        productions.append(
            Production(
                f"{name}-advance-{stage}",
                tuple(advance_ces),
                (Modify(1, (("stage", Constant(stage + 1)),)),),
            )
        )
    productions.append(
        Production(
            f"{name}-done",
            (
                ConditionElement(
                    "task", {"stage": ConstantTest(stages), "lane": VariableTest("l")}
                ),
            ),
            (Write((Constant("done"), VariableRef("l"))), Remove(1)),
        )
    )
    productions.append(
        Production(
            f"{name}-halt",
            (
                ConditionElement("ctx", {"phase": ConstantTest("run")}),
                ConditionElement(
                    "task",
                    {"stage": VariableTest("s"), "lane": VariableTest("l")},
                    negated=True,
                ),
            ),
            (Modify(1, (("phase", Constant("end")),)), Halt()),
        )
    )
    # Distractors: affected by every task change, never satisfied (no
    # item carries their kind), so they load the alpha network exactly
    # the way the paper's ~30-affected-per-change statistic describes.
    for index in range(distractors):
        productions.append(
            Production(
                f"{name}-watch-{index}",
                (
                    ConditionElement(
                        "task",
                        {"stage": VariableTest("s"), "lane": VariableTest("l")},
                    ),
                    ConditionElement(
                        "item",
                        {"lane": VariableTest("l"), "kind": ConstantTest(f"x{index}")},
                    ),
                ),
                (Make("log", (("tag", Constant(index)),)),),
            )
        )

    program = Program(
        productions=productions,
        literalizations={
            "task": ("stage", "lane"),
            "item": ("lane", "kind", "val"),
            "mark": ("stage", "lane", "branch"),
            "ctx": ("phase",),
            "log": ("tag",),
        },
    )

    setup: list[tuple[str, dict]] = [("ctx", {"phase": "run"})]
    for lane in range(lane_count):
        setup.append(("task", {"stage": 0, "lane": f"lane{lane}"}))
        for branch in range(branches):
            setup.append(
                ("item", {"lane": f"lane{lane}", "kind": f"k{branch}", "val": 10 + branch})
            )

    firings = lane_count * (stages * (branches + 1) + 1) + 1
    return SystemProgram(
        name=name,
        source=unparse_program(program),
        setup=tuple(setup),
        stages=stages,
        branches=branches,
        lanes=lane_count,
        distractors=distractors,
        rule_count=len(productions),
        max_cycles=firings + 16,
    )
