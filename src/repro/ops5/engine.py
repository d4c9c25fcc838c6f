"""The recognize--act interpreter.

:class:`ProductionSystem` ties together a working memory, a matcher, and
a conflict-resolution strategy, and runs the OPS5 three-phase cycle:

1. **Match** -- performed incrementally: every working-memory change is
   routed through the matcher, so by the time a cycle "starts" the
   conflict set is already current.
2. **Conflict resolution** -- the strategy picks one un-fired
   instantiation; if none exists the interpreter halts.
3. **Act** -- the selected production's actions run in order.  ``modify``
   is executed as *remove + make* with a fresh timetag, exactly as in
   OPS5, and each change takes effect immediately (later actions in the
   same RHS see it).

The engine exposes an :class:`EngineListener` hook so the trace module
can observe cycles and changes without the engine knowing about traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Iterable, Optional, Sequence

from .actions import Make, Modify
from .conflict import Strategy, strategy_named
from .errors import ExecutionError, DuplicateProductionError, Ops5Error
from .matcher import Matcher
from .parser import Program, parse_program
from .production import Instantiation, Production
from .wme import Layout, Value, WME, layout_of

#: What an attribute value may be: an OPS5 symbol or number.
_VALUE_TYPES = (str, int, float)


def _check_values(attributes) -> None:
    """Refuse a client's attributes unless every value is an OPS5 value."""
    if attributes is not None and not isinstance(attributes, Mapping):
        raise ExecutionError(f"attributes must map names to values, got {attributes!r}")
    for name, value in (attributes or {}).items():
        # Exact types first: the common case costs one probe per value.
        # NaN is refused too: unequal to itself, it would join only by
        # identity, and only in the hashed matchers.
        if (type(value) not in _VALUE_TYPES and (
            isinstance(value, bool) or not isinstance(value, _VALUE_TYPES)
        )) or (isinstance(value, float) and value != value):
            raise ExecutionError(
                f"attribute {name!r} value {value!r} is neither a symbol nor a number"
            )


def _claim_layouts(declared: Mapping, productions: Sequence[Production]) -> dict[str, Layout]:
    named: dict[str, list[str]] = {cls: list(names) for cls, names in declared.items()}
    for production in productions:
        conditions = production.conditions
        for ce in conditions:
            named.setdefault(ce.cls, []).extend(ce.tests)
        for action in production.actions:
            if isinstance(action, (Make, Modify)):
                cls = action.cls if isinstance(action, Make) else conditions[action.ce_index - 1].cls
                named.setdefault(cls, []).extend(attribute for attribute, _e in action.attributes)
    return {cls: layout_of(cls, names) for cls, names in named.items()}


#: The halt reason of an engine that found no un-fired instantiation.
QUIESCENT = "no satisfied production"

#: Fields of each change kind of an ``apply_changes`` batch, kind included.
_CHANGE_ARITY = {"assert": 3, "retract": 2, "modify": 3}


#: The matcher backends :func:`matcher_named` knows how to build.
MATCHER_NAMES = (
    "naive",
    "treat",
    "rete",
    "rete-indexed",
    "oflazer",
    "compiled",
    "parallel",
)

#: The backend wherever none is named (engine, CLI, served sessions): the best serial.
DEFAULT_MATCHER = "compiled"

#: One-line description per backend, for CLI listings (`repro matchers`).
MATCHER_DESCRIPTIONS = {
    "naive": "re-match every production from scratch each cycle (reference)",
    "treat": "TREAT: per-CE alpha memories, no beta state, per-cycle joins",
    "rete": "node-walking Rete with incremental beta memories",
    "rete-indexed": "Rete with hash-indexed join memories",
    "oflazer": "Oflazer-style combination matcher (counter-based join states)",
    "compiled": "per-ruleset generated kernel over hashed alpha stores (src/repro/kernel)",
    "parallel": "compiled over a partitioned ruleset: --workers kernels, one conflict set (loss of node sharing)",
}


def matcher_named(name: str, recorder=None, **kwargs) -> Matcher:
    """Build a matcher backend by name (see :data:`MATCHER_NAMES`).

    Keyword arguments are forwarded to the backend's constructor --
    e.g. ``matcher_named("rete", listener=...)``; ``"parallel"`` is
    ``CompiledMatcher(partitions=...)`` under its old keywords
    (``matcher_named("parallel", workers=4)``).  An enabled *recorder*
    is wired in where the backend can use it: ``kernel:compile`` spans
    for ``compiled`` / ``parallel``, per-activation spans through a
    :class:`~repro.rete.RecorderListener` for ``rete`` /
    ``rete-indexed``; the other backends ignore it.  Imports are deferred
    so the ``ops5`` package keeps no static dependency on any matcher
    package.
    """
    key = name.lower()
    if key == "naive":
        from ..naive import NaiveMatcher

        return NaiveMatcher(**kwargs)
    if key == "treat":
        from ..treat import TreatMatcher

        return TreatMatcher(**kwargs)
    traced = recorder is not None and recorder.enabled
    if key in ("rete", "rete-indexed"):
        from ..rete.network import ReteNetwork

        if key == "rete-indexed":
            kwargs["indexed"] = True
        if traced:
            from ..rete.instrument import RecorderListener

            kwargs["listener"] = RecorderListener(recorder)
        return ReteNetwork(**kwargs)
    if key == "oflazer":
        from ..oflazer import CombinationMatcher

        return CombinationMatcher(**kwargs)
    if key in ("compiled", "parallel"):
        from ..kernel.matcher import CompiledMatcher

        if key == "parallel":
            kwargs["partitions"] = _parallel_partitions(
                kwargs.pop("workers", None), kwargs.pop("transport", "local")
            )
        if traced:
            kwargs["recorder"] = recorder
        return CompiledMatcher(**kwargs)
    raise Ops5Error(
        f"unknown matcher backend {name!r}; known: {', '.join(MATCHER_NAMES)}"
    )


def _parallel_partitions(workers: Optional[int], transport: str) -> int:
    """``parallel``'s old spelling of ``CompiledMatcher(partitions=)``.

    *workers* is the partition count: None means 2, and 0 and 1 both
    mean one.  ``"local"`` is the one *transport* left; the removed
    process transports raise.
    """
    if transport != "local":
        raise Ops5Error(
            f"transport {transport!r} is not available: the process "
            "transports (pipe, ring, auto) were removed; partitions "
            "live in the caller's address space ('local')"
        )
    if workers is None:
        return 2
    if workers < 0:
        raise Ops5Error("workers must be >= 0")
    return max(1, workers)


class EngineListener:
    """Observer hooks for the recognize--act loop.

    Subclass and override what you need; all methods default to no-ops.
    The trace generator (:mod:`repro.trace.generate`) is the main client.
    """

    def on_cycle(self, cycle: int, fired: Instantiation) -> None:
        """Called after conflict resolution, before the RHS runs."""

    def on_change(self, cycle: int, kind: str, wme: WME) -> None:
        """Called for every working-memory change ('add' or 'remove')."""

    def on_halt(self, cycle: int, reason: str) -> None:
        """Called once when the run stops."""


@dataclass(slots=True)
class CycleRecord:
    """What happened on one recognize--act cycle."""

    cycle: int
    production: str
    timetags: tuple[int, ...]
    adds: int = 0
    removes: int = 0

    @property
    def changes(self) -> int:
        return self.adds + self.removes


#: One change in an :meth:`ProductionSystem.apply_changes` batch:
#: ``("assert", cls, attrs)``, ``("retract", timetag)``, or
#: ``("modify", timetag, updates)``.
ChangeSpec = tuple


@dataclass
class BatchResult:
    """Summary of one :meth:`ProductionSystem.apply_changes` batch."""

    #: WMEs inserted by this batch, in application order (``assert``
    #: contributes the new element, ``modify`` its replacement).
    added: list[WME] = field(default_factory=list)
    #: Timetags retracted by this batch (``retract`` + the removed half
    #: of every ``modify``).
    removed: list[int] = field(default_factory=list)

    @property
    def timetags(self) -> list[int]:
        """Timetags of the inserted elements, in application order."""
        return [wme.timetag for wme in self.added]

    @property
    def total_changes(self) -> int:
        """WME changes applied (each modify counts as remove + add)."""
        return len(self.added) + len(self.removed)


@dataclass
class RunResult:
    """Summary of a :meth:`ProductionSystem.run` call."""

    fired: int
    halted: bool
    halt_reason: str
    cycles: list[CycleRecord] = field(default_factory=list)
    output: list[str] = field(default_factory=list)

    @property
    def total_changes(self) -> int:
        return sum(c.changes for c in self.cycles)

    @property
    def mean_changes_per_firing(self) -> float:
        """Average WME changes per production firing (paper: ~2.5)."""
        if not self.cycles:
            return 0.0
        return self.total_changes / len(self.cycles)


class ProductionSystem:
    """An OPS5 interpreter over a pluggable matcher.

    Parameters
    ----------
    productions:
        A :class:`~repro.ops5.parser.Program`, OPS5 source text, or an
        iterable of :class:`Production` objects.
    matcher:
        A :class:`Matcher` instance, or a backend name from
        :data:`MATCHER_NAMES` ("rete", "treat", "parallel", ...).
        Defaults to :data:`DEFAULT_MATCHER`, the compiled kernel.
    strategy:
        "lex" (default), "mea", or a :class:`Strategy` instance.
    listener:
        Optional :class:`EngineListener`; without one (the default) a
        change or a firing pays one ``is None`` test, and no call.
    recorder:
        Optional :class:`~repro.obs.Recorder`.  When attached and
        enabled, the engine records a span per recognize--act phase
        (conflict resolution, RHS execution) and an instant event per
        working-memory change.  Defaults to the shared disabled
        recorder, whose cost is a single attribute check.
    history:
        Keep every :class:`CycleRecord` of every run in :attr:`cycles`
        and every per-change row in the matcher's
        :attr:`~repro.ops5.matcher.MatchStats.changes` (what
        :mod:`repro.analysis` tabulates).  Off by default: an engine
        then retains O(working memory), not O(changes ever made) --
        each :meth:`run` still returns its own cycles, and the lifetime
        counters and means are running sums.
    """

    def __init__(
        self,
        productions: Program | str | Iterable[Production] = (),
        matcher: Matcher | str = DEFAULT_MATCHER,
        strategy: Strategy | str = "lex",
        listener: EngineListener | None = None,
        recorder=None,
        history: bool = False,
    ) -> None:
        if isinstance(matcher, str):
            matcher = matcher_named(matcher)
        self.matcher = matcher
        self.strategy = strategy_named(strategy) if isinstance(strategy, str) else strategy
        self.listener = listener
        if recorder is None:
            from ..obs.recorder import NULL_RECORDER  # layering: obs depends on nothing here

            recorder = NULL_RECORDER
        self.recorder = recorder
        #: Lifetime working-memory changes routed through the matcher
        #: (adds + removes, never reset -- like timetags).  The matcher
        #: counts the same stream from the other end; the observability
        #: snapshot cross-checks the two (see repro.obs.metrics).
        self.total_wme_changes = 0
        #: Lifetime production firings (survives reset(), unlike `cycle`).
        self.total_firings = 0
        self.memory = matcher.memory
        self.output: list[str] = []
        self._fired_keys: set[tuple] = set()
        self._halted = False
        self.cycle = 0
        #: Every cycle since construction or :meth:`reset`, when the
        #: caller asked for ``history``; otherwise None.
        self.cycles: list[CycleRecord] | None = None
        if history:
            self.cycles = []
            matcher.peek_stats().keep_rows()

        #: ``literalize`` declarations from the loaded program; WMEs of a
        #: declared class are checked against them on insertion.
        self.literalizations: dict[str, tuple[str, ...]] = {}
        if isinstance(productions, str):
            productions = parse_program(productions)
        if isinstance(productions, Program):
            self.literalizations = dict(productions.literalizations)
            productions = productions.productions
        self._declared = {
            cls: frozenset(attrs) for cls, attrs in self.literalizations.items()
        }
        productions = list(productions)
        #: The layout of each class the ruleset names (``ops5.wme``),
        #: fixed from its ``literalize``, else from every attribute the
        #: rules test, make or modify, and held while the engine lives.
        self.layouts = _claim_layouts(self.literalizations, productions)
        for production in productions:
            self.add_production(production)

    # -- program and memory management ------------------------------------

    def add_production(self, production: Production) -> None:
        """Add a rule; it is matched against current working memory."""
        if production.name in self.matcher.production_names():
            raise DuplicateProductionError(production.name)
        self.matcher.add_production(production)

    def remove_production(self, name: str) -> None:
        """Unregister the named rule and retract its instantiations."""
        self.matcher.remove_production(name)

    def add(self, cls: str, /, **attributes: Value) -> WME:
        """Create and insert a WME: ``ps.add("block", color="red")``."""
        return self.add_wme(WME(cls, attributes))

    def add_wme(self, wme: WME) -> WME:
        """Insert a prepared WME into working memory and the matcher.

        If the WME's class was ``literalize``d, its attributes must all
        be declared (the OPS5 interpreter's element check).
        """
        declared = self._declared.get(wme.cls)
        if declared is not None and not declared.issuperset(wme._order):
            raise ExecutionError(
                f"WME of class {wme.cls!r} uses undeclared attribute(s) "
                f"{sorted(wme.attributes.keys() - declared)}; "
                f"literalized: {list(self.literalizations[wme.cls])}"
            )
        self.memory.add(wme)
        self.matcher.add_wme(wme)
        self.total_wme_changes += 1
        if self.recorder.enabled:
            self.recorder.instant("wm:add", "wm", wme_class=wme.cls, timetag=wme.timetag)
        if self.listener is not None:
            self.listener.on_change(self.cycle, "add", wme)
        return wme

    def remove_wme(self, wme: WME) -> None:
        """Delete a WME from working memory and the matcher."""
        self.memory.remove(wme)
        self.matcher.remove_wme(wme)
        self.total_wme_changes += 1
        if self.recorder.enabled:
            self.recorder.instant("wm:remove", "wm", wme_class=wme.cls, timetag=wme.timetag)
        if self.listener is not None:
            self.listener.on_change(self.cycle, "remove", wme)

    def load_memory(self, specs: Sequence[tuple[str, dict[str, Value]]]) -> list[WME]:
        """Bulk-insert (class, attributes) pairs (see ``parse_wme_specs``)."""
        return [self.add_wme(WME(cls, attrs)) for cls, attrs in specs]

    def apply_changes(self, changes: Sequence[ChangeSpec]) -> BatchResult:
        """Apply a batch of working-memory changes without firing rules.

        This is the serving layer's ingestion entry point
        (:mod:`repro.serve`): a batch is a sequence of change specs --

        * ``("assert", cls, attributes)`` -- insert a new element;
        * ``("retract", timetag)`` -- remove the element with *timetag*;
        * ``("modify", timetag, updates)`` -- OPS5 remove + make with a
          fresh timetag, exactly like a RHS ``modify``.

        Changes are applied strictly in sequence, so splitting one
        logical stream of changes into batches of any size -- or sending
        it through a server session in several requests -- yields
        bit-identical working memory and (after a subsequent
        :meth:`run`) a bit-identical firing sequence.  Nothing fires
        here: conflict resolution happens only in :meth:`step`/:meth:`run`,
        which is what keeps results independent of batch boundaries.

        An engine that ran out of satisfied productions is *resumed* by
        a new batch (see :meth:`resume`): quiescence is a statement
        about the old working memory, not about the new one.  A ``halt``
        action's stop stays sticky -- the program asked to stop.

        Batches arrive from clients, so the whole batch is checked by
        :meth:`check_changes` first and refused with
        :class:`ExecutionError` before it touches any state -- working
        memory, the conflict set and the timetag counter -- if any change
        is malformed.  What the check cannot see is a timetag that names
        no live element: that ``retract`` or ``modify`` fails *mid-batch*,
        after the changes before it landed.  The trusted in-process path
        (:meth:`add`, :meth:`add_wme`, RHS actions) is not checked.
        """
        self.check_changes(changes)
        if self._halted and self._halt_reason == QUIESCENT:
            self.resume()
        result = BatchResult()
        for change in changes:
            kind = change[0]
            if kind == "assert":
                result.added.append(self.add_wme(WME(change[1], change[2])))
            elif kind == "retract":
                wme = self.memory.by_timetag(change[1])
                self.remove_wme(wme)
                result.removed.append(wme.timetag)
            else:
                _, timetag, updates = change
                wme = self.memory.by_timetag(timetag)
                replacement = wme.with_updates(updates or {})
                self.remove_wme(wme)
                result.removed.append(timetag)
                result.added.append(self.add_wme(replacement))
        return result

    def check_changes(self, changes: Sequence[ChangeSpec]) -> None:
        """Raise :class:`ExecutionError` unless every change of *changes*
        can be applied: a known kind with its number of fields, a
        non-empty class symbol, an ``int`` timetag (not a ``bool``), and
        attribute values that are OPS5 values -- a ``str``, ``int`` or
        ``float``, never a ``bool`` (the rule ``validate_engine_state``
        applies to a checkpoint).  Touches nothing."""
        for change in changes:
            kind = change[0] if change else None
            arity = _CHANGE_ARITY.get(kind) if isinstance(kind, str) else None
            if arity is None:
                raise ExecutionError(
                    f"unknown change kind {kind!r}; expected 'assert', 'retract', or 'modify'"
                )
            if len(change) != arity:
                raise ExecutionError(
                    f"a {kind!r} change takes {arity - 1} field(s) after its kind, "
                    f"got {list(change[1:])!r}"
                )
            if kind == "assert":
                if not isinstance(change[1], str) or not change[1]:
                    raise ExecutionError(
                        f"WME class must be a non-empty symbol, got {change[1]!r}"
                    )
            elif type(change[1]) is not int:  # a bool would name timetag 1 or 0
                raise ExecutionError(f"timetag must be an integer, got {change[1]!r}")
            if arity == 3:
                _check_values(change[2])

    def reset(self) -> None:
        """Clear working memory, refraction memory, and run state.

        The compiled match network (the expensive part) is kept, so one
        engine can run many scenarios: ``reset()``, load new memory,
        ``run()`` again.  Timetags keep increasing across resets -- they
        are never reused.
        """
        for wme in self.memory.snapshot():
            self.remove_wme(wme)
        self._fired_keys.clear()
        self._halted = False
        self._halt_reason = "running"
        self.cycle = 0
        if self.cycles is not None:
            self.cycles = []
        self.output = []

    # -- state checkpoint / restore (session migration) --------------------

    #: Version tag carried by every exported state blob.
    STATE_SCHEMA = "repro.engine-state/1"

    def export_state(self, encode=None):
        """Snapshot everything a fresh engine needs to continue this run.

        The blob is JSON-serialisable and matcher-independent: working
        memory with *original* timetags, the refraction memory (fired
        instantiation keys, bar those naming a removed timetag: they can
        never match again), the recognize--act counters, halt state,
        and accumulated ``write`` output.  Match state (alpha rows, join
        indexes, conflict set) is deliberately excluded -- it is a pure
        function of (ruleset, working memory) and re-derives on restore,
        which is what keeps the blob O(working memory) and lets the
        restoring host pick any matcher backend.

        This is the serve layer's session-migration and checkpoint
        payload.  With *encode* (a checkpoint's encoder), the blob goes
        to it as built and its result is returned.  Each row's attribute
        dict is built from its record, in the order the element was given
        them, so nothing a blob holds aliases working memory.
        """
        state = {
            "schema": self.STATE_SCHEMA,
            "wmes": [[w.timetag, w.cls, w.as_dict()] for w in self.memory.snapshot()],
            "fired": sorted(
                [name, list(tags)] for name, tags in self._live(self._fired_keys)
            ),
            "output": list(self.output),
            **self._run_state(),
        }
        return state if encode is None else encode(state)

    def _run_state(self) -> dict:
        """The O(1) part of a state blob: counters and halt state."""
        return {
            "next_timetag": self.memory.next_timetag,
            "cycle": self.cycle,
            "total_firings": self.total_firings,
            "total_wme_changes": self.total_wme_changes,
            "halted": self._halted,
            "halt_reason": self._halt_reason,
        }

    #: Version tag of the incremental form of a state blob.
    DELTA_SCHEMA = "repro.engine-delta/1"

    def export_delta(self, added, removed, fired, output_from: int, encode=None):
        """What :meth:`export_state` says now that it did not say at an
        earlier export, from the *net* changes a listener recorded in
        between: WMEs *added* and still live, timetags *removed* that
        the earlier blob held, instantiation keys *fired* (the live ones,
        as in the state), and ``write`` lines from index *output_from*
        on.  Costs what changed, not what working memory holds;
        ``repro.serve.durability.fold`` applies it.  *encode* is
        :meth:`export_state`'s.
        """
        delta = {
            "schema": self.DELTA_SCHEMA,
            "added": [[w.timetag, w.cls, w.as_dict()] for w in added],
            "removed": list(removed),
            "fired": [[name, list(tags)] for name, tags in self._live(fired)],
            "output": self.output[output_from:],
            **self._run_state(),
        }
        return delta if encode is None else encode(delta)

    def restore_state(self, state: dict) -> None:
        """Rebuild a run from :meth:`export_state` on this (fresh) engine.

        The engine must hold the same program and an empty working
        memory.  WMEs are re-inserted with their original timetags (see
        :meth:`WorkingMemory.adopt`) through the matcher, so the
        conflict set re-derives; together with the restored refraction
        keys, the next :meth:`run` continues the firing sequence
        bit-identically.

        Change counters restart at the replayed-WME count rather than
        the exported lifetime value: the engine and the matcher count
        the same change stream from opposite ends (the invariant
        ``repro.obs.metrics.consistency_problems`` checks), and the new
        matcher has only seen the replay.  The exported lifetime totals
        stay available to callers from the blob itself.
        """
        if state.get("schema") != self.STATE_SCHEMA:
            raise ExecutionError(
                f"cannot restore state schema {state.get('schema')!r}; "
                f"expected {self.STATE_SCHEMA!r}"
            )
        if len(self.memory):
            raise ExecutionError(
                "restore_state requires an empty working memory; "
                "use a fresh engine (or reset() first)"
            )
        for timetag, cls, attrs in state["wmes"]:
            wme = WME(cls, attrs)
            wme.timetag = int(timetag)
            self.memory.adopt(wme)
            self.matcher.add_wme(wme)
        self.memory.reserve_timetags(int(state["next_timetag"]))
        self._fired_keys = {
            (name, tuple(timetags)) for name, timetags in state["fired"]
        }
        self.cycle = int(state["cycle"])
        self.total_firings = int(state["total_firings"])
        self.total_wme_changes = len(state["wmes"])
        self._halted = bool(state["halted"])
        self._halt_reason = state["halt_reason"]
        self.output = list(state["output"])

    def resume(self) -> None:
        """Clear the halted flag so further changes can drive new cycles.

        Long-running services alternate ingestion and run-to-quiescence
        on one engine; a quiescence halt only describes the working
        memory that produced it (:meth:`run`, :meth:`step` and a batch
        re-open one themselves).  Refraction memory is kept: resuming
        never re-fires an instantiation that already fired.
        """
        self._halted = False
        self._halt_reason = "running"

    def _wake(self) -> None:
        """Re-open a quiescence halt once the conflict set has gained a
        member since it (changes by any path may satisfy a production);
        with nothing new it stands.  A ``halt`` action stays sticky."""
        if self._halted and self._halt_reason == QUIESCENT:
            if self.conflict_set.total_inserts != self._quiesced_at:
                self.resume()

    _halt_reason = "running"
    #: The conflict set's ``total_inserts`` at the last quiescence halt.
    _quiesced_at: Optional[int] = None

    def halt(self) -> None:
        """Stop after the current firing (what a ``halt`` action calls)."""
        self._halted = True
        self._halt_reason = "halt action"

    # -- the recognize--act loop -------------------------------------------

    @property
    def conflict_set(self):
        """The matcher's live conflict set (satisfied instantiations)."""
        return self.matcher.conflict_set

    @property
    def halted(self) -> bool:
        """True once a halt action ran or no production was satisfied."""
        return self._halted

    def step(self) -> Optional[Instantiation]:
        """Run one recognize--act cycle; return the fired instantiation.

        Returns None (and marks the engine halted) when the conflict set
        holds no un-fired instantiation, or after a ``halt`` action.
        """
        self._wake()
        fired = self._cycle()
        return fired[0] if fired else None

    def _cycle(self) -> Optional[tuple[Instantiation, CycleRecord]]:
        """One cycle: the fired instantiation and its record, or None."""
        if self._halted:
            return None
        # Branch (rather than rely on the null span) because this is
        # the engine's innermost loop: disabled observability must not
        # even build the span's kwargs.
        conflict_set = self.matcher.conflict_set
        if self.recorder.enabled:
            with self.recorder.span("select", "engine", cycle=self.cycle + 1):
                selected = self.strategy.select(
                    conflict_set, self._fired_keys.__contains__
                )
        else:
            selected = self.strategy.select(conflict_set, self._fired_keys.__contains__)
        if selected is None:
            self._halted = True
            self._halt_reason = QUIESCENT
            self._quiesced_at = conflict_set.total_inserts
            if self.listener is not None:
                self.listener.on_halt(self.cycle, QUIESCENT)
            return None
        self.cycle += 1
        self.total_firings += 1
        self._fired_keys.add(selected.key)
        if len(self._fired_keys) >= self._refraction_gc_threshold:
            self._prune_refraction_memory()
        record = CycleRecord(self.cycle, selected.production.name, selected.timetags)
        if self.cycles is not None:
            self.cycles.append(record)
        if self.listener is not None:
            self.listener.on_cycle(self.cycle, selected)
        if self.recorder.enabled:
            with self.recorder.span(
                "fire", "engine", cycle=self.cycle, production=selected.production.name
            ):
                selected.production.fire(self, selected.wmes, record)
        else:
            selected.production.fire(self, selected.wmes, record)
        if self._halted and self.listener is not None:
            self.listener.on_halt(self.cycle, "halt action")
        return selected, record

    def run(self, max_cycles: Optional[int] = None) -> RunResult:
        """Run until halt (or *max_cycles* firings); return a summary."""
        cycles: list[CycleRecord] = []
        if max_cycles is None or max_cycles > 0:
            self._wake()
        while not self._halted and (max_cycles is None or len(cycles) < max_cycles):
            fired = self._cycle()
            if fired is None:
                break
            cycles.append(fired[1])
        reason = self._halt_reason if self._halted else "cycle limit"
        return RunResult(
            fired=len(cycles),
            halted=self._halted,
            halt_reason=reason,
            cycles=cycles,
            output=list(self.output),
        )

    # -- refraction memory ---------------------------------------------------

    #: Prune the fired-instantiation set once it reaches this size.
    _refraction_gc_threshold = 512

    def _live(self, keys) -> list:
        """The refraction *keys* whose timetags are all in working memory."""
        live = self.memory.has_timetag
        return [key for key in keys if all(map(live, key[1]))]

    def _prune_refraction_memory(self) -> None:
        """Drop fired keys that can never match again.

        Refraction must remember every fired instantiation -- but an
        instantiation whose WMEs include a timetag no longer in working
        memory can never re-enter the conflict set (timetags are never
        reused), so its key is dead weight.  Long-running systems would
        otherwise leak memory proportional to total firings.  Liveness is
        a point read per timetag, so a prune costs O(fired keys), not
        O(working memory).
        """
        self._fired_keys = set(self._live(self._fired_keys))
        # Avoid thrashing when most keys are still live: next GC only
        # after the set grows substantially again.
        self._refraction_gc_threshold = max(512, 2 * len(self._fired_keys))
