"""The structured event/span recorder at the heart of ``repro.obs``.

Every live layer of the system -- the engine's recognize--act cycle,
the Rete network's node activations, the compiled kernel's
(re)builds, the serve layer's request lifecycle -- reports into one
:class:`Recorder`, producing a single timeline that the exporters
(:mod:`repro.obs.export`) can turn into a JSONL event log or a Chrome
trace-event file for Perfetto.

Design constraints, in order:

1. **Near-zero cost when disabled.**  The paper's numbers (50-100
   instructions per node activation, Section 4) mean instrumentation
   overhead is a first-class correctness concern: a recorder that taxes
   the disabled path would corrupt every future measurement.  A
   disabled recorder's methods return after a single attribute check,
   ``span`` hands back one shared no-op context manager, and genuinely
   hot paths (per-activation, per-WME-change) guard with
   ``if recorder.enabled:`` so the disabled cost is one branch.
   ``benchmarks/bench_obs_overhead.py`` pins this down.
2. **One clock.**  All timestamps come from ``time.perf_counter_ns``
   relative to the recorder's epoch, so events recorded by different
   layers (and externally timed spans handed in via :meth:`complete`)
   land on one coherent timeline.
3. **Plain data out.**  Events are small dataclasses; exporters and
   tests consume them directly, no parsing.

Threads: one recorder instance is meant to be fed from one thread (or
from call sites that are already serialised, like a session's worker
thread).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Event phases, mirroring the Chrome trace-event vocabulary:
#: ``X`` = complete (has a duration), ``i`` = instant.
PH_COMPLETE = "X"
PH_INSTANT = "i"


@dataclass
class Event:
    """One recorded event on the observability timeline.

    ``ts`` and ``dur`` are integer nanoseconds relative to the owning
    recorder's epoch (``dur`` is 0 for instants).  ``tid`` is a logical
    lane the exporters turn into a Chrome trace thread; every layer in
    this tree records on lane 0, the engine's.
    """

    name: str
    cat: str
    ph: str
    ts: int
    dur: int = 0
    tid: int = 0
    args: Optional[dict] = None


class _NullSpan:
    """The shared no-op context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times ``with`` entry to exit, then records."""

    __slots__ = ("_recorder", "name", "cat", "tid", "args", "_start")

    def __init__(self, recorder: "Recorder", name: str, cat: str, tid: int, args: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = self._recorder._elapsed()
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = self._recorder
        recorder.events.append(
            Event(
                name=self.name,
                cat=self.cat,
                ph=PH_COMPLETE,
                ts=self._start,
                dur=recorder._elapsed() - self._start,
                tid=self.tid,
                args=self.args or None,
            )
        )
        return False


@dataclass
class Recorder:
    """Collects :class:`Event` rows; a no-op when ``enabled`` is False.

    Usage::

        rec = Recorder()
        with rec.span("cycle", "engine", production="expand"):
            ...
        rec.instant("wm:add", "wm", wme_class="goal", timetag=7)
        events = rec.drain()

    Call sites on hot paths should guard with ``if rec.enabled:`` so
    the disabled configuration costs exactly one attribute check.
    """

    enabled: bool = True
    clock: Callable[[], int] = time.perf_counter_ns
    events: list[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.epoch = self.clock()

    # -- time ----------------------------------------------------------------

    def now(self) -> int:
        """The raw clock, for call sites that time work themselves and
        hand the result to :meth:`complete` (same clock, one timeline)."""
        return self.clock()

    def _elapsed(self) -> int:
        return self.clock() - self.epoch

    # -- recording -----------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: int = 0, **args: Any):
        """A context manager timing its body as one complete event."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, tid, args)

    def instant(self, name: str, cat: str = "", tid: int = 0, **args: Any) -> None:
        """Record a point-in-time event."""
        if not self.enabled:
            return
        self.events.append(
            Event(name=name, cat=cat, ph=PH_INSTANT, ts=self._elapsed(), tid=tid, args=args or None)
        )

    def complete(
        self,
        name: str,
        cat: str = "",
        *,
        start: int,
        duration: int,
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """Record an externally timed span.

        ``start`` is a raw :meth:`now` value (or any reading of the
        recorder's clock -- e.g. the Rete network's own activation
        timestamps); ``duration`` is in nanoseconds.
        """
        if not self.enabled:
            return
        self.events.append(
            Event(
                name=name,
                cat=cat,
                ph=PH_COMPLETE,
                ts=start - self.epoch,
                dur=duration,
                tid=tid,
                args=args,
            )
        )

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def drain(self) -> list[Event]:
        """Hand over (and clear) the recorded events."""
        events, self.events = self.events, []
        return events


#: The process-wide disabled recorder: layers that were not given a
#: recorder point here, so instrumentation call sites never need a
#: None check -- only the cheap ``enabled`` check.
NULL_RECORDER = Recorder(enabled=False)
