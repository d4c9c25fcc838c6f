"""Spans and timing proxies, recorded from the benchmark's own files.

Nothing under ``src/`` is instrumented here: a layer is timed by
wrapping the object the program accepts through a public seam
(``ProductionSystem(matcher=..., strategy=..., listener=...)``) or by
bracketing the call the benchmark itself makes (a client request, a
wave).  Every bracket adds to a per-name total; a sample of units also
keeps full spans (name, start, end, parent, unit id) for the Chrome
trace, written once at exit.  A layer's self time is its span minus the
part its children cover.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter_ns

from repro.ops5 import EngineListener, Matcher, Strategy, strategy_named


class Tracer:
    """In-memory span log plus per-name totals."""

    def __init__(self) -> None:
        #: name -> [total_ns, calls]
        self.totals: dict[str, list[int]] = {}
        #: (name, start_ns, end_ns, parent_name, unit, thread_id)
        self.spans: list[tuple] = []
        #: Full spans are kept only while a sampled unit is open.
        self.sampling = False
        self.unit = 0
        self._origin = perf_counter_ns()

    def add(self, name: str, start: int, end: int, parent: str = "") -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0]
        total[0] += end - start
        total[1] += 1
        if self.sampling:
            self.spans.append(
                (name, start, end, parent, self.unit, threading.get_ident())
            )

    def count(self, name: str, amount: int) -> None:
        """A total without a span (sizes, time already inside a span)."""
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0]
        total[0] += amount
        total[1] += 1

    def total_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0))[0]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0))[1]

    def reset(self) -> None:
        """Forget totals (set-up and warm-up are not part of the ledger)."""
        self.totals.clear()

    def write_chrome_trace(self, path: str, workload: str) -> None:
        """Perfetto-loadable ``traceEvents``; ``args`` carry parent and unit."""
        threads: dict[int, int] = {}
        events = []
        for name, start, end, parent, unit, thread in self.spans:
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - self._origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": {"parent": parent, "unit": unit},
                }
            )
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "otherData": {"workload": workload}}, handle
            )


class EngineProbe:
    """Timing proxies for one engine: matcher, strategy and listener.

    Totals land in the tracer under ``kernel.match`` (every ``add_wme``
    / ``remove_wme`` plus the ``conflict_set`` read, which is the
    parallel matcher's flush barrier), ``ops5.select`` and ``ops5.fire``
    (from the ``on_cycle`` hook to the next ``select``).  The RHS's self
    time is ``ops5.fire`` minus ``ops5.fire.match``, the match time spent
    inside it; ``ops5.cs_size`` sums the conflict-set sizes ``select`` saw.
    """

    def __init__(self, tracer: Tracer, matcher: Matcher, strategy: str = "lex") -> None:
        self.tracer = tracer
        self.matcher = _TimedMatcher(self, matcher)
        self.strategy = _TimedStrategy(self, strategy_named(strategy))
        self.listener = _CycleListener(self)
        self.fired_at = 0

    def matched(self, start: int, end: int) -> None:
        if self.fired_at:
            self.tracer.count("ops5.fire.match", end - start)
            self.tracer.add("kernel.match", start, end, "ops5.fire")
        else:
            self.tracer.add("kernel.match", start, end, "ops5.apply")


class _TimedMatcher(Matcher):
    """Forwards to the real matcher, timing every call that matches."""

    def __init__(self, probe: EngineProbe, inner: Matcher) -> None:
        # Matcher.__init__ is skipped on purpose: conflict_set and stats
        # belong to the wrapped matcher.
        self._probe = probe
        self.inner = inner

    @property
    def conflict_set(self):
        start = perf_counter_ns()
        conflict_set = self.inner.conflict_set
        self._probe.matched(start, perf_counter_ns())
        return conflict_set

    @property
    def stats(self):
        return self.inner.stats

    def peek_stats(self):
        return self.inner.peek_stats()

    def add_production(self, production) -> None:
        self.inner.add_production(production)

    def remove_production(self, name: str) -> None:
        self.inner.remove_production(name)

    def add_wme(self, wme) -> None:
        start = perf_counter_ns()
        self.inner.add_wme(wme)
        self._probe.matched(start, perf_counter_ns())

    def remove_wme(self, wme) -> None:
        start = perf_counter_ns()
        self.inner.remove_wme(wme)
        self._probe.matched(start, perf_counter_ns())

    @property
    def productions(self):
        return self.inner.productions

    def __getattr__(self, name: str):
        # close(), state_size(), kernel_summary(), scheduler_summary() ...
        return getattr(self.inner, name)


class _TimedStrategy(Strategy):
    def __init__(self, probe: EngineProbe, inner: Strategy) -> None:
        self._probe = probe
        self.inner = inner
        self.name = inner.name

    def select(self, conflict_set, already_fired):
        probe = self._probe
        start = perf_counter_ns()
        if probe.fired_at:
            probe.tracer.add("ops5.fire", probe.fired_at, start, "ops5.run")
            probe.fired_at = 0
        selected = self.inner.select(conflict_set, already_fired)
        probe.tracer.count("ops5.cs_size", len(conflict_set))
        probe.tracer.add("ops5.select", start, perf_counter_ns(), "ops5.run")
        return selected


class _CycleListener(EngineListener):
    def __init__(self, probe: EngineProbe) -> None:
        self._probe = probe

    def on_cycle(self, cycle: int, fired) -> None:
        self._probe.fired_at = perf_counter_ns()
