"""Unified observability: tracing, metrics, and trace export.

The paper's whole argument rests on measurement -- per-node-activation
costs (Section 4), affected-production counts (Section 3), sustained
wme-changes/sec (Section 6) -- and so does every performance PR in this
repo.  This package is the single instrumentation substrate the live
layers share:

* :mod:`~repro.obs.recorder` -- the structured event/span recorder
  (near-zero cost when disabled) that the engine, the Rete network
  (via :class:`~repro.rete.instrument.RecorderListener`), the compiled
  kernel, and the serve layer all report into;
* :mod:`~repro.obs.metrics` -- the versioned snapshot schema unifying
  :class:`~repro.ops5.matcher.MatchStats`,
  :class:`~repro.serve.stats.Telemetry`, and the Rete structural
  counters, with cross-section consistency checking;
* :mod:`~repro.obs.export` -- JSONL event logs and Chrome trace-event
  JSON (Perfetto-loadable) exporters.

Entry points: ``repro profile`` (CLI), the rule server's ``stats``
RPC, and ``benchmarks/bench_obs_overhead.py`` (the disabled-path
overhead guard).  See ``docs/observability.md``.
"""

from .export import (
    chrome_trace,
    event_to_chrome,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import SCHEMA, consistency_problems, engine_section, match_section, snapshot
from .recorder import NULL_RECORDER, Event, Recorder

__all__ = [
    "Event",
    "NULL_RECORDER",
    "Recorder",
    "SCHEMA",
    "chrome_trace",
    "consistency_problems",
    "engine_section",
    "event_to_chrome",
    "match_section",
    "read_jsonl",
    "snapshot",
    "write_chrome_trace",
    "write_jsonl",
]
