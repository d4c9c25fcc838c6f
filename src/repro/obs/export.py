"""Exporters: the recorder's timeline as JSONL and Chrome trace JSON.

Two formats, two audiences:

* **JSONL** (:func:`write_jsonl` / :func:`read_jsonl`) -- one event per
  line, lossless, trivially greppable and streamable; the format for
  archiving a run or feeding downstream analysis.
* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) -- the ``{"traceEvents": [...]}`` format
  read by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
  Recorder lanes (``tid``) become named trace threads.

Timestamps: recorder events carry integer nanoseconds; the trace-event
format wants microseconds, so exported ``ts``/``dur`` are floats in us.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional

from .recorder import Event, PH_COMPLETE, PH_INSTANT

#: pid stamped on exported events (one process timeline per file).
_PID = 1


def event_to_chrome(event: Event, pid: int = _PID) -> dict:
    """One recorder event as a Chrome trace-event dict."""
    row: dict = {
        "name": event.name,
        "cat": event.cat or "repro",
        "ph": event.ph,
        "ts": event.ts / 1000.0,
        "pid": pid,
        "tid": event.tid,
    }
    if event.ph == PH_COMPLETE:
        row["dur"] = event.dur / 1000.0
    elif event.ph == PH_INSTANT:
        row["s"] = "t"  # thread-scoped instant
    if event.args:
        row["args"] = dict(event.args)
    return row


def chrome_trace(
    events: Iterable[Event],
    thread_names: Optional[Mapping[int, str]] = None,
    process_name: str = "repro",
) -> dict:
    """The full trace document for *events*.

    ``thread_names`` maps recorder lanes (tids) to display names --
    e.g. ``{0: "engine"}``.  Unnamed lanes render by number; Perfetto
    sorts threads by the ``thread_sort_index`` we emit alongside,
    keeping lane 0 on top.
    """
    rows: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid, name in sorted((thread_names or {}).items()):
        rows.append(
            {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid, "args": {"name": name}}
        )
        rows.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    rows.extend(event_to_chrome(event) for event in events)
    return {"traceEvents": rows, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Iterable[Event],
    path: str,
    thread_names: Optional[Mapping[int, str]] = None,
    process_name: str = "repro",
) -> int:
    """Write the Chrome trace JSON for *events*; returns the row count."""
    document = chrome_trace(events, thread_names=thread_names, process_name=process_name)
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(document["traceEvents"])


def write_jsonl(events: Iterable[Event], path: str) -> int:
    """Write one JSON object per event line; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for event in events:
            row: dict = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": event.ts,
                "dur": event.dur,
                "tid": event.tid,
            }
            if event.args:
                row["args"] = dict(event.args)
            handle.write(json.dumps(row))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> list[Event]:
    """Load a JSONL event log back into :class:`Event` rows."""
    events: list[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            events.append(
                Event(
                    name=row["name"],
                    cat=row.get("cat", ""),
                    ph=row.get("ph", PH_INSTANT),
                    ts=row.get("ts", 0),
                    dur=row.get("dur", 0),
                    tid=row.get("tid", 0),
                    args=row.get("args"),
                )
            )
    return events
