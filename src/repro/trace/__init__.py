"""Node-activation traces and the instruction cost model.

The paper's evaluation is trace-driven (Section 6); this package defines
the trace schema (:mod:`~repro.trace.events`), the instruction-cost
model with the paper's published calibration points
(:mod:`~repro.trace.costmodel`), and the capture pipeline that records a
real OPS5 run as a task graph (:mod:`~repro.trace.generate`).
"""

from .costmodel import (
    C1_INSTRUCTIONS_PER_INSERT,
    C2_INSTRUCTIONS_PER_DELETE,
    C3_INSTRUCTIONS_PER_WME,
    UNIPROCESSOR_TIERS,
    CostModel,
    changes_per_second,
    uniprocessor_ladder,
)
from .events import ChangeTrace, FiringTrace, Task, Trace, merge_traces
from .generate import SETUP, TraceCapture, capture_trace
from .io import load_trace, save_trace, trace_from_dict, trace_to_dict
from .stats import Distribution, TraceStatistics, summarize

__all__ = [
    "C1_INSTRUCTIONS_PER_INSERT",
    "C2_INSTRUCTIONS_PER_DELETE",
    "C3_INSTRUCTIONS_PER_WME",
    "ChangeTrace",
    "CostModel",
    "Distribution",
    "FiringTrace",
    "SETUP",
    "Task",
    "Trace",
    "TraceCapture",
    "TraceStatistics",
    "UNIPROCESSOR_TIERS",
    "capture_trace",
    "changes_per_second",
    "load_trace",
    "merge_traces",
    "save_trace",
    "summarize",
    "trace_from_dict",
    "trace_to_dict",
    "uniprocessor_ladder",
]
