"""Workloads: calibrated synthetic system profiles and real OPS5 programs.

Two sources of match work drive the evaluation:

* :mod:`repro.workloads.profiles` / :mod:`repro.workloads.synthetic` --
  synthetic trace generators calibrated to the published statistics of
  the paper's six systems (VT, ILOG, MUD, DAA, R1-Soar, EP-Soar), whose
  original traces are CMU-internal;
* :mod:`repro.workloads.programs` -- real OPS5 programs (Tower of
  Hanoi, blocks world, monkey & bananas, eight puzzle, transitive
  closure) plus six generated *system-class* programs, run through the
  instrumented matchers;
* :mod:`repro.workloads.generator` -- the property-based OPS5 program
  generator and differential fuzzing harness (``docs/workloads.md``).
"""

from .profiles import (
    DAA,
    EP_SOAR,
    ILOG,
    MUD,
    PAPER_SYSTEMS,
    PARALLEL_FIRING_SYSTEMS,
    R1_SOAR,
    SystemProfile,
    VT,
    profile_named,
)
from .generator import GENERATOR_PROFILES, case_from_seed, emit_system_program, fuzz
from .synthetic import SyntheticGenerator, generate_trace
from .programs import ALL_PROGRAMS

__all__ = [
    "ALL_PROGRAMS",
    "GENERATOR_PROFILES",
    "DAA",
    "EP_SOAR",
    "ILOG",
    "MUD",
    "PAPER_SYSTEMS",
    "PARALLEL_FIRING_SYSTEMS",
    "R1_SOAR",
    "SyntheticGenerator",
    "SystemProfile",
    "VT",
    "case_from_seed",
    "emit_system_program",
    "fuzz",
    "generate_trace",
    "profile_named",
]
