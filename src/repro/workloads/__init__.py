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

from .._lazy import lazy_exports

#: The package's names by submodule, each imported on first use:
#: ``import repro.workloads.generator`` (the benchmark's load generator,
#: ``repro fuzz``) loads neither the bundled programs nor the trace layer.
_EXPORTS = {
    ".profiles": (
        "DAA", "EP_SOAR", "ILOG", "MUD", "PAPER_SYSTEMS", "PARALLEL_FIRING_SYSTEMS",
        "R1_SOAR", "SystemProfile", "VT", "profile_named",
    ),
    ".generator": ("GENERATOR_PROFILES", "case_from_seed", "emit_system_program", "fuzz"),
    ".synthetic": ("SyntheticGenerator", "generate_trace"),
    ".programs": ("ALL_PROGRAMS",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
