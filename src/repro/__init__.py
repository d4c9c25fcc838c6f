"""Reproduction of Gupta, Forgy, Newell & Wedig (ISCA 1986):
"Parallel Algorithms and Architectures for Rule-Based Systems".

The library has four layers:

* :mod:`repro.ops5` -- the OPS5 production-system language: parser,
  working memory, conflict resolution, recognize--act engine;
* matchers -- :mod:`repro.rete` (instrumented, node-sharing Rete),
  :mod:`repro.treat` (alpha-state-only TREAT), :mod:`repro.naive`
  (non-state-saving reference);
* :mod:`repro.trace` + :mod:`repro.psim` -- node-activation traces, the
  instruction cost model, and the discrete-event multiprocessor
  simulator reproducing the paper's Section 6 evaluation;
* :mod:`repro.machines`, :mod:`repro.workloads`, :mod:`repro.analysis`
  -- the Section 7 architecture comparison, the calibrated workloads,
  and the Sections 3/4/8 measurements.

Quickstart::

    from repro.ops5 import ProductionSystem

    ps = ProductionSystem('''
      (p hello (greeting ^to <x>) --> (write hello <x>) (remove 1))
    ''')
    ps.add("greeting", to="world")
    print(ps.run().output)   # ['hello world']

Importing ``repro`` loads :mod:`repro.ops5` and nothing else: a served
worker process (``repro serve``) imports only the serving path, so the
research layers above are imported from their own packages
(``from repro.psim import simulate``), never from the root.
"""

from .ops5 import ProductionSystem, Production, WME, parse_program

__version__ = "1.0.0"

__all__ = [
    "Production",
    "ProductionSystem",
    "WME",
    "parse_program",
    "__version__",
]
