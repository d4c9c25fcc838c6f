"""The compiled match kernel: per-ruleset codegen over columnar memories.

The interpreted Rete walks one Python method call per node activation --
the per-candidate constant factor that dominates serial throughput once
dispatch is cheap (ROADMAP item 1; CORGI's observation in PAPERS.md).
This package removes that factor by *compiling* each ruleset, once, to
specialized Python:

* the alpha network becomes one generated add / remove entry per WME
  class, testing each store's alpha items inline;
* beta joins become hash-indexed probes over columnar alpha memories
  whose key components are the WMEs' own values (a dict compares them
  the way OPS5 does);
* one process-wide registry (``kernel/shared.py``) keyed by a structural
  LHS fingerprint (``kernel/cache.py``) generates, compiles and exec's
  each ruleset shape once, so re-loading the same ruleset (or the same
  ruleset under new production names) attaches to the same kernel.

The node-walking Rete stays in the tree as the differential oracle:
``CompiledMatcher(oracle=True)`` shadows every change through a
:class:`~repro.rete.ReteNetwork` and raises on the first divergence,
and the fuzz fleet (``repro fuzz``) cross-checks the generated code
against all interpreted matchers on every generated program.

See ``docs/compiled-kernel.md`` for the compilation model.
"""

from .cache import ruleset_fingerprint
from .codegen import generate_source
from .layout import AlphaStore
from .matcher import CompiledMatcher
from .runtime import KernelRuntime
from .shared import (
    SharedKernel,
    clear_shared_kernels,
    shared_kernel,
    shared_kernel_stats,
)
from .verify import check_kernel

__all__ = [
    "AlphaStore",
    "CompiledMatcher",
    "KernelRuntime",
    "SharedKernel",
    "check_kernel",
    "clear_shared_kernels",
    "generate_source",
    "ruleset_fingerprint",
    "shared_kernel",
    "shared_kernel_stats",
]
