"""Process-wide shared kernels: build once, attach per session.

The serve layer's scaling premise (ROADMAP item 3) is that millions of
users run the *same* rulesets, so the expensive artifacts of a compiled
ruleset -- codegen, ``compile()``, module ``exec`` -- should be paid
once per process, not once per session.  :func:`shared_kernel` is that
registry: it resolves a production list to a :class:`SharedKernel`
through the structural-fingerprint cache (``kernel/cache.py``) and
exec's the generated module exactly once, keeping the resulting
``build`` function for every later attach.

``SharedKernel.attach`` then materialises a private
:class:`~repro.kernel.runtime.KernelRuntime` for one session: closure
construction over the pre-compiled code plus an O(working-memory)
replay.  The N-th session of a ruleset performs **zero** codegen --
``tests/kernel/test_shared.py`` pins that with the cache-hit counters,
and the multi-tenant serve benchmark measures it end to end.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

from ..ops5.production import Production
from ..ops5.wme import WME
from .cache import CompiledRuleset, compiled_ruleset
from .runtime import KernelRuntime

__all__ = ["SharedKernel", "clear_shared_kernels", "shared_kernel", "shared_kernel_stats"]


class SharedKernel:
    """The immutable, process-wide half of one compiled ruleset.

    Holds the cache entry (fingerprint, source, code object) plus the
    exec'd ``build`` function.  Everything here is stateless with
    respect to sessions: attaching never mutates the kernel beyond the
    attach counter, and two runtimes attached to one kernel share no
    mutable match state.
    """

    __slots__ = ("ruleset", "build_fn", "attaches", "_lock")

    def __init__(self, ruleset: CompiledRuleset) -> None:
        self.ruleset = ruleset
        namespace: dict = {}
        exec(ruleset.code, namespace)  # noqa: S102 - our own codegen
        self.build_fn = namespace["build"]
        #: Runtimes ever built from this kernel (sessions + rebuilds).
        self.attaches = 0
        self._lock = threading.Lock()

    @property
    def digest(self) -> str:
        return self.ruleset.digest

    def attach(
        self,
        conflict_set,
        productions: Sequence[Production],
        wmes: Iterable[WME] = (),
        counters: Optional[list[int]] = None,
    ) -> KernelRuntime:
        """Build one session's private match state on this kernel.

        *wmes* (timetag order) are replayed into the fresh runtime, so
        the cost of this call is closure construction plus O(|wmes|) --
        no codegen, no ``compile()``, no module ``exec``.  *counters*,
        when given, is the effort list the generated code increments in
        place of a fresh one: the partitions of one matcher share one.
        """
        runtime = KernelRuntime(conflict_set, list(productions))
        if counters is not None:
            runtime.counters = counters
        self.build_fn(runtime)
        # Quiet: no stats rows; the caller undoes the replay's effort.
        for wme in wmes:
            runtime.add_wme(wme)
        with self._lock:
            self.attaches += 1
        return runtime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedKernel({self.digest}, attaches={self.attaches})"


_KERNELS: dict[str, SharedKernel] = {}
_LOCK = threading.Lock()
_EXECS = 0


def shared_kernel(productions: Sequence[Production]) -> SharedKernel:
    """The (cached) process-wide kernel for *productions*.

    Resolution goes through :func:`~repro.kernel.cache.compiled_ruleset`
    -- so structurally identical rulesets, even under different
    production names, land on one kernel -- and the generated module is
    exec'd at most once per kernel per process.
    """
    global _EXECS
    ruleset = compiled_ruleset(productions)
    kernel = _KERNELS.get(ruleset.digest)
    if kernel is not None:
        return kernel
    with _LOCK:
        kernel = _KERNELS.get(ruleset.digest)
        if kernel is None:
            kernel = SharedKernel(ruleset)
            _KERNELS[ruleset.digest] = kernel
            _EXECS += 1
        return kernel


def shared_kernel_stats() -> dict:
    """Process-wide registry counters (metrics ``kernel.shared`` block).

    ``execs`` counts generated-module executions -- the last per-session
    cost the registry eliminates -- and ``attaches`` total runtimes ever
    built; ``attaches - execs`` is therefore the number of warm,
    codegen-free session attaches this process has served.
    """
    with _LOCK:
        return {
            "kernels": len(_KERNELS),
            "execs": _EXECS,
            "attaches": sum(k.attaches for k in _KERNELS.values()),
        }


def clear_shared_kernels() -> None:
    """Drop the registry and its counters (test isolation)."""
    global _EXECS
    with _LOCK:
        _KERNELS.clear()
        _EXECS = 0
