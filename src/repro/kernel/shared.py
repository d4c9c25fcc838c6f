"""Process-wide shared kernels: build once, attach per session.

The serve layer's scaling premise (ROADMAP item 3) is that millions of
users run the *same* rulesets, so the expensive artifacts of a compiled
ruleset -- codegen, ``compile()``, module ``exec`` -- should be paid
once per process, not once per session.  :func:`shared_kernel` is that
registry: it maps a production list's structural fingerprint
(``kernel/cache.py``) to a :class:`SharedKernel`, and on a miss -- under
the registry's one lock -- generates the kernel's parts and compiles
and exec's each on its own (the compile's transient memory is one
part's, not the ruleset's), keeping their chain for every later attach.

``SharedKernel.attach`` then materialises a private
:class:`~repro.kernel.runtime.KernelRuntime` for one session: closure
construction over the pre-compiled code plus an O(working-memory)
replay.  The N-th session of a ruleset performs **zero** codegen --
``tests/kernel/test_shared.py`` pins that with the registry's hit and
miss counters, and the multi-tenant serve benchmark measures it end to
end.

The registry holds its kernels weakly: a kernel lives as long as some
matcher is attached to it (``CompiledMatcher.kernels``), so a process
that serves ever-new rulesets keeps only the ones in use.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from functools import partial
from typing import Iterable, Optional, Sequence

from ..ops5.production import Production
from ..ops5.wme import WME
from .cache import ruleset_fingerprint
from .codegen import generate_parts
from .runtime import KernelRuntime

__all__ = ["SharedKernel", "clear_shared_kernels", "shared_kernel", "shared_kernel_stats"]


class SharedKernel:
    """The immutable, process-wide half of one compiled ruleset.

    Holds the digest, the generated source (every part, as compiled) and
    the ``build`` function chaining the exec'd parts.  Everything here is
    stateless with respect to sessions: attaching never mutates the
    kernel beyond the attach counter, and two runtimes attached to one
    kernel share no mutable match state.
    """

    __slots__ = ("digest", "source", "build_fn", "attaches", "__weakref__")

    def __init__(self, fingerprint: tuple, parts: Sequence[tuple[str, tuple, tuple]]) -> None:
        #: Short stable hex id for traces, summaries and bench reports.
        self.digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]
        self.source = "".join(text for text, _imports, _exports in parts)
        steps = []
        for k, (text, imports, exports) in enumerate(parts):
            namespace: dict = {}
            code = compile(text, f"<kernel:{self.digest}:part{k}>", "exec")
            exec(code, namespace)  # noqa: S102 - our own codegen
            steps.append((namespace[f"part{k}"], imports, exports))
        self.build_fn = partial(_build, tuple(steps))
        #: Runtimes ever built from this kernel (sessions + rebuilds).
        self.attaches = 0

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
        with _LOCK:
            self.attaches += 1
        return runtime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedKernel({self.digest}, attaches={self.attaches})"


def _build(steps: tuple, rt: KernelRuntime) -> None:
    """Call the parts in order, each on the names it imports."""
    names = {"rt": rt}
    for part, imports, exports in steps:
        names.update(zip(exports, part(*map(names.__getitem__, imports))))


_KERNELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_LOCK = threading.Lock()
_COUNTS = {"hits": 0, "misses": 0}


def shared_kernel(productions: Sequence[Production]) -> SharedKernel:
    """The (cached) process-wide kernel for *productions*.

    Structurally identical rulesets, even under different production
    names, land on one kernel, and its module is generated, compiled and
    exec'd at most once per process.
    """
    fingerprint = ruleset_fingerprint(productions)
    with _LOCK:
        kernel = _KERNELS.get(fingerprint)
        if kernel is not None:
            _COUNTS["hits"] += 1
            return kernel
        _COUNTS["misses"] += 1
        kernel = _KERNELS[fingerprint] = SharedKernel(
            fingerprint, generate_parts(productions)
        )
        return kernel


def shared_kernel_stats() -> dict:
    """Process-wide registry counters (metrics ``kernel.shared`` block).

    ``kernels`` counts the live kernels (some matcher holds each);
    ``misses`` counts codegen + ``compile()`` + module exec, one per
    kernel built; ``hits`` the lookups that paid none of it;
    ``attaches`` the runtimes ever built on the live kernels (sessions
    and rebuilds).
    """
    with _LOCK:
        return {
            "kernels": len(_KERNELS),
            **_COUNTS,
            "attaches": sum(k.attaches for k in _KERNELS.values()),
        }


def clear_shared_kernels() -> None:
    """Drop the registry and its counters (test isolation)."""
    with _LOCK:
        _KERNELS.clear()
        _COUNTS.update(hits=0, misses=0)
