"""Codegen cache keyed by a structural ruleset fingerprint.

Compiling a ruleset costs codegen plus ``compile()``; the result depends
only on the *shape* of the LHSs (classes, alpha tests, join tests) --
production names are bound at build time from the runtime's production
list, and RHS actions and variable bindings never reach the match
module (``ops5/rhs.py`` compiles the act phase per production).  The
fingerprint captures exactly that shape:

* values are tagged with their Python type name so ``5``, ``5.0`` and
  ``"5"`` fingerprint differently (their generated tests differ);
* production, ruleset and variable names are *not* included, so
  reloading the same program -- or a copy with its rules or variables
  renamed -- hits the cache and reuses the same code object.

Neither fingerprinting nor codegen ever calls ``intern_id``: loading a
cached ruleset does not grow the symbol table (regression-tested in
``tests/kernel/test_cache.py``).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Sequence

from ..ops5.condition import CEAnalysis
from ..ops5.production import Production
from .codegen import alpha_items, generate_source

__all__ = [
    "CompiledRuleset",
    "cache_stats",
    "clear_cache",
    "compiled_ruleset",
    "ruleset_fingerprint",
]


def _ce_fingerprint(analysis: CEAnalysis) -> tuple:
    return (
        analysis.ce.cls,
        analysis.ce.negated,
        alpha_items(analysis),
        tuple(
            (jt.own_attribute, jt.predicate.value, jt.other_ce, jt.other_attribute)
            for jt in analysis.join_tests
        ),
    )


# Per-production fingerprint memo, keyed by object identity.  Rebuilds
# on a warm kernel happen once per session attach; without the memo each
# one re-walks every CE of every production, making attach cost scale
# with network size.  Entries hold a strong reference to the production
# (Production has __slots__ without __weakref__), so an id() is never
# reused while its entry is live; clear_cache() drops the memo.
_PROD_FP: dict[int, tuple[Production, tuple]] = {}


def _production_fingerprint(production: Production) -> tuple:
    entry = _PROD_FP.get(id(production))
    if entry is not None and entry[0] is production:
        return entry[1]
    fp = tuple(_ce_fingerprint(a) for a in production.analysis)
    _PROD_FP[id(production)] = (production, fp)
    return fp


def ruleset_fingerprint(productions: Sequence[Production]) -> tuple:
    """Structural LHS fingerprint; equal iff the generated code is."""
    return tuple(_production_fingerprint(p) for p in productions)


class CompiledRuleset:
    """One cache entry: fingerprint, generated source, code object."""

    __slots__ = ("fingerprint", "digest", "source", "code")

    def __init__(self, fingerprint: tuple, source: str) -> None:
        self.fingerprint = fingerprint
        #: Short stable hex id for traces, summaries and bench reports.
        self.digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]
        self.source = source
        self.code = compile(source, f"<kernel:{self.digest}>", "exec")


_CACHE: dict[tuple, CompiledRuleset] = {}
_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0


def compiled_ruleset(productions: Sequence[Production]) -> CompiledRuleset:
    """The (cached) compiled module for *productions*."""
    global _HITS, _MISSES
    fingerprint = ruleset_fingerprint(productions)
    with _LOCK:
        entry = _CACHE.get(fingerprint)
        if entry is not None:
            _HITS += 1
            return entry
        _MISSES += 1
    # Codegen outside the lock: racing compiles of the same ruleset are
    # rare and benign (last writer wins; code objects are equivalent).
    entry = CompiledRuleset(fingerprint, generate_source(productions))
    with _LOCK:
        return _CACHE.setdefault(fingerprint, entry)


def cache_stats() -> dict:
    """Process-wide cache counters (``repro.metrics`` kernel section)."""
    with _LOCK:
        return {"hits": _HITS, "misses": _MISSES, "size": len(_CACHE)}


def clear_cache() -> None:
    """Drop entries, counters and the fingerprint memo (test isolation)."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _PROD_FP.clear()
        _HITS = 0
        _MISSES = 0
