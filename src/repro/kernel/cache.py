"""Structural ruleset fingerprints: the key of the shared-kernel registry.

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
  renamed -- lands on the same kernel (``kernel/shared.py``).

Neither fingerprinting nor codegen encodes a value: loading a ruleset
never grows :data:`~repro.ops5.symbols.CODES` (regression-tested in
``tests/kernel/test_cache.py``).
"""

from __future__ import annotations

from typing import Sequence

from ..ops5.condition import CEAnalysis
from ..ops5.production import Production
from .codegen import alpha_items

__all__ = ["clear_cache", "ruleset_fingerprint"]


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


def clear_cache() -> None:
    """Drop the fingerprint memo (test isolation)."""
    _PROD_FP.clear()
