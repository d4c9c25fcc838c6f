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

A production's fingerprint is computed once and kept on the production
(``Production.fingerprint``), so warm rebuilds -- one per session
attach -- do not re-walk every CE, and the fingerprint goes away with
its program.
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


def _production_fingerprint(production: Production) -> tuple:
    fp = production.fingerprint
    if fp is None:
        fp = production.fingerprint = tuple(_ce_fingerprint(a) for a in production.analysis)
    return fp


def ruleset_fingerprint(productions: Sequence[Production]) -> tuple:
    """Structural LHS fingerprint; equal iff the generated code is."""
    return tuple(_production_fingerprint(p) for p in productions)


def clear_cache() -> None:
    """Nothing left to clear: fingerprints live on their productions.

    Kept only because ``benchmarks/e2e/measure.py`` still calls it."""
