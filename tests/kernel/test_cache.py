"""Codegen cache behaviour and the intern-table regression.

The satellite contract: compiling the same ruleset twice must hit the
cache (the *same* code object comes back) and must not grow the
process-wide symbol table -- fingerprinting and codegen work on strings,
never ``intern_id``.
"""

import pytest

from repro.kernel import CompiledMatcher, cache_stats, compiled_ruleset
from repro.kernel.cache import clear_cache, ruleset_fingerprint
from repro.ops5 import parse_program
from repro.ops5.symbols import SYMBOLS
from repro.ops5.wme import WME, WorkingMemory

SRC = """
  (p find (goal ^want <c>) (block ^color <c> ^size > 2) --> (halt))
  (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
"""

RENAMED = SRC.replace("find", "locate").replace("quiet", "silent")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCacheReuse:
    def test_recompile_returns_same_code_object(self):
        productions = parse_program(SRC).productions
        first = compiled_ruleset(productions)
        second = compiled_ruleset(parse_program(SRC).productions)
        assert second is first
        assert second.code is first.code
        assert cache_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_renamed_productions_share_the_code_object(self):
        # Names are bound at build time, not compiled in: a renamed copy
        # of the same LHS shapes is the same kernel.
        a = compiled_ruleset(parse_program(SRC).productions)
        b = compiled_ruleset(parse_program(RENAMED).productions)
        assert b is a

    def test_renamed_variables_and_other_actions_share_the_code_object(self):
        # Bindings are derived from an instantiation's WMEs and the act
        # phase is compiled per production (ops5/rhs.py): neither
        # variable names nor RHS data reach the match module.
        a = compiled_ruleset(parse_program(SRC).productions)
        other = SRC.replace("<c>", "<colour>").replace("(halt)", "(make seen ^c <colour>)")
        b = compiled_ruleset(parse_program(other).productions)
        assert b is a and "colour" not in b.source and "seen" not in b.source

    def test_changed_shape_misses(self):
        compiled_ruleset(parse_program(SRC).productions)
        changed = SRC.replace("^size > 2", "^size > 3")
        compiled_ruleset(parse_program(changed).productions)
        assert cache_stats()["misses"] == 2

    def test_fingerprint_distinguishes_value_types(self):
        # 5, 5.0 and "5" generate different tests, so they must not
        # collide in the cache even though OPS5 compares 5 == 5.0.
        ints = parse_program("(p x (n ^v 5) --> (halt))").productions
        floats = parse_program("(p x (n ^v 5.0) --> (halt))").productions
        fp_int, fp_float = ruleset_fingerprint(ints), ruleset_fingerprint(floats)
        assert fp_int != fp_float


class TestInternTableRegression:
    def test_recompiles_do_not_grow_the_symbol_table(self):
        productions = parse_program(SRC).productions
        compiled_ruleset(productions)  # first compile may be preceded by
        before = len(SYMBOLS)          # parse-time interning; snapshot now
        for _ in range(3):
            compiled_ruleset(parse_program(SRC).productions)
            compiled_ruleset(parse_program(RENAMED).productions)
        assert len(SYMBOLS) == before
        assert cache_stats()["size"] == 1

    def test_matcher_rebuild_does_not_grow_the_symbol_table(self):
        matcher = CompiledMatcher()
        for production in parse_program(SRC).productions:
            matcher.add_production(production)
        memory = WorkingMemory()
        matcher.add_wme(memory.add(WME("goal", {"want": "red"})))
        matcher.add_wme(memory.add(WME("block", {"color": "red", "size": 3})))
        before = len(SYMBOLS)
        # A production edit with WM non-empty forces an immediate rebuild
        # (cache hit + quiet replay); the table must not move.
        late = parse_program("(p late (goal ^want <c>) --> (halt))").productions[0]
        matcher.add_production(late)
        matcher.remove_production("late")
        assert len(SYMBOLS) == before
        assert matcher.kernel_summary()["compiles"] == 3
