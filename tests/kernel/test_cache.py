"""Kernel reuse by structural fingerprint, and a heap that stays flat.

The contract: compiling the same ruleset twice must land on the one
registry entry (the *same* kernel and build function come back), and
nothing in the match layer grows with traffic -- neither the values a
session has seen nor the engines built and dropped leave state behind.
"""

import gc
import re
import tracemalloc
import uuid

import pytest

from repro.kernel import CompiledMatcher, clear_shared_kernels, shared_kernel
from repro.kernel import shared_kernel_stats
from repro.kernel.cache import ruleset_fingerprint
from repro.ops5 import ProductionSystem, parse_program
from repro.ops5.wme import WME

SRC = """
  (p find (goal ^want <c>) (block ^color <c> ^size > 2) --> (halt))
  (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
"""

RENAMED = SRC.replace("find", "locate").replace("quiet", "silent")


def unseen(src):
    """*src* plus a production with constants no other test uses."""
    tag = uuid.uuid4().hex
    return src + f"(p probe (goal ^want s{tag} ^size {int(tag[:12], 16)}) --> (halt))"


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_shared_kernels()
    yield
    clear_shared_kernels()


class TestCacheReuse:
    def test_recompile_returns_same_code_object(self):
        productions = parse_program(SRC).productions
        first = shared_kernel(productions)
        second = shared_kernel(parse_program(SRC).productions)
        assert second is first
        assert second.build_fn is first.build_fn
        assert shared_kernel_stats() == {"kernels": 1, "hits": 1, "misses": 1, "attaches": 0}

    def test_renamed_productions_share_the_code_object(self):
        # Names are bound at build time, not compiled in: a renamed copy
        # of the same LHS shapes is the same kernel.
        a = shared_kernel(parse_program(SRC).productions)
        b = shared_kernel(parse_program(RENAMED).productions)
        assert b is a

    def test_renamed_copies_keep_their_own_names_out_of_the_shared_kernel(self):
        """The kernel is shared by fingerprint, which has no names, so the
        code holds none: a store's productions are positions, and each
        runtime resolves them against its own production list."""
        first = "(p alpha (goal ^want <c>) (block ^color <c>) --> (halt))\n" \
                "(p beta (goal ^want <c> ^size > 2) --> (halt))"
        second = first.replace("alpha", "gamma").replace("beta", "delta")
        totals = []
        readers = []
        for source in (first, second):
            matcher = CompiledMatcher()
            for production in parse_program(source).productions:
                matcher.add_production(production)
            memory = matcher.memory
            for cls, attrs in (("goal", {"want": "red", "size": 3}), ("block", {"color": "red"})):
                matcher.add_wme(memory.add(WME(cls, attrs)))
            goal = memory.by_timetag(1)
            memory.remove(goal)
            matcher.remove_wme(goal)
            (runtime,) = matcher.runtimes
            readers.append([
                sorted(runtime.productions[p].name for p in store.productions)
                for store in runtime.stores
            ])
            stats = matcher.stats
            totals.append((stats.total_changes, stats.total_affected_productions,
                           stats.total_node_activations, stats.total_comparisons,
                           stats.total_tokens_built))
            source_text = matcher.generated_source
        a, b = shared_kernel(parse_program(first).productions), shared_kernel(
            parse_program(second).productions
        )
        assert a is b and source_text == a.source
        assert not {"alpha", "beta", "gamma", "delta"} & set(re.findall(r"\w+", a.source))
        assert readers == [
            [["alpha"], ["alpha"], ["beta"]],
            [["gamma"], ["gamma"], ["delta"]],
        ]
        # The totals the kernel read when names were still baked in.
        assert totals[0] == totals[1] == (3, 5, 11, 2, 3)

    def test_renamed_variables_and_other_actions_share_the_code_object(self):
        # Bindings are derived from an instantiation's WMEs and the act
        # phase is compiled per production (ops5/rhs.py): neither
        # variable names nor RHS data reach the match module.
        a = shared_kernel(parse_program(SRC).productions)
        other = SRC.replace("<c>", "<colour>").replace("(halt)", "(make seen ^c <colour>)")
        b = shared_kernel(parse_program(other).productions)
        assert b is a and "colour" not in b.source and "seen" not in b.source

    def test_changed_shape_misses(self):
        shared_kernel(parse_program(SRC).productions)
        changed = SRC.replace("^size > 2", "^size > 3")
        shared_kernel(parse_program(changed).productions)
        assert shared_kernel_stats()["misses"] == 2

    def test_fingerprint_distinguishes_value_types(self):
        # 5, 5.0 and "5" generate different tests, so they must not
        # collide in the cache even though OPS5 compares 5 == 5.0.
        ints = parse_program("(p x (n ^v 5) --> (halt))").productions
        floats = parse_program("(p x (n ^v 5.0) --> (halt))").productions
        fp_int, fp_float = ruleset_fingerprint(ints), ruleset_fingerprint(floats)
        assert fp_int != fp_float


class TestLoadPath:
    def test_recompiles_land_on_one_kernel(self):
        src = unseen(SRC)
        renamed = src.replace("find", "locate").replace("quiet", "silent")
        held = []  # the registry is weak: a kernel lives while someone holds it
        for _ in range(3):  # one cold compile, then hits
            held.append(shared_kernel(parse_program(src).productions))
            held.append(shared_kernel(parse_program(renamed).productions))
        assert shared_kernel_stats()["kernels"] == 1

    def test_matcher_rebuild_compiles_each_shape_once(self):
        matcher = CompiledMatcher()
        for production in parse_program(SRC).productions:
            matcher.add_production(production)
        memory = matcher.memory
        matcher.add_wme(memory.add(WME("goal", {"want": "red"})))
        matcher.add_wme(memory.add(WME("block", {"color": "red", "size": 3})))
        # A production edit with WM non-empty forces an immediate rebuild
        # (a cold compile of the new shape, then a hit back on the old
        # one, each with a quiet replay).
        late = parse_program(unseen("")).productions[0]
        matcher.add_production(late)
        matcher.remove_production("probe")
        assert matcher.kernel_summary()["compiles"] == 3


def _growth_per_step(step, steps=3) -> list[int]:
    """Traced live-heap growth (bytes) of each of *steps* calls of
    ``step(k)``, after one warm-up call (dict tables reach their size)."""
    def live():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        step(0)
        growth, before = [], live()
        for k in range(1, steps + 1):
            step(k)
            now = live()
            growth.append(now - before)
            before = now
        return growth
    finally:
        tracemalloc.stop()


class TestHeapStaysFlat:
    """The match state costs what the current working memory costs: a
    value leaves with the last WME holding it, a fingerprint with its
    program (the paper's state-saving argument, Section 3.1)."""

    def test_retracted_unique_symbols_leave_nothing_behind(self):
        ps = ProductionSystem(SRC, matcher="compiled")
        ps.add("goal", want="red")

        def batch(k):  # 10^4 values never seen before, in a join column
            wmes = [ps.add("block", color=f"u{k}-{i}", size=3) for i in range(10_000)]
            for wme in wmes:
                ps.remove_wme(wme)

        growth = _growth_per_step(batch)
        assert max(growth) < 100_000, growth
        assert ps.matcher.kernel_summary()["compiles"] == 1

    def test_dropped_engines_leave_nothing_behind(self):
        live = ProductionSystem(SRC, matcher="compiled")
        live.add("goal", want="red")  # holds the one kernel the others attach to

        def build_and_drop(_k):
            for _ in range(200):
                ProductionSystem(SRC, matcher="compiled").add("goal", want="red")

        growth = _growth_per_step(build_and_drop)
        assert max(growth) < 100_000, growth
        assert shared_kernel_stats()["kernels"] == 1
        assert shared_kernel_stats()["misses"] == 1
