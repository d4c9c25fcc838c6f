"""Refraction-memory garbage collection on long runs."""

from repro.ops5 import ProductionSystem
from repro.ops5.wme import WorkingMemory

COUNTER = """
(p count-down
  (counter ^n { <n> > 0 })
  -->
  (modify 1 ^n (compute <n> - 1)))

(p done
  (counter ^n 0)
  -->
  (remove 1)
  (halt))
"""


class TestRefractionGC:
    def test_long_run_keeps_refraction_memory_bounded(self):
        ps = ProductionSystem(COUNTER)
        ps.add("counter", n=3000)
        result = ps.run()
        assert result.fired == 3001
        # Without pruning the set would hold 3001 keys; every fired
        # instantiation's WME died on the next modify, so almost all
        # are collectable.
        assert len(ps._fired_keys) < 1100

    def test_refraction_still_enforced_after_gc(self):
        # A production whose match survives its own firing: it must not
        # refire even after several GC passes triggered by other rules.
        # (No halt action: the run ends at quiescence, after `once` got
        # its chance to fire -- and to illegally refire.)
        ps = ProductionSystem("""
          (p count-down
            (counter ^n { <n> > 0 })
            -->
            (modify 1 ^n (compute <n> - 1)))
          (p done (counter ^n 0) --> (remove 1))
          (p once (marker) --> (write saw-marker))
        """)
        ps.add("marker")
        ps.add("counter", n=2000)
        result = ps.run()
        assert result.output.count("saw-marker") == 1
        assert result.halt_reason == "no satisfied production"

    def test_gc_threshold_adapts(self):
        ps = ProductionSystem(COUNTER)
        ps.add("counter", n=1500)
        ps.run()
        # The threshold never drops below the floor.
        assert ps._refraction_gc_threshold >= 512

    def test_prune_never_iterates_working_memory(self):
        # A prune asks working memory about the timetags of fired keys
        # only: its cost must not grow with the elements nobody matched.
        ps = ProductionSystem(COUNTER, matcher="rete")
        ps.memory.__class__ = PointReadOnly
        count_down_past_bystanders(ps, 50)

    def test_prune_never_iterates_working_memory_past_the_kernels_compile(self):
        # The kernel's lazy first compile reads working memory once, by
        # design, so the spy goes in after the first add; prune must not.
        ps = ProductionSystem(COUNTER, matcher="compiled")
        ps.add("bystander")
        ps.memory.__class__ = PointReadOnly
        count_down_past_bystanders(ps, 49)


class PointReadOnly(WorkingMemory):
    def __iter__(self):
        raise AssertionError("prune iterated working memory")

    def snapshot(self):
        raise AssertionError("prune snapshotted working memory")


def count_down_past_bystanders(ps, bystanders):
    for _ in range(bystanders):
        ps.add("bystander")
    ps.add("counter", n=1200)
    assert ps.run().fired == 1201
    # 1201 keys fired and at least two prunes ran (threshold 512).
    assert len(ps._fired_keys) < 512
