"""Quickstart: write rules, load facts, run the recognize-act loop.

Run:  python examples/quickstart.py

Covers the core public API: the OPS5 source syntax, ProductionSystem,
working-memory access, conflict-set inspection, and matcher swapping.
"""

from repro.ops5 import ProductionSystem
from repro.rete import collect_stats
from repro.treat import TreatMatcher

SOURCE = """
(literalize task name status priority)
(literalize worker name doing)

; Assign the highest-priority pending task to an idle worker.
(p assign-task
  (task ^name <t> ^status pending ^priority <p>)
  - (task ^status pending ^priority > <p>)
  (worker ^name <w> ^doing nil)
  -->
  (modify 1 ^status running)
  (modify 3 ^doing <t>)
  (write assigned <t> to <w>))

; A running task finishes; its worker frees up.
(p finish-task
  (task ^name <t> ^status running)
  (worker ^name <w> ^doing <t>)
  -->
  (remove 1)
  (modify 2 ^doing nil)
  (write finished <t>))

(p all-done
  (worker)
  - (task)
  -->
  (write everyone idle)
  (halt))
"""


def main() -> None:
    # The default matcher is "compiled", the generated kernel; Rete is
    # named here for the network statistics printed below.
    ps = ProductionSystem(SOURCE, matcher="rete")

    ps.add("worker", name="ann", doing="nil")
    ps.add("worker", name="bob", doing="nil")
    for name, priority in [("compile", 2), ("test", 3), ("deploy", 1)]:
        ps.add("task", name=name, status="pending", priority=priority)

    print("conflict set before running:")
    for instantiation in ps.conflict_set:
        print("  ", instantiation)

    result = ps.run()
    print("\nfired", result.fired, "productions; halted:", result.halt_reason)
    for line in result.output:
        print("  ", line)

    stats = collect_stats(ps.matcher)
    print(
        f"\nRete network: {stats.total_nodes} nodes, "
        f"sharing ratio {stats.sharing_ratio:.2f}, "
        f"mean affected productions/change "
        f"{ps.matcher.stats.mean_affected_productions:.2f}"
    )

    # Any matcher plugs into the same engine -- here is TREAT:
    ps2 = ProductionSystem(SOURCE, matcher=TreatMatcher())
    ps2.add("worker", name="cam", doing="nil")
    ps2.add("task", name="ship", status="pending", priority=1)
    print("\nTREAT run output:", ps2.run().output)


if __name__ == "__main__":
    main()
