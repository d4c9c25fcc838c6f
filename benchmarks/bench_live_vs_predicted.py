"""Predicted vs. measured: the DES model against the live executor.

The discrete-event simulator (`repro.psim`) *predicts* how much
concurrency a trace's task graph offers a multiprocessor; the live
parallel executor (`repro.parallel`) *measures* what its thread shards
extract from the same work on this host.  This benchmark runs the same
workloads through both paths and reports them side by side (recorded
in ``BENCH_live_vs_predicted.json`` at the repo root).

Honesty note: the predicted numbers model the paper's 32-processor PSM
with hardware scheduling; the measured numbers come from compiled-kernel
shards on threads that share one interpreter lock, against the serial
*interpreted* Rete.  A measured speed-up > 1 here is the kernel's lower
per-change cost paying for the dispatch, not concurrency -- against
serial ``compiled`` the same shards read 0.33x (``parallel_steady`` in
``benchmarks/e2e``).  Every prediction is priced with the
kernel-calibrated cost model, since every live shard runs the compiled
kernel, and the JSON snapshot records the host.

Workloads:

* **closure-chain** -- a real program end-to-end (one WME change per
  cycle: the barrier-dominated regime; measures executor overhead).
* **batch-join** -- a wide independent-join program driven as one big
  batch (hundreds of changes per barrier: the match-parallel regime
  the paper's concurrency figures are about).
* **system-class programs** (vt, ilog, mud, daa, r1-soar, ep-soar) --
  replayed op streams.  The replay protocol records each program's
  matcher traffic once and times only the cycle loop (ruleset compiled,
  facts streaming -- the serve regime and the paper's match-phase
  regime), with bit-identity against the serial Rete asserted before
  any timing is trusted.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from repro.ops5 import ProductionSystem, parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import ParallelMatcher, validate_parallel
from repro.psim import MachineConfig, MeasuredRun, predicted_vs_measured, simulate
from repro.rete import ReteNetwork
from repro.trace import capture_trace, kernel_calibrated_model
from repro.workloads.programs import SYSTEM_PROGRAMS, closure
from repro.workloads.replay import record_program, timed_replay

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_live_vs_predicted.json"

WORKER_COUNTS = [1, 2, 4]
REPEATS = 3

#: The paper's machine for the predicted side of the table.
PREDICTED_MACHINE = MachineConfig(processors=32)


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- workload 1: closure-chain (end-to-end engine run) -------------------------

CHAIN_LENGTH = 8


def _closure_setup():
    return [(w.cls, dict(w.attributes)) for w in closure.chain(CHAIN_LENGTH)]


def _run_closure(matcher) -> int:
    system = ProductionSystem(closure.PROGRAM, matcher=matcher)
    for cls, attrs in _closure_setup():
        system.add(cls, **attrs)
    result = system.run(5000)
    assert closure.derived_facts(system) == closure.expected_chain_facts(
        CHAIN_LENGTH
    )
    return result.fired


# -- workload 2: batch-join (matcher-level, one barrier) -----------------------

JOIN_GROUPS = 8
JOIN_KEYS = 24


def _batch_join_program() -> str:
    """One independent two-way join per group: shards perfectly."""
    rules = [
        f"(p join{g} (left ^key <k> ^grp {g}) (right ^key <k> ^grp {g})\n"
        f"   --> (make hit ^grp {g}))"
        for g in range(JOIN_GROUPS)
    ]
    return "\n".join(rules)


def _batch_join_wmes() -> list[tuple[str, dict]]:
    specs = []
    for g in range(JOIN_GROUPS):
        for k in range(JOIN_KEYS):
            specs.append(("left", {"key": f"k{k}", "grp": g}))
            specs.append(("right", {"key": f"k{k}", "grp": g}))
    return specs


def _run_batch_join(matcher) -> int:
    """Load every WME, then read the conflict set once (one barrier)."""
    for production in parse_program(_batch_join_program()).productions:
        matcher.add_production(production)
    memory = WorkingMemory()
    for cls, attrs in _batch_join_wmes():
        matcher.add_wme(memory.add(WME(cls, attrs)))
    matches = len(matcher.conflict_set)
    assert matches == JOIN_GROUPS * JOIN_KEYS
    return matches


# -- workload 3: system-class programs (replay) --------------------------------

REPLAY_WORKERS = [1, 2]
REPLAY_REPEATS = 5


def _replay_rows(name: str, mod) -> list[MeasuredRun]:
    """Replay-protocol timings: serial Rete vs. thread shards.

    One recording drives every backend, so the comparison is over the
    exact same op stream; the conflict-set keys must match the serial
    run before a timing is recorded.
    """
    recording = record_program(mod)
    serial_elapsed, serial_keys = timed_replay(
        recording, ReteNetwork, repeats=REPLAY_REPEATS
    )
    rows = []
    for workers in REPLAY_WORKERS:
        elapsed, keys = timed_replay(
            recording,
            lambda: ParallelMatcher(workers=workers),
            repeats=REPLAY_REPEATS,
            close=True,
        )
        assert keys == serial_keys, f"{name} diverged under parallel[{workers}]"
        rows.append(
            MeasuredRun(
                label=name,
                workers=workers,
                elapsed=elapsed,
                serial_elapsed=serial_elapsed,
            )
        )
    return rows


# -- the measurement ----------------------------------------------------------


def _predict(label: str, source, setup, **capture_kwargs):
    trace, _, _ = capture_trace(source, setup, name=label, **capture_kwargs)
    return simulate(trace, PREDICTED_MACHINE)


def _measure(label: str, run_fn, serial_factory) -> list[MeasuredRun]:
    serial_elapsed = _best_of(REPEATS, lambda: run_fn(serial_factory()))
    rows = []
    for workers in WORKER_COUNTS:
        def parallel_run():
            with ParallelMatcher(workers=workers) as matcher:
                run_fn(matcher)

        elapsed = _best_of(REPEATS, parallel_run)
        rows.append(
            MeasuredRun(
                label=label,
                workers=workers,
                elapsed=elapsed,
                serial_elapsed=serial_elapsed,
            )
        )
    return rows


def _render(records: list[dict]) -> str:
    header = (
        f"{'workload':<14} {'workers':>7} {'pred-conc':>9} {'pred-speedup':>12} "
        f"{'meas-speedup':>12} {'serial-s':>9} {'parallel-s':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r['label']:<14} {r['workers']:>7} {r['predicted_concurrency']:>9.2f} "
            f"{r['predicted_true_speedup']:>12.2f} {r['measured_speedup']:>12.2f} "
            f"{r['measured_serial_seconds']:>9.4f} {r['measured_parallel_seconds']:>10.4f}"
        )
    return "\n".join(lines)


def test_live_vs_predicted(report):
    cpus = host_cpus()

    # Semantic gate: never publish timings for a diverging executor.
    gate = validate_parallel(closure.PROGRAM, _closure_setup(), workers=2)
    assert gate.agree, gate.divergences()

    # Live shards run the compiled kernel, not the interpreter, so the
    # predicted side is priced with the kernel-calibrated model.
    calibrated = kernel_calibrated_model()
    workloads = [
        (
            "closure-chain",
            _run_closure,
            _predict(
                "closure-chain",
                closure.PROGRAM,
                _closure_setup(),
                cost_model=calibrated,
            ),
        ),
        (
            "batch-join",
            _run_batch_join,
            _predict(
                "batch-join",
                _batch_join_program(),
                _batch_join_wmes(),
                include_setup=True,
                max_cycles=0,
                cost_model=calibrated,
            ),
        ),
    ]

    records = []
    for label, run_fn, predicted in workloads:
        for measured in _measure(label, run_fn, ReteNetwork):
            records.append(
                predicted_vs_measured(
                    predicted, measured, cost_model=calibrated.label
                )
            )

    # System-class programs: measurements via replay.
    for name in sorted(SYSTEM_PROGRAMS):
        mod = SYSTEM_PROGRAMS[name]
        predicted = _predict(
            name, mod.PROGRAM, mod.setup(), cost_model=calibrated
        )
        for measured in _replay_rows(name, mod):
            record = predicted_vs_measured(
                predicted, measured, cost_model=calibrated.label
            )
            record["protocol"] = "replay"
            records.append(record)

    table = _render(records)
    report(
        "live_vs_predicted",
        f"host_cpus={cpus} python={platform.python_version()}\n{table}",
    )

    snapshot = {
        "host_cpus": cpus,
        "python": platform.python_version(),
        "predicted_machine": {
            "processors": PREDICTED_MACHINE.processors,
            "scheduler": PREDICTED_MACHINE.scheduler,
            "granularity": PREDICTED_MACHINE.granularity,
        },
        "worker_counts": WORKER_COUNTS,
        "replay_workers": REPLAY_WORKERS,
        "system_programs": sorted(SYSTEM_PROGRAMS),
        "records": records,
    }
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")

    # The DES must predict real concurrency for both traces...
    by_label = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r)
    for label, rows in by_label.items():
        assert rows[0]["predicted_concurrency"] > 1.0, label
    # ...and every measured run must complete and produce a finite ratio.
    assert all(r["measured_speedup"] > 0 for r in records)

    # On the replayed op streams, at least two of the six system-class
    # programs beat the serial Rete in wall-clock with two thread
    # shards, because the compiled kernel's lower per-change cost (not
    # core count) is what pays for the dispatch.
    replay = [
        r
        for r in records
        if r.get("protocol") == "replay" and r["workers"] == 2
    ]
    assert len(replay) == len(SYSTEM_PROGRAMS)
    winners = [r for r in replay if r["measured_speedup"] > 1.0]
    assert len(winners) >= 2, sorted(
        (r["label"], round(r["measured_speedup"], 3)) for r in replay
    )

    # Threads under one interpreter lock cannot speed up CPU-bound work
    # whatever the core count; assert the overhead stays bounded
    # instead of pretending otherwise.
    best = max(
        (r for r in records if r["workers"] >= 4), key=lambda r: r["measured_speedup"]
    )
    assert best["measured_speedup"] > 0.02, best
