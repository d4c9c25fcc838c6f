"""Shared-memory backend throughput gate: local thread shards vs. Rete.

The CI perf-smoke step for the parallel backend.  Each of the six
Section 6 system-class programs is recorded once (the replay protocol
from :mod:`repro.workloads.replay`: the op stream the engine actually
sent its matcher, split at conflict-set reads) and then replayed
against the serial interpreted Rete and against the shared-memory
backend at one and two thread shards.  Only the cycle loop is timed --
ruleset load and initial facts are preload, exactly the serve regime
the backend exists for -- and every replay's final conflict set must
match the serial run before its timing counts.

Samples are interleaved round-robin so host drift hits every backend in
the same round, and best-of is reported because this host's timing
noise is one-sided.  ``--check`` gates each program's two-shard speedup
over Rete against ``benchmarks/baselines/shared_memory.json`` with a
relative tolerance (default 25%, mirroring the compiled-kernel gate).

Usage::

    python benchmarks/bench_shared_memory.py                  # full report
    python benchmarks/bench_shared_memory.py --quick --check  # the CI gate
    python benchmarks/bench_shared_memory.py --update         # re-baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO, "src"))

from repro.parallel import ParallelMatcher  # noqa: E402
from repro.rete import ReteNetwork  # noqa: E402
from repro.workloads.programs import SYSTEM_PROGRAMS  # noqa: E402
from repro.workloads.replay import record_program, replay_once  # noqa: E402

BASELINE_PATH = os.path.join(REPO, "benchmarks", "baselines", "shared_memory.json")
BENCH_OUT_PATH = os.path.join(REPO, "BENCH_shared_memory.json")
BASELINE_SCHEMA = "repro.shared-memory-bench/1"

#: label -> (matcher factory, needs close()).
BACKENDS = {
    "rete": (ReteNetwork, False),
    "local1": (lambda: ParallelMatcher(workers=1), True),
    "local2": (lambda: ParallelMatcher(workers=2), True),
}

PROFILES = {
    "quick": {"reps": 5},
    "full": {"reps": 9},
}


def _interleaved_replay(recording, reps: int) -> dict[str, float]:
    """Best replay seconds per backend, round-robin, identity-checked."""
    best = {label: float("inf") for label in BACKENDS}
    reference_keys = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for label, (factory, needs_close) in BACKENDS.items():
                matcher = factory()
                try:
                    elapsed, keys = replay_once(recording, matcher)
                finally:
                    if needs_close:
                        matcher.close()
                if reference_keys is None:
                    reference_keys = keys
                assert keys == reference_keys, (
                    f"{recording.name}/{label}: conflict set diverged"
                )
                best[label] = min(best[label], elapsed)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def measure_program(name: str, module, reps: int) -> dict:
    recording = record_program(module)
    best = _interleaved_replay(recording, reps)
    row = {
        "cycles": recording.cycle_count,
        "ops": recording.op_count,
    }
    for label, seconds in best.items():
        row[label] = {
            "seconds": seconds,
            "cycles_per_sec": recording.cycle_count / seconds,
        }
    row["speedup_local1"] = best["rete"] / best["local1"]
    row["speedup_local2"] = best["rete"] / best["local2"]
    return row


def measure(profile_name: str) -> dict:
    reps = PROFILES[profile_name]["reps"]
    return {
        "schema": BASELINE_SCHEMA,
        "profile": profile_name,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "backends": sorted(BACKENDS),
        "programs": {
            name: measure_program(name, module, reps)
            for name, module in sorted(SYSTEM_PROGRAMS.items())
        },
    }


def report(measured: dict) -> None:
    print(
        f"profile: {measured['profile']}  "
        f"(replay protocol, backends: {', '.join(measured['backends'])})"
    )
    print("system-class programs (timed cycle loop, best-of interleaved):")
    for name, row in measured["programs"].items():
        print(
            f"  {name:<8} rete {row['rete']['seconds'] * 1e3:7.2f} ms   "
            f"local1 {row['speedup_local1']:5.2f}x   "
            f"local2 {row['speedup_local2']:5.2f}x   "
            f"({row['cycles']} cycles, {row['ops']} ops)"
        )


def _gate_rows(measured: dict) -> dict:
    """The dimensionless numbers the baseline commits and --check gates."""
    return {
        name: {"speedup_local2": row["speedup_local2"]}
        for name, row in measured["programs"].items()
    }


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def check(measured: dict, tolerance: float) -> int:
    profile_name = measured["profile"]
    baseline = load_baseline().get(profile_name)
    if baseline is None:
        print(
            f"error: no committed baseline for profile {profile_name!r}; "
            f"run with --update first",
            file=sys.stderr,
        )
        return 2
    failures = []
    for name, row in _gate_rows(measured).items():
        expected = baseline["programs"][name]["speedup_local2"]
        got = row["speedup_local2"]
        # Bigger-is-better ratio: fail only when the shared-memory
        # backend's advantage over Rete shrinks past the tolerance.
        drift = got / expected - 1.0
        status = "ok" if drift >= -tolerance else "REGRESSED"
        print(
            f"  {name}/speedup_local2 {got:5.2f}x vs baseline {expected:5.2f}x "
            f"({drift:+.1%}, tolerance {tolerance:.0%}): {status}"
        )
        if drift < -tolerance:
            failures.append(name)
    if failures:
        print(
            f"FAIL: shared-memory speedup regressed on {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("PASS: shared-memory speedup within tolerance on all six programs")
    return 0


def update(measured: dict) -> None:
    try:
        baseline = load_baseline()
    except FileNotFoundError:
        baseline = {}
    baseline["schema"] = BASELINE_SCHEMA + "-baseline"
    baseline[measured["profile"]] = {"programs": _gate_rows(measured)}
    os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
    with open(BASELINE_PATH, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote baseline for {measured['profile']!r} to {BASELINE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer interleaved rounds (the CI profile)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail if the local backend's speedup regressed vs baseline",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed baseline"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative speedup shrinkage (default 0.25)",
    )
    parser.add_argument(
        "--out", default=BENCH_OUT_PATH,
        help="where to write the JSON snapshot "
             "(default BENCH_shared_memory.json)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    measured = measure("quick" if args.quick else "full")
    measured["wall_seconds"] = time.perf_counter() - started
    report(measured)
    with open(args.out, "w") as handle:
        json.dump(measured, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.update:
        update(measured)
    if args.check:
        return check(measured, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
