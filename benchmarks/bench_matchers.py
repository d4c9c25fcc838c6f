"""Matcher microbenchmarks, including the compiled-kernel gate.

Two halves:

* **pytest-benchmark tests** (the original library health check): full
  runs of real OPS5 programs under every serial matcher, confirming the
  state-saving hierarchy in actual Python wall-clock.  The compiled
  kernel (``repro.kernel``) rides along as a fifth backend.
* **a standalone script** (``python benchmarks/bench_matchers.py``):
  compiled-vs-interpreted match throughput over all six Section 6
  system-class programs (``vt``, ``ilog``, ``mud``, ``daa``,
  ``r1-soar``, ``ep-soar``), written to the git-ignored
  ``benchmarks/out/compiled_kernel.json``.
  ``--check`` gates the compiled kernel's per-program speedup over the
  interpreted Rete against ``benchmarks/baselines/compiled_kernel.json``
  (25% tolerance) -- the CI perf-smoke step for the codegen path.

Measurement discipline: programs are parsed once (parsing is not match
work); the shared-kernel registry is warmed before timing so the
committed numbers reflect the steady state it is designed to provide
(one compile per ruleset *shape*, ever); rete and compiled samples are taken
in the same interleaved rounds so host drift hits both sides equally.
Cold compile cost -- the first run's time and the traced peak memory of
building the kernel from scratch -- is reported separately, not gated.

Usage::

    python benchmarks/bench_matchers.py                  # full report
    python benchmarks/bench_matchers.py --quick --check  # the CI gate
    python benchmarks/bench_matchers.py --update         # re-baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO, "src"))

import pytest  # noqa: E402

from repro.kernel import CompiledMatcher, SharedKernel, shared_kernel_stats  # noqa: E402
from repro.kernel.cache import ruleset_fingerprint  # noqa: E402
from repro.kernel.codegen import generate_parts  # noqa: E402
from repro.naive import NaiveMatcher  # noqa: E402
from repro.oflazer import CombinationMatcher  # noqa: E402
from repro.ops5 import ProductionSystem, parse_program  # noqa: E402
from repro.rete import ReteNetwork  # noqa: E402
from repro.treat import TreatMatcher  # noqa: E402
from repro.workloads.programs import SYSTEM_PROGRAMS, closure, hanoi  # noqa: E402

BASELINE_PATH = os.path.join(REPO, "benchmarks", "baselines", "compiled_kernel.json")
BENCH_OUT_PATH = os.path.join(REPO, "benchmarks", "out", "compiled_kernel.json")
BASELINE_SCHEMA = "repro.compiled-kernel-bench/1"

MATCHERS = {
    "rete": ReteNetwork,
    "treat": TreatMatcher,
    "naive": NaiveMatcher,
    "oflazer": CombinationMatcher,
    "compiled": CompiledMatcher,
}

PROFILES = {
    "quick": {"reps": 3},
    "full": {"reps": 5},
}


@pytest.mark.parametrize("matcher_name", list(MATCHERS))
def test_bench_hanoi(benchmark, matcher_name):
    matcher_cls = MATCHERS[matcher_name]

    def run():
        result = hanoi.run(4, matcher=matcher_cls())
        assert result.halted
        return result

    result = benchmark(run)
    assert result.fired == 30


@pytest.mark.parametrize("matcher_name", list(MATCHERS))
def test_bench_closure(benchmark, matcher_name):
    matcher_cls = MATCHERS[matcher_name]

    def run():
        system = closure.build(closure.chain(7), matcher=matcher_cls())
        system.run(5000)
        return system

    system = benchmark(run)
    assert closure.derived_facts(system) == closure.expected_chain_facts(7)


def test_bench_rete_compile(benchmark):
    """Network compilation speed: all five programs' rules."""
    from repro.workloads.programs import blocks, eight_puzzle, monkey

    sources = [
        hanoi.PROGRAM, blocks.PROGRAM, monkey.PROGRAM,
        eight_puzzle.PROGRAM, closure.PROGRAM,
    ]
    programs = [parse_program(src) for src in sources]

    def compile_all():
        net = ReteNetwork()
        for program in programs:
            for i, production in enumerate(program.productions):
                net.add_production(production)
        return net

    net = benchmark(compile_all)
    assert len(list(net.productions)) == sum(len(p.productions) for p in programs)


# ---------------------------------------------------------------------------
# Standalone: compiled-vs-interpreted over the six system programs
# ---------------------------------------------------------------------------


def _best_interleaved(fns: dict, reps: int) -> dict:
    """Minimum seconds per call for each labelled fn, round-robin, so a
    CPU-frequency shift hits every backend in the same round."""
    best = {label: float("inf") for label in fns}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for label, fn in fns.items():
                started = time.perf_counter()
                fn()
                best[label] = min(best[label], time.perf_counter() - started)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def cold_compile_peak(productions) -> int:
    """Traced peak bytes of building *productions*' kernel from scratch
    (codegen, ``compile()`` and exec of every part), beside the registry
    so a kept kernel does not make it warm."""
    tracemalloc.start()
    try:
        SharedKernel(ruleset_fingerprint(productions), generate_parts(productions))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_program(name: str, module, reps: int) -> dict:
    """One system program, every serial backend, parse excluded."""
    program = parse_program(module.PROGRAM)
    max_cycles = module.EMITTED.max_cycles
    expected = module.expected_firings()
    changes: dict[str, int] = {}
    #: The compiled kernels stay alive, as a serving process's live
    #: session keeps them: the registry holds a kernel only while
    #: something does, and the timed runs measure warm attach + run.
    kept: set = set()

    def runner(label, factory):
        def run() -> None:
            matcher = factory()
            system = ProductionSystem(program, matcher=matcher)
            for wme in module.setup():
                system.add_wme(wme)
            result = system.run(max_cycles=max_cycles)
            assert result.fired == expected, (
                f"{name}/{label}: fired {result.fired}, expected {expected}"
            )
            changes[label] = matcher.stats.total_changes
            kept.update(getattr(matcher, "kernels", ()))
        return run

    fns = {
        label: runner(label, factory) for label, factory in MATCHERS.items()
    }

    # Cold compile: the one-time codegen + exec cost the registry absorbs.
    misses_before = shared_kernel_stats()["misses"]
    started = time.perf_counter()
    fns["compiled"]()
    cold_seconds = time.perf_counter() - started
    cold = shared_kernel_stats()["misses"] > misses_before
    cold_peak = cold_compile_peak(program.productions)

    for fn in fns.values():  # warm every backend once
        fn()
    best = _best_interleaved(fns, reps)

    assert len(set(changes.values())) == 1, f"{name}: change counts diverge"
    wme_changes = changes["compiled"]
    row = {
        "wme_changes": wme_changes,
        "expected_firings": expected,
        "cold_run_seconds": cold_seconds,
        "cold_compile": cold,
        "cold_compile_peak_bytes": cold_peak,
    }
    for label, seconds in best.items():
        row[label] = {
            "seconds": seconds,
            "wme_changes_per_sec": wme_changes / seconds,
        }
    row["speedup_vs_rete"] = best["rete"] / best["compiled"]
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
        "backends": sorted(MATCHERS),
        "programs": {
            name: measure_program(name, module, reps)
            for name, module in SYSTEM_PROGRAMS.items()
        },
        "kernels": shared_kernel_stats(),
    }


def report(measured: dict) -> None:
    print(f"profile: {measured['profile']}  (backends: "
          f"{', '.join(measured['backends'])})")
    print("system-class programs (full run minus parse, wme-changes/sec):")
    for name, row in measured["programs"].items():
        rete = row["rete"]["wme_changes_per_sec"]
        comp = row["compiled"]["wme_changes_per_sec"]
        print(
            f"  {name:<8} rete {rete:7.0f}/s   compiled {comp:7.0f}/s   "
            f"speedup {row['speedup_vs_rete']:.2f}x   "
            f"cold run {row['cold_run_seconds'] * 1e3:.1f} ms, "
            f"compile peak {row['cold_compile_peak_bytes'] / 1e6:.1f} MB"
        )
    kernels = measured["kernels"]
    print(
        f"kernel registry: {kernels['misses']} compiles, {kernels['hits']} hits, "
        f"{kernels['kernels']} kernels"
    )


def _gate_rows(measured: dict) -> dict:
    """The dimensionless numbers the baseline commits and --check gates."""
    return {
        name: {"speedup_vs_rete": row["speedup_vs_rete"]}
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
        expected = baseline["programs"][name]["speedup_vs_rete"]
        got = row["speedup_vs_rete"]
        # Speedup is a bigger-is-better ratio: fail when the compiled
        # kernel's advantage *shrinks* past the tolerance.
        drift = got / expected - 1.0
        status = "ok" if drift >= -tolerance else "REGRESSED"
        print(
            f"  {name}/speedup_vs_rete {got:6.2f}x vs baseline {expected:6.2f}x "
            f"({drift:+.1%}, tolerance {tolerance:.0%}): {status}"
        )
        if drift < -tolerance:
            failures.append(name)
    if failures:
        print(
            f"FAIL: compiled-kernel speedup regressed on {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("PASS: compiled-kernel speedup within tolerance on all six programs")
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
        help="fail if the compiled kernel's speedup regressed vs baseline",
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
        help="where to write the JSON report "
             "(default benchmarks/out/compiled_kernel.json)",
    )
    args = parser.parse_args(argv)

    measured = measure("quick" if args.quick else "full")
    report(measured)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
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
