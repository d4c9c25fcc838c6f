#!/usr/bin/env python3
"""One sustained, host-normalised benchmark from kernel to durable fleet.

    python3 benchmarks/e2e/bench.py                       # all five workloads
    python3 benchmarks/e2e/bench.py --workload serve_chatty --seed 3
    python3 benchmarks/e2e/bench.py --workload match_steady --trace 1
    python3 benchmarks/e2e/bench.py --smoke               # 5% work, every check

``--trace 0`` measures the six end-to-end metrics with tracing off;
``--trace 1`` is a separate run at quarter work that times the calls
into each layer and prints the per-layer metrics, the layer ledger and
a Chrome trace.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(os.path.dirname(HERE))
# This checkout's src/ first: a stale installed copy must never be measured.
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

EXIT_FAILED = 1
EXIT_REFUSED = 2


def refuse(reason: str) -> "NoReturn":  # noqa: F821 - annotation only
    print(f"bench.py: refusing to run: {reason}", file=sys.stderr)
    sys.exit(EXIT_REFUSED)


def provenance_guard() -> None:
    """The program measured is this checkout's, on a host that can run it."""
    try:
        import repro
    except ImportError as error:
        refuse(f"cannot import repro from {CHECKOUT}/src ({error})")
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(CHECKOUT) + os.sep):
        refuse(f"repro resolves to {origin}, outside the checkout {CHECKOUT}")
    if (os.cpu_count() or 1) < 2:
        refuse("nproc < 2: the served workloads need a core per client")


def host_fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", CHECKOUT, "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "loadavg_at_start": list(os.getloadavg()),
        "commit": commit or "not a git checkout",
    }


def startup_seconds() -> float:
    """Interpreter start plus imports: process start (``/proc``) to now."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def load_contract() -> dict:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_arguments(contract: dict) -> argparse.Namespace:
    names = [row["name"] for row in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(contract["run_seconds"]),
        help="multiplies the frozen per-second op counts (fixed work, not a timer)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies the op counts")
    parser.add_argument("--smoke", action="store_true", help="--scale 0.05, every check")
    parser.add_argument(
        "--inject",
        choices=("failed-op", "wrong-firing"),
        help="self-test: make one op fail / one lane fire wrongly; the run must exit non-zero",
    )
    # Internal: one ledger rung of a served workload, in this fresh process.
    parser.add_argument("--rung", help=argparse.SUPPRESS)
    arguments = parser.parse_args()
    if arguments.smoke:
        arguments.scale = 0.05
    if arguments.seconds <= 0 or arguments.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return arguments


def interrupted(signum, frame) -> None:
    # SystemExit unwinds through every finally/with on the main thread:
    # fleets stop, worker processes are reaped, temp directories go.
    sys.exit(128 + signum)


def show_metrics(rows: list[dict], values: dict, hidden=()) -> None:
    for row in rows:
        if row["name"] in values and row["name"] not in hidden:
            value, unit = values[row["name"]]
            bound = f", bound {row['bound']:.0%}" if "bound" in row else ""
            print(
                f"  {row['name']:<44} {value:>14.4f} {unit:<6} "
                f"({row['better']} is better{bound})"
            )


def run_one(arguments: argparse.Namespace, contract: dict) -> int:
    """One workload in this process; returns the exit code."""
    from layers import run_rung, trace_run
    from measure import measure
    from workloads import WORKLOADS, Plan

    started_s = startup_seconds()  # the imports above are part of it
    factory = WORKLOADS[arguments.workload]
    why = next(r["why"] for r in contract["workloads"] if r["name"] == factory.name)
    plan = Plan(
        workload=factory.name,
        seed=arguments.seed,
        work=arguments.seconds * arguments.scale,
        scale=arguments.scale,
        inject=arguments.inject,
    )
    if arguments.rung:
        return run_rung(factory, plan, arguments.rung)
    print(
        f"workload {factory.name} (seed {plan.seed}, seconds {arguments.seconds:g}, "
        f"scale {plan.scale:g}, trace {arguments.trace}): {why}"
    )
    if arguments.trace:
        result, values, not_driven, notes = trace_run(factory, plan, contract["per_layer"])
        show_metrics(contract["per_layer"], values, hidden=not_driven)
    else:
        result = measure(factory, plan)
        values = result.end_to_end(started_s)
        show_metrics(contract["end_to_end"], values)
        notes = result.raw_lines() + [
            f"start-up {started_s:.3f} s (interpreter + imports, once) is part of setup_s",
            f"{len(result.latencies_ms)} latency samples, one per {factory.unit_name}",
        ]
    for note in notes:
        print(f"  {note}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    correct = not result.problems
    print(
        f"  attempted {result.attempted} failed {result.failed} "
        f"correct {str(correct).lower()}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0 if correct and not result.failed else EXIT_FAILED


def run_all(arguments: argparse.Namespace, contract: dict) -> int:
    """Every workload, each in a process of its own (peak RSS is per process)."""
    from children import run_bench

    common = ["--seed", str(arguments.seed), "--seconds", str(arguments.seconds)]
    common += ["--scale", str(arguments.scale), "--trace", str(arguments.trace)]
    if arguments.inject:
        common += ["--inject", arguments.inject]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for row in contract["workloads"]:
        code, last, _ = run_bench(common + ["--workload", row["name"]], echo=True)
        status = status or code
        try:
            report = json.loads(last)
        except ValueError:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and report["correct"]
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        for name, metric in report["metrics"].items():
            summary["metrics"][f"{row['name']}.{name}"] = metric
    print(json.dumps(summary))
    return status


def main() -> int:
    provenance_guard()
    contract = load_contract()
    arguments = parse_arguments(contract)
    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    host = host_fingerprint()
    print("host: " + " ".join(f"{key}={value!r}" for key, value in host.items()))
    if arguments.workload is None:
        return run_all(arguments, contract)
    return run_one(arguments, contract)


if __name__ == "__main__":
    sys.exit(main())
