#!/usr/bin/env python3
"""Repeatability evidence: two sets of N full runs of one checkout.

    python3 benchmarks/e2e/repeat.py --runs 10

Each set runs every workload N times, every run with another ``--seed``;
the second set visits the workloads in reverse order.  Per (workload,
metric) it prints each set's median and quartiles, the spread (q3 - q1
over the median, as ``statistics.quantiles(n=4)`` gives them), how far
the second median is worse than the first, and the bound from
``BENCHMARK.json``; the same goes to ``REPEATABILITY.json`` beside the
host fingerprint.  This is the acceptance evidence of the benchmark and
the tool for parent-vs-change pairs: run it in both checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench import CHECKOUT, host_fingerprint, load_contract  # noqa: E402
from children import run_bench  # noqa: E402
from hostnorm import quartiles, spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, scale: float) -> dict:
    """One ``bench.py`` process; its last line of output, parsed."""
    code, last, output = run_bench(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--scale", str(scale), "--trace", "0"]
    )
    if code != 0:
        raise SystemExit(f"{workload} seed {seed} exited {code}:\n{output[-2000:]}")
    return json.loads(last)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument(
        "--out", default=os.path.join(HERE, "REPEATABILITY.json"), help="where to write"
    )
    arguments = parser.parse_args()
    names = arguments.workload or [row["name"] for row in contract["workloads"]]
    metrics = contract["end_to_end"]
    started = time.time()
    host = host_fingerprint()
    # values[set][workload][metric] -> one value per run
    values = [
        {name: {m["name"]: [] for m in metrics} for name in names} for _ in range(2)
    ]
    for which in range(2):
        order = names if which == 0 else list(reversed(names))
        for run in range(arguments.runs):
            for name in order:
                seed = 1 + which * arguments.runs + run
                report = one_run(name, seed, arguments.seconds, arguments.scale)
                for metric in metrics:
                    values[which][name][metric["name"]].append(
                        report["metrics"][metric["name"]]["value"]
                    )
                print(f"set {which + 1} run {run + 1} {name} seed {seed} done", flush=True)
    rows = []
    within = True
    print(
        f"\n{'workload':<16} {'metric':<18} {'set':>3} {'q1':>11} {'median':>11} "
        f"{'q3':>11} {'spread':>7} {'worse':>7} {'bound':>6}"
    )
    for name in names:
        for metric in metrics:
            sets = [values[which][name][metric["name"]] for which in range(2)]
            stats = [quartiles(runs) for runs in sets]
            gap = worse_by(stats[0][1], stats[1][1], metric["better"])
            row = {
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "bound": metric["bound"],
                "sets": [
                    {"q1": q1, "median": q2, "q3": q3, "spread": spread(runs), "runs": runs}
                    for (q1, q2, q3), runs in zip(stats, sets)
                ],
                "second_median_worse_by": gap,
            }
            # setup_s is gated on its medians only, like the driver does.
            spreads_ok = metric["name"] == "setup_s" or all(
                s["spread"] <= metric["bound"] for s in row["sets"]
            )
            row["within_bound"] = spreads_ok and gap <= metric["bound"]
            within = within and row["within_bound"]
            rows.append(row)
            for which, ((q1, q2, q3), runs) in enumerate(zip(stats, sets)):
                print(
                    f"{name:<16} {metric['name']:<18} {which + 1:>3} {q1:>11.4g} "
                    f"{q2:>11.4g} {q3:>11.4g} {spread(runs):>7.1%} "
                    f"{(f'{gap:+.1%}' if which else ''):>7} {metric['bound']:>6.0%}"
                    f"{'' if row['within_bound'] or not which else '  OUTSIDE'}"
                )
    with open(arguments.out, "w") as handle:
        json.dump(
            {
                "host": host,
                "runs_per_set": arguments.runs,
                "seconds": arguments.seconds,
                "scale": arguments.scale,
                "wall_seconds": time.time() - started,
                "all_within_bounds": within,
                "rows": rows,
            },
            handle,
            indent=1,
        )
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(arguments.out, CHECKOUT)}; all within bounds: {within}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
