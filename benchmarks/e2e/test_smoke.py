"""Smoke tests of the benchmark itself (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench.py")
OUT_DIR = os.path.join(CHECKOUT, "benchmarks", "out", "e2e")

with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [row["name"] for row in CONTRACT["workloads"]]


def bench(*arguments: str, cwd: str = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, BENCH, *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def report_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs() -> dict[str, subprocess.CompletedProcess]:
    return {name: bench("--workload", name, "--smoke") for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(smoke_runs, name):
    completed = smoke_runs[name]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert f"workload {name} " in completed.stdout
    report = report_of(completed)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    assert set(report["metrics"]) == {row["name"] for row in CONTRACT["end_to_end"]}
    for row in CONTRACT["end_to_end"]:
        metric = report["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert metric["value"] > 0
        # ... and by name with its unit in the part people read.
        line = next(
            line for line in completed.stdout.splitlines()
            if line.strip().startswith(row["name"] + " ")
        )
        assert f" {row['unit']} " in line


@pytest.mark.parametrize("name", ["match_steady", "serve_durable"])
def test_traced_run_prints_every_per_layer_metric(name):
    completed = bench("--workload", name, "--smoke", "--trace", "1")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    report = report_of(completed)
    assert report["correct"] is True and report["failed"] == 0
    assert {n: m["unit"] for n, m in report["metrics"].items()} == {
        row["name"]: row["unit"] for row in CONTRACT["per_layer"]
    }
    # At 5% work a pass lasts half a second: the verdict may go either way.
    assert "ledger_consistent: " in completed.stdout
    trace = os.path.join(OUT_DIR, f"{name}.trace.json")
    with open(trace) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and {"name", "ts", "dur", "args"} <= set(events[0])
    driven = {n for n, m in report["metrics"].items() if m["value"] != 0}
    assert "kernel.match_us_per_change" in driven and "trace.overhead_ratio" in driven
    if name == "serve_durable":
        assert {"serve.fleet.recover_ms", "serve.durability.append_us"} <= driven


@pytest.mark.parametrize("name", ["match_steady", "resolve_wide", "serve_chatty"])
@pytest.mark.parametrize("defect", ["failed-op", "wrong-firing"])
def test_an_injected_defect_fails_the_run(name, defect):
    completed = bench("--workload", name, "--smoke", "--inject", defect)
    assert completed.returncode != 0, completed.stdout
    report = report_of(completed)
    if defect == "failed-op":
        assert report["failed"] >= 1
    else:
        assert report["correct"] is False


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """Only BENCHMARK.json and the benchmark's own directory: no program."""
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "match_steady",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert "refusing to run" in completed.stderr
    assert not completed.stdout.strip().startswith("{")


def session_members(session: int) -> list[str]:
    """Command lines of the live processes in *session* (``/proc`` scan)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[3]) != session or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline") as handle:
                members.append(handle.read().replace("\0", " "))
        except OSError:
            continue  # gone between listdir and open
    return members


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_leaves_no_worker_and_no_directory(signum):
    os.makedirs(OUT_DIR, exist_ok=True)
    before = set(os.listdir(OUT_DIR))
    # Its own session, so every descendant can be found afterwards.
    child = subprocess.Popen(
        [sys.executable, BENCH, "--workload", "serve_durable", "--scale", "0.3"],
        cwd=CHECKOUT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:  # mid-flight: workers are up
            if any("repro serve" in line for line in session_members(child.pid)):
                break
            time.sleep(0.05)
        else:
            pytest.fail("the worker processes never started")
        time.sleep(0.5)
        os.kill(child.pid, signum)
        assert child.wait(timeout=60) == 128 + signum
        deadline = time.monotonic() + 10
        while session_members(child.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert session_members(child.pid) == []
        assert set(os.listdir(OUT_DIR)) - before == set()
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
