"""Child ``bench.py`` processes: started, read, and never left behind."""

from __future__ import annotations

import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py")


def run_bench(arguments: list[str], echo: bool = False) -> tuple[int, str, str]:
    """Run ``bench.py`` with *arguments*: (exit code, last line, all output).

    A fresh process per measurement keeps ``peak_rss_mb`` per workload
    and every figure free of what earlier passes left in the process
    (collector heap, thread placement).  If this process is interrupted
    the child gets SIGTERM and is waited for, so it can stop its own
    fleet and worker processes; it is never SIGKILLed first.
    """
    child = subprocess.Popen(
        [sys.executable, BENCH, *arguments], stdout=subprocess.PIPE, text=True
    )
    lines: list[str] = []
    try:
        for line in child.stdout:
            if echo and not line.startswith("host: "):
                sys.stdout.write(line)
            lines.append(line)
        child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    last = next((line for line in reversed(lines) if line.strip()), "")
    return child.returncode, last, "".join(lines)
