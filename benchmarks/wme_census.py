"""Bytes per WME in one compiled engine, by the structure that holds them.

Drives the end-to-end benchmark's program (``benchmarks/e2e/load.py``:
emitted r1-soar, one lane = 8 asserts, 28 WMEs left once it has run)
into one default engine in waves of two lanes, each wave run to
quiescence, as ``match_steady``'s preload does but with nothing
retracted, then attributes the engine's traced growth (``tracemalloc``,
after the first wave, so the kernel's code is not counted) to:

* ``record``: each WME's record (``sys.getsizeof``, plus an overflow
  dict), ``WM dict``: working memory's timetag map, ``timetag int``;
* ``store counts``: each runtime's list of per-store counts (a store
  keeps no row of its WMEs; its right indexes file them);
* ``right indexes``: every right-index dict the generated closures
  capture (``ri*``), with its ``{timetag: WME}`` buckets;
* ``left memories``: the left dicts, their buckets and the tokens and
  left keys they hold (``gl*`` / ``li*``), and blocker counts (``nc*``);
* ``rest``: everything else the engine grew by (conflict set,
  instantiations, dict slack tracemalloc sees but ``getsizeof`` does not).

Run from the repository root: ``python benchmarks/wme_census.py``
(``--lanes 1444`` leaves 40,432 WMEs; ``--seed`` picks the lane names).
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e")]

import load  # noqa: E402
from repro.ops5 import ProductionSystem  # noqa: E402

size = sys.getsizeof


def captured_dicts(runtime) -> dict[str, dict]:
    """Generated name -> dict, for each dict a closure reachable from the
    runtime's class entries captures (store blocks sit in the entries'
    dispatch dicts)."""
    found, seen = {}, set()
    todo = [*runtime.adds.values(), *runtime.removes.values()]
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            value = cell.cell_contents
            if hasattr(value, "__code__"):
                todo.append(value)
            elif isinstance(value, dict):
                found[name] = value
                todo.extend(v for v in value.values() if hasattr(v, "__code__"))
    return found


def left_bytes(memory: dict) -> int:
    """A left memory: its dict, each key's bucket, each token and left key."""
    total = size(memory)
    for bucket in memory.values():
        total += size(bucket) + sum(size(lk) + size(tok) for lk, tok in bucket.items())
    return total


def census(system) -> dict[str, int]:
    wmes = list(system.memory)
    parts = {
        "record": sum(size(w) + (size(w._extra) if w._extra else 0) for w in wmes),
        "WM dict": size(system.memory._elements),
        "timetag int": sum(size(w.timetag) for w in wmes if w.timetag > 256),
        "store counts": 0,
        "right indexes": 0,
        "left memories": 0,
    }
    for runtime in system.matcher.runtimes:
        parts["store counts"] += size(runtime.counts)
        for name, value in captured_dicts(runtime).items():
            if re.fullmatch(r"ri\d+_\d+", name):
                buckets = (b for b in value.values() if type(b) is dict)
                parts["right indexes"] += size(value) + sum(map(size, buckets))
            elif re.fullmatch(r"(gl\d+|li\d+_\d+)", name):
                parts["left memories"] += left_bytes(value)
            elif re.fullmatch(r"nc\d+_\d+", name):
                parts["left memories"] += size(value)
    return parts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lanes", type=int, default=1444)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    program, lanes = load.system_program(), load.LaneSource(args.seed)
    system = ProductionSystem(program.source)

    def wave() -> None:
        system.apply_changes(load.asserts(lanes.lanes(2)))
        system.run()

    wave()  # compiles the kernel
    first = len(system.memory)
    gc.collect()
    tracemalloc.start()
    for _ in range(args.lanes // 2 - 1):
        wave()
    gc.collect()
    grown = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    n = len(system.memory)
    parts = census(system)
    print(f"{n:,} WMEs; engine grew {grown / (n - first):.1f} B per WME added")
    for name, total in parts.items():
        print(f"  {name:14} {total / n:7.1f} B/WME")
    print(f"  {'rest':14} {grown / (n - first) - sum(parts.values()) / n:7.1f} B/WME")


if __name__ == "__main__":
    main()
