"""``benchmarks/wme_census.py`` still reads the kernel it measures.

The census attributes an engine's bytes per WME to the structures the
compiled kernel keeps (its runtimes' store counts, the ``ri*`` right
indexes and ``gl*`` / ``li*`` left memories its closures capture), so a
renamed or deleted structure would otherwise show only as a wrong
figure in the next measurement.  A 40-lane run takes well under a
second.
"""

import importlib.util
import re
import sys
from pathlib import Path

CENSUS = Path(__file__).resolve().parents[2] / "benchmarks" / "wme_census.py"


def test_a_small_census_reads_every_structure(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its own
    had_load = "load" in sys.modules
    spec = importlib.util.spec_from_file_location("wme_census", CENSUS)
    census = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(census)
        census.main(["--lanes", "40"])
    finally:
        if not had_load:
            sys.modules.pop("load", None)  # ``benchmarks/e2e/load.py``
    head, *rows = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"1,120 WMEs; engine grew [\d.]+ B per WME added", head)
    parts = {}
    for row in rows:
        name, value = re.fullmatch(r"  (.+?) +(-?[\d.]+) B/WME", row).groups()
        parts[name] = float(value)
    assert list(parts) == [
        "record", "WM dict", "timetag int", "store counts",
        "right indexes", "left memories", "rest",
    ]
    # Each kernel structure the census names is found and holds something.
    for name in ("record", "WM dict", "store counts", "right indexes", "left memories"):
        assert parts[name] > 0, name
