"""The benchmark harness's imports from ``repro`` still resolve.

``benchmarks/e2e/`` is the performance contract and changes only in its
own commits, so a rename under ``src/`` that breaks one of its imports
would otherwise surface only when the benchmark runs.  This reads every
harness module with :mod:`ast` (nothing there is executed) and checks
that each ``from repro... import name`` and ``import repro...`` names a
module that imports and an attribute (or submodule) that exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every ``repro`` import in *path*; name is None
    for a plain ``import repro.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
    return found


def _resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_the_harness_is_where_the_scan_looks():
    assert (HARNESS / "bench.py").is_file()
    assert any(_repro_imports(path) for path in HARNESS.glob("*.py"))


@pytest.mark.parametrize("path", sorted(HARNESS.glob("*.py")), ids=lambda p: p.name)
def test_every_repro_import_resolves(path):
    missing = [
        f"{module}.{name}" if name else module
        for module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not missing, f"{path.name} imports names src/ no longer has: {missing}"
