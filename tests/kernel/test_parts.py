"""Where the kernel is cut into parts changes nothing.

``repro.kernel.codegen`` cuts the generated factory into parts of at
most ``PART_LINES`` lines at top-level statements; each part takes the
names it uses from earlier parts and returns the ones later parts use,
and ``SharedKernel`` compiles them one by one and chains them at attach.
Cut after every statement, or not at all, every bundled program fires,
keeps its conflict set cycle by cycle and counts its match effort
exactly as under the default cut, and the adversarial stream of
``test_sharing.py`` agrees with a node-walking Rete under the finest
cut.

Hand mutations of ``_cut_parts`` that each fail this file (see
CHANGES.md): a part importing only the previous part's names, so a name
from two parts back resolves as a global; a part's last export dropped.
"""

import sys

import pytest
from hypothesis import given, settings

from repro.kernel import CompiledMatcher, clear_shared_kernels
from repro.kernel import codegen
from repro.workloads.programs import ALL_PROGRAMS
from tests.kernel.test_sharing import _stat_rows, check_stream, streams

#: The module's cut; one top-level statement per part; the whole
#: factory as one part.
DEFAULT, FINEST, SINGLE = codegen.PART_LINES, 1, sys.maxsize


@pytest.fixture
def cut(monkeypatch):
    """Set ``PART_LINES``; the registry is emptied on both sides, so a
    kernel cut one way never serves a lookup made under another."""

    def at(lines: int) -> None:
        clear_shared_kernels()
        monkeypatch.setattr(codegen, "PART_LINES", lines)

    yield at
    clear_shared_kernels()


def observed(module, cycles: int = 400) -> dict:
    """A run's firings, its conflict set before each cycle, its stats
    rows and output, and how many parts its kernel was compiled in."""
    system = module.build(matcher=CompiledMatcher(), history=True)
    fired, conflict_sets = [], []
    for _ in range(cycles):
        conflict_sets.append(system.conflict_set.snapshot())
        instantiation = system.step()
        if instantiation is None:
            break
        fired.append(instantiation.key)
    (kernel,) = system.matcher.kernels
    return {
        "fired": fired,
        "conflict_sets": conflict_sets,
        "rows": _stat_rows(system.matcher.stats),
        "output": list(system.output),
        "parts": kernel.source.count("\ndef part"),
    }


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_the_cut_is_invisible_to_every_bundled_program(name, cut):
    module = ALL_PROGRAMS[name]
    cut(DEFAULT)
    default = observed(module)
    assert len(default["fired"]) > 1 and default["rows"]
    cut(FINEST)
    finest = observed(module)
    cut(SINGLE)
    single = observed(module)
    parts = [run.pop("parts") for run in (single, default, finest)]
    assert parts[0] == 1 and parts[2] > 2 and parts[1] <= parts[2]
    assert finest == default
    assert single == default


@pytest.fixture(scope="module")
def finest_cut():
    """The finest cut for a whole property run (module scope: examples
    share its kernels, as ``Shadowed.kept`` shares them by default)."""
    patch = pytest.MonkeyPatch()
    clear_shared_kernels()
    patch.setattr(codegen, "PART_LINES", FINEST)
    yield
    patch.undo()
    clear_shared_kernels()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(ops=streams(90))
def test_random_stream_under_the_oracle_at_the_finest_cut(finest_cut, ops):
    check_stream(ops)
    check_stream(ops, partitions=2)
