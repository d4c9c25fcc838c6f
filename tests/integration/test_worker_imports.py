"""A served worker imports only the serving path.

``repro serve`` is the entry point of every fleet worker process, and a
worker's start-up time is a fleet's start-up and recovery time
(docs/fault-tolerance.md).  This guard runs a real worker under
``python -X importtime``, drives a compiled session through it, and
reads the import log: no research layer, and no test harness, may
load.  It found the stats op loading the Rete package (``obs.metrics``
checked for a ``ReteNetwork`` before a ``CompiledMatcher``), and every
session loading the chaos harness (``repro.faults``).

Every default path gets a narrower guard: with no matcher named, the
engine, ``repro run`` (with and without ``--stats``), ``repro demo``,
``repro profile`` and a served session run the compiled kernel and never
load the Rete package; a statistics report on an interpreted matcher
loads neither Rete nor the kernel.

The program generator gets the same guard: the benchmark's load
generator and ``repro fuzz`` import it alone, and it found the
``repro.workloads`` package loading every bundled program, the
synthetic traces and, through them, the trace layer and Rete.
"""

import subprocess
import sys

import pytest

from repro.serve import RuleClient
from repro.serve.fleet import _worker_environment
from repro.workloads.programs import closure

#: Modules a worker must never import, nor any submodule of them.
FORBIDDEN = (
    [f"repro.{layer}" for layer in (
        "analysis", "machines", "workloads", "trace", "rete", "treat", "naive", "oflazer",
        "faults",
    )]
    + [f"repro.psim.{module}" for module in (
        "simulator", "granularity", "des", "bounds", "gantt", "machine", "metrics",
    )]
    + [f"repro.serve.{module}" for module in ("router", "client", "fleet")]
)

#: Modules ``import repro.workloads.generator`` must never import.
GENERATOR_FORBIDDEN = (
    "repro.workloads.programs", "repro.workloads.synthetic", "repro.trace", "repro.rete",
)


def imported_modules(log: str) -> set[str]:
    """Module names in a ``-X importtime`` log (``self | cumulative | name``)."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in log.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


def forbidden_in(modules: set[str], roots=FORBIDDEN) -> list[str]:
    return sorted(
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in roots)
    )


def test_forbidden_in_reads_submodules():
    assert forbidden_in({"repro.rete", "repro.rete.nodes", "repro.psim.partition",
                         "repro.serve.server", "repro.workloadsx"}) == [
        "repro.rete", "repro.rete.nodes",
    ]


def served_imports(tmp_path, drive) -> set[str]:
    """Modules a real ``repro serve`` worker imports while *drive* runs a
    client against it."""
    log_path = tmp_path / "imports.log"
    with open(log_path, "w") as log:
        worker = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-u", "-m", "repro", "serve",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, text=True, env=_worker_environment(),
        )
        try:
            announce = worker.stdout.readline()
            assert announce.startswith("serving on "), announce
            host, _, port = announce.split()[2].rpartition(":")
            with RuleClient((host, int(port))) as client:
                drive(client)
        finally:
            worker.kill()
            worker.wait()
            worker.stdout.close()
    return imported_modules(log_path.read_text())


def run_chain(client, sid) -> dict:
    chain = [["parent", {"from": f"n{i}", "to": f"n{i + 1}"}] for i in range(4)]
    reply = client.assert_wmes(sid, chain, run=True)
    assert reply["run"]["fired"] == closure.expected_chain_facts(4)
    return reply


def test_a_worker_serving_a_compiled_session_imports_no_research_layer(tmp_path):
    def drive(client):
        sid = client.create_session(program=closure.PROGRAM, matcher="compiled")
        reply = run_chain(client, sid)
        # What a durable router also asks of a worker: checkpoint
        # exports (marked and unmarked) and the stats heartbeat.
        assert client.request("export", session=sid, since=0)["ok"]
        assert client.request("export", session=sid)["ok"]
        assert client.session_stats(sid)["firings"] == reply["run"]["fired"]
        assert client.stats()["ok"]

    modules = served_imports(tmp_path, drive)
    # The log sees every import, a package's lazy exports included, and
    # covers the session: the kernel was imported to serve it.
    assert {
        "repro.serve.server", "repro.serve.session", "repro.kernel.matcher",
        "repro.psim.partition",
    } <= modules
    assert forbidden_in(modules) == []


def test_a_session_created_without_a_matcher_runs_the_kernel_and_no_research_layer(
    tmp_path,
):
    def drive(client):
        sid = client.create_session(program=closure.PROGRAM)
        run_chain(client, sid)
        assert client.session_stats(sid)["matcher"] == "compiled"

    modules = served_imports(tmp_path, drive)
    assert forbidden_in(modules) == []
    assert "repro.kernel.matcher" in modules


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "repro", "run", "{ops5}", "--wmes", "{wmes}"],
        ["-m", "repro", "run", "{ops5}", "--wmes", "{wmes}", "--stats"],
        ["-m", "repro", "demo", "hanoi"],
        ["-m", "repro", "profile", "--demo", "hanoi"],
        ["-c", "from repro.ops5 import ProductionSystem\n"
               "ps = ProductionSystem('(p r (a ^v <v>) --> (halt))')\n"
               "ps.add('a', v=1)\n"
               "assert ps.run().halt_reason == 'halt action'"],
    ],
    ids=["run", "run-stats", "demo", "profile", "engine"],
)
def test_a_default_path_loads_no_rete(tmp_path, argv):
    ops5, wmes = tmp_path / "closure.ops5", tmp_path / "chain.wmes"
    ops5.write_text(closure.PROGRAM)
    wmes.write_text("(parent ^from a ^to b)\n(parent ^from b ^to c)\n")
    done = subprocess.run(
        [sys.executable, "-X", "importtime",
         *(arg.format(ops5=ops5, wmes=wmes) for arg in argv)],
        capture_output=True, text=True, env=_worker_environment(),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    modules = imported_modules(done.stderr)
    assert forbidden_in(modules, ("repro.rete",)) == []
    assert "repro.kernel.matcher" in modules


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{ops5}", "--wmes", "{wmes}", "--stats", "--matcher", "treat"],
        ["profile", "--demo", "hanoi", "--matcher", "treat"],
        ["run", "{ops5}", "--wmes", "{wmes}", "--stats", "--matcher", "naive"],
        ["profile", "--demo", "hanoi", "--matcher", "oflazer"],
    ],
    ids=["run-stats-treat", "profile-treat", "run-stats-naive", "profile-oflazer"],
)
def test_a_report_on_one_backend_loads_no_other(tmp_path, argv):
    """``obs.metrics`` reads the backend classes it reports on from
    ``sys.modules``: a statistics report on an interpreted matcher loads
    neither the Rete package nor the compiled kernel."""
    ops5, wmes = tmp_path / "closure.ops5", tmp_path / "chain.wmes"
    ops5.write_text(closure.PROGRAM)
    wmes.write_text("(parent ^from a ^to b)\n(parent ^from b ^to c)\n")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro",
         *(arg.format(ops5=ops5, wmes=wmes) for arg in argv)],
        capture_output=True, text=True, env=_worker_environment(),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    modules = imported_modules(done.stderr)
    assert f"repro.{argv[-1]}" in modules
    assert forbidden_in(modules, ("repro.rete", "repro.kernel")) == []


def test_the_program_generator_loads_no_bundled_program_or_trace_layer():
    log = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.workloads.generator"],
        capture_output=True, text=True, env=_worker_environment(), check=True,
    ).stderr
    modules = imported_modules(log)
    assert {"repro.workloads", "repro.workloads.generator", "repro.ops5.engine"} <= modules
    assert forbidden_in(modules, GENERATOR_FORBIDDEN) == []
