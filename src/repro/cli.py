"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run FILE``
    Execute an OPS5 program file (optionally with ``--wmes`` initial
    memory) and print its output and run statistics.
``demo NAME``
    Run one of the bundled programs (``hanoi``, ``blocks``, ``monkey``,
    ``eight-puzzle``, ``closure``).
``matchers``
    List the registered matcher backends, with one-line descriptions
    from the engine registry.
``simulate``
    Generate a calibrated system workload (or capture one from a
    program file) and replay it on a configurable PSM.
``measure``
    Print Gupta-Forgy-style static and dynamic measurement tables for a
    program file or bundled demo.
``figures``
    Print the Figure 6-1 / 6-2 series for the six paper systems.
``compare``
    Print the Section 7 architecture comparison table.
``serve``
    Run the long-lived multi-session rule server (``docs/serve.md``).
``profile``
    Run a program under the observability recorder and export the
    timeline (Chrome trace / JSONL) plus the unified metrics snapshot
    (``docs/observability.md``).
``chaos``
    SIGKILL real worker processes of a durable serve fleet under
    multitenant load and verify every session recovers bit-identically
    from journal + checkpoint (``docs/fault-tolerance.md``).
``fuzz``
    Differential-fuzz every matcher backend with generated OPS5
    programs; mismatches are shrunk to minimal (ruleset, stream) pairs
    and written to a JSON report (``docs/workloads.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .ops5 import (
    DEFAULT_MATCHER,
    MATCHER_NAMES,
    Ops5Error,
    ProductionSystem,
    matcher_named,
    parse_wme_specs,
)

# Each subcommand imports the research layers it runs: ``repro serve``
# is a worker's entry point, and a worker imports only the serving path.


class _Choices:
    """Argparse choices loaded on first use, by *load*.  ``add_argument``
    formats the choices of an argument with no ``metavar`` when the
    parser is built, so each use of one names a ``metavar``."""

    def __init__(self, load) -> None:
        self._load = load

    def __iter__(self):
        return iter(self._load())

    def __contains__(self, value) -> bool:
        return value in self._load()


def _program_names() -> list[str]:
    from .workloads.programs import ALL_PROGRAMS

    return sorted(ALL_PROGRAMS)


def _system_names() -> list[str]:
    from .workloads import PAPER_SYSTEMS

    return [profile.name for profile in PAPER_SYSTEMS]


_PROGRAMS = _Choices(_program_names)
_SYSTEMS = _Choices(_system_names)


def _at_least_zero(kind):
    """An argparse ``type``: *kind* (int or float), refused below 0."""

    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _matcher_from_args(args, recorder=None):
    """Construct the requested matcher through the engine registry.

    Every backend -- current and future -- goes through
    :func:`~repro.ops5.engine.matcher_named`; ``--workers`` is forwarded
    to the parallel backend (the only one that takes it) and refused
    for every other one rather than silently ignored.
    """
    workers = getattr(args, "workers", None)
    if args.matcher == "parallel":
        return matcher_named("parallel", recorder, workers=workers)
    if workers is not None:
        raise Ops5Error(
            f"--workers is only meaningful for --matcher parallel, "
            f"not {args.matcher!r}"
        )
    return matcher_named(args.matcher, recorder)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OPS5 engine + parallel Rete multiprocessor simulator "
        "(reproduction of Gupta et al., ISCA 1986)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an OPS5 program file")
    run.add_argument("file", help="OPS5 source file")
    run.add_argument("--wmes", help="file of initial (class ^attr value ...) elements")
    run.add_argument("--matcher", choices=sorted(MATCHER_NAMES), default=DEFAULT_MATCHER)
    run.add_argument(
        "--workers", type=int, default=None,
        help="partitions for --matcher parallel",
    )
    run.add_argument("--strategy", choices=["lex", "mea"], default="lex")
    run.add_argument("--max-cycles", type=int, default=None)
    run.add_argument("--stats", action="store_true", help="print match statistics")
    run.add_argument(
        "--verify", action="store_true",
        help="audit the matcher's internal state after the run "
             "(rete, compiled and parallel matchers)",
    )

    sub.add_parser(
        "matchers",
        help="list the registered matcher backends",
    )

    demo = sub.add_parser("demo", help="run a bundled example program")
    demo.add_argument(
        "name", choices=_PROGRAMS, metavar="NAME", help="one of: %(choices)s"
    )
    demo.add_argument("--matcher", choices=sorted(MATCHER_NAMES), default=DEFAULT_MATCHER)
    demo.add_argument(
        "--workers", type=int, default=None,
        help="partitions for --matcher parallel",
    )

    sim = sub.add_parser("simulate", help="replay a workload on the PSM model")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--system", choices=_SYSTEMS, metavar="SYSTEM",
        help="one of the paper's calibrated systems: %(choices)s",
    )
    source.add_argument("--file", help="capture a trace from an OPS5 program file")
    source.add_argument("--trace", help="replay a saved trace (JSON, see 'trace')")
    sim.add_argument("--wmes", help="initial memory for --file runs")
    sim.add_argument("--processors", type=int, default=32)
    sim.add_argument("--mips", type=float, default=2.0)
    sim.add_argument("--scheduler", choices=["hardware", "software"], default="hardware")
    sim.add_argument(
        "--granularity", choices=["node", "intra-node", "production"],
        default="intra-node",
    )
    sim.add_argument("--firing-batch", type=int, default=1)
    sim.add_argument("--firings", type=int, default=60, help="synthetic run length")
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument(
        "--gantt", action="store_true",
        help="render the schedule as a per-processor timeline",
    )

    measure = sub.add_parser(
        "measure", help="print measurement tables for a program"
    )
    measure_source = measure.add_mutually_exclusive_group(required=True)
    measure_source.add_argument("--file", help="OPS5 program file")
    measure_source.add_argument(
        "--demo", choices=_PROGRAMS, metavar="NAME", help="one of: %(choices)s"
    )
    measure.add_argument("--wmes", help="initial memory for --file runs")
    measure.add_argument("--max-cycles", type=int, default=None)

    trace_cmd = sub.add_parser("trace", help="capture a run's trace to JSON")
    trace_source = trace_cmd.add_mutually_exclusive_group(required=True)
    trace_source.add_argument("--file", help="OPS5 program file")
    trace_source.add_argument(
        "--system", choices=_SYSTEMS, metavar="SYSTEM",
        help="generate a calibrated synthetic trace instead: %(choices)s",
    )
    trace_cmd.add_argument("--wmes", help="initial memory for --file runs")
    trace_cmd.add_argument("--out", required=True, help="output JSON path")
    trace_cmd.add_argument("--firings", type=int, default=60)
    trace_cmd.add_argument("--seed", type=int, default=42)
    trace_cmd.add_argument("--max-cycles", type=int, default=None)

    figures = sub.add_parser("figures", help="print the Figure 6-1/6-2 series")
    figures.add_argument("--firings", type=int, default=40)
    figures.add_argument("--seed", type=int, default=42)

    sub.add_parser("compare", help="print the Section 7 architecture table")

    serve = sub.add_parser(
        "serve", help="run the multi-session rule server (see docs/serve.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7410,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--socket", help="listen on a unix socket instead")
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help="per-session request-queue bound before backpressure (default 64)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="spawn N worker server processes behind a durable front-door "
             "router at the given address: sessions survive worker SIGKILL "
             "via the write-ahead journal (0 = single server, no router; "
             "see docs/fault-tolerance.md)",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=None,
        help="max concurrent sessions per tenant (default: unlimited)",
    )
    serve.add_argument(
        "--durability-dir", default=None,
        help="journal + checkpoint directory for --workers "
             "(default: a temporary directory deleted on exit; name one "
             "to make sessions survive router restarts too)",
    )
    serve.add_argument(
        "--checkpoint-every", type=_at_least_zero(int), default=16,
        help="checkpoint a session every N journaled ops under "
             "--workers (0 = journal-only replay)",
    )
    serve.add_argument(
        "--heartbeat-interval", type=_at_least_zero(float), default=0.5,
        help="seconds between worker liveness probes under --workers "
             "(0 = no heartbeat)",
    )
    serve.add_argument(
        "--fsync", action="store_true",
        help="fsync the session journal before acknowledging each op "
             "under --workers (survives host power loss, not just "
             "worker death)",
    )
    serve.add_argument(
        "--commit-window", type=_at_least_zero(float), default=0.0,
        help="group-commit window in seconds for --fsync: batch journal "
             "fsyncs behind one barrier per window (0 = fsync every op)",
    )

    profile = sub.add_parser(
        "profile",
        help="run a program under the observability recorder "
             "(see docs/observability.md)",
    )
    profile_source = profile.add_mutually_exclusive_group(required=True)
    profile_source.add_argument("--file", help="OPS5 program file")
    profile_source.add_argument(
        "--demo", choices=_PROGRAMS, metavar="NAME", help="one of: %(choices)s"
    )
    profile.add_argument("--wmes", help="initial memory for --file runs")
    profile.add_argument("--matcher", choices=sorted(MATCHER_NAMES), default=DEFAULT_MATCHER)
    profile.add_argument(
        "--workers", type=int, default=None,
        help="partitions for --matcher parallel",
    )
    profile.add_argument("--strategy", choices=["lex", "mea"], default="lex")
    profile.add_argument("--max-cycles", type=int, default=None)
    profile.add_argument(
        "--trace-out",
        help="write a Chrome trace-event JSON (open in https://ui.perfetto.dev)",
    )
    profile.add_argument(
        "--events-out", help="write the raw event timeline as JSONL"
    )
    profile.add_argument(
        "--metrics-out", help="write the unified metrics snapshot as JSON"
    )

    chaos = sub.add_parser(
        "chaos",
        help="SIGKILL real worker OS processes of a durable serve fleet "
             "under multitenant session load and verify every session "
             "recovers bit-identically from journal + checkpoint "
             "(see docs/fault-tolerance.md)",
    )
    chaos.add_argument(
        "--workers", type=int, default=2, help="fleet worker processes",
    )
    chaos.add_argument(
        "--seed", type=int, default=42,
        help="derive the kill schedule from this seed (reproducible)",
    )
    chaos.add_argument("--crashes", type=int, default=1,
                       help="worker kills to schedule")
    chaos.add_argument(
        "--checkpoint-every", type=_at_least_zero(int), default=8,
        help="checkpoint a session every N journalled ops",
    )
    chaos.add_argument("--report-out", help="write the chaos report as JSON")
    chaos.add_argument(
        "--sessions", type=int, default=6,
        help="concurrent sessions across three tenants",
    )
    chaos.add_argument(
        "--rounds", type=int, default=6,
        help="assert+run rounds applied to every session",
    )
    chaos.add_argument(
        "--heartbeat-interval", type=_at_least_zero(float), default=0.5,
        help="worker liveness probe period in seconds",
    )
    chaos.add_argument(
        "--journal-dir", default=None,
        help="keep the fleet's journals + checkpoints in this directory "
             "instead of a temporary one (the CI artifact)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz all matcher backends with generated OPS5 "
             "programs and shrink any mismatch (see docs/workloads.md)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; case i uses a seed derived from (seed, i)",
    )
    fuzz.add_argument(
        "--budget", type=float, default=60.0,
        help="wall-clock budget in seconds (generation + runs + shrinking)",
    )
    fuzz.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N cases even if budget remains",
    )
    fuzz.add_argument(
        "--profile", default="default",
        help="generator profile: 'default' or a paper system "
             "(vt, ilog, mud, daa, r1-soar, ep-soar)",
    )
    fuzz.add_argument(
        "--workers", type=int, default=2,
        help="partitions of the parallel backend",
    )
    fuzz.add_argument("--max-cycles", type=int, default=40)
    fuzz.add_argument(
        "--shrink-attempts", type=int, default=250,
        help="shrink budget per counterexample",
    )
    fuzz.add_argument(
        "--case-seed", type=int, default=None,
        help="replay one case seed from a report (skips the campaign)",
    )
    fuzz.add_argument(
        "--report-out", help="write the fuzz report as JSON (the CI artifact)"
    )
    return parser


def _read_program(args) -> tuple[str, list]:
    """The ``--file`` program's source and its ``--wmes`` memory (or [])."""
    with open(args.file) as handle:
        source = handle.read()
    setup = []
    if args.wmes:
        with open(args.wmes) as handle:
            setup = parse_wme_specs(handle.read())
    return source, setup


def _cmd_run(args) -> int:
    matcher = _matcher_from_args(args)
    source, setup = _read_program(args)
    system = ProductionSystem(source, matcher=matcher, strategy=args.strategy)
    system.load_memory(setup)
    return _run_and_report(args, system)


def _run_and_report(args, system: ProductionSystem) -> int:
    result = system.run(args.max_cycles)
    for line in result.output:
        print(line)
    print(
        f"-- fired {result.fired} productions; {result.halt_reason}; "
        f"{len(system.memory)} elements in working memory"
    )
    if args.stats:
        from .obs.metrics import snapshot

        data = snapshot(system)
        match, rete, kernel = data["match"], data.get("rete"), data.get("kernel")
        print(
            f"-- {match['wme_changes']} wme-changes, "
            f"mean affected productions {match['mean_affected_productions']:.2f}, "
            f"{match['comparisons']} comparisons"
        )
        if rete is not None:
            print(f"-- rete: {rete['nodes']} nodes, sharing ratio {rete['sharing_ratio']:.2f}")
        if kernel is not None:
            saved = kernel["sharing"]["left_memories_saved"]
            print(f"-- kernel: {kernel['stores']} stores, {saved} left memories shared")
    if args.verify:
        from .kernel.matcher import CompiledMatcher
        from .rete import ReteNetwork, check_network

        if isinstance(system.matcher, ReteNetwork):
            problems = check_network(system.matcher)
        elif isinstance(system.matcher, CompiledMatcher):
            from .kernel import check_kernel

            problems = check_kernel(system.matcher)
        else:
            print(
                "error: --verify requires a rete, compiled or parallel matcher",
                file=sys.stderr,
            )
            return 2
        if problems:
            for problem in problems:
                print(f"INCONSISTENT: {problem}", file=sys.stderr)
            return 1
        print("-- matcher state verified consistent")
    return 0


def _cmd_demo(args) -> int:
    from .workloads.programs import ALL_PROGRAMS

    module = ALL_PROGRAMS[args.name]
    result = module.run(matcher=_matcher_from_args(args))
    for line in result.output:
        print(line)
    print(f"-- fired {result.fired} productions; {result.halt_reason}")
    return 0


def _cmd_simulate(args) -> int:
    from .psim import MachineConfig, render_gantt, simulate as run_simulation
    from .trace import capture_trace, load_trace
    from .workloads import generate_trace, profile_named

    if args.system:
        trace = generate_trace(
            profile_named(args.system), seed=args.seed, firings=args.firings
        )
    elif args.trace:
        trace = load_trace(args.trace)
    else:
        source, setup = _read_program(args)
        trace, _, _ = capture_trace(source, setup, name=args.file)
    machine = MachineConfig(
        processors=args.processors,
        mips=args.mips,
        scheduler=args.scheduler,
        granularity=args.granularity,
        firing_batch=args.firing_batch,
    )
    result = run_simulation(trace, machine, record_placements=args.gantt)
    print(result.summary())
    if args.gantt:
        print(render_gantt(result))
    print(
        f"   work: serial {result.serial_cost:,.0f} instr, executed "
        f"{result.executed_work:,.0f} (inflation {result.work_inflation:.2f}); "
        f"overheads: scheduling {result.scheduling_fraction:.1%}, "
        f"sync {result.sync_fraction:.1%}"
    )
    return 0


def _cmd_measure(args) -> int:
    from .analysis import measure_dynamic, measure_static, render_table
    from .ops5 import parse_program
    from .workloads.programs import ALL_PROGRAMS

    if args.demo:
        module = ALL_PROGRAMS[args.demo]
        name = args.demo
        productions = parse_program(module.PROGRAM).productions
        builder = module.build
    else:
        source, setup = _read_program(args)
        name = args.file
        productions = parse_program(source).productions

        def builder(**kwargs):
            system = ProductionSystem(source, **kwargs)
            system.load_memory(setup)
            return system

    static = measure_static(productions, name)
    dynamic = measure_dynamic(builder, name, max_cycles=args.max_cycles)
    print(render_table(["static measurement", "value"], static.rows(), title=name))
    print()
    print(render_table(["dynamic measurement", "value"], dynamic.rows()))
    return 0


def _cmd_trace(args) -> int:
    from .trace import capture_trace, save_trace
    from .workloads import generate_trace, profile_named

    if args.system:
        trace = generate_trace(
            profile_named(args.system), seed=args.seed, firings=args.firings
        )
    else:
        source, setup = _read_program(args)
        trace, result, _ = capture_trace(
            source, setup, name=args.file, max_cycles=args.max_cycles
        )
        print(f"captured {result.fired} firings")
    save_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.total_changes} changes, "
        f"{trace.total_tasks} tasks, serial cost {trace.serial_cost:,} instr"
    )
    return 0


def _cmd_figures(args) -> int:
    from .analysis import render_series
    from .psim import MachineConfig, sweep_processors
    from .workloads import PAPER_SYSTEMS, generate_trace

    counts = [1, 2, 4, 8, 16, 32, 48, 64]
    concurrency: dict[str, list[float]] = {}
    speed: dict[str, list[float]] = {}
    for profile in PAPER_SYSTEMS:
        trace = generate_trace(profile, seed=args.seed, firings=args.firings)
        results = sweep_processors(trace, MachineConfig(), counts)
        concurrency[profile.name] = [r.concurrency for r in results]
        speed[profile.name] = [r.wme_changes_per_second for r in results]
    print(render_series("procs", counts, concurrency,
                        title="Figure 6-1: concurrency"))
    print()
    print(render_series("procs", counts, speed,
                        title="Figure 6-2: wme-changes/sec", precision=0))
    return 0


def _cmd_compare(args) -> int:
    from .machines import render_table as render_machines

    print(render_machines())
    return 0


def _cmd_profile(args) -> int:
    import json

    from .obs import (
        Recorder,
        consistency_problems,
        snapshot,
        write_chrome_trace,
        write_jsonl,
    )
    from .workloads.programs import ALL_PROGRAMS

    recorder = Recorder()
    matcher = _matcher_from_args(args, recorder=recorder)
    if args.demo:
        module = ALL_PROGRAMS[args.demo]
        system = module.build(matcher=matcher, recorder=recorder)
    else:
        source, setup = _read_program(args)
        system = ProductionSystem(
            source, matcher=matcher, strategy=args.strategy, recorder=recorder
        )
        system.load_memory(setup)
    result = system.run(args.max_cycles)
    data = snapshot(system, recorder=recorder)

    print(
        f"-- fired {result.fired} productions; {result.halt_reason}; "
        f"recorded {len(recorder.events)} events"
    )
    problems = consistency_problems(data)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote metrics snapshot to {args.metrics_out}")
    if args.events_out:
        lines = write_jsonl(recorder.events, args.events_out)
        print(f"-- wrote {lines} events to {args.events_out}")
    if args.trace_out:
        rows = write_chrome_trace(
            recorder.events, args.trace_out, thread_names={0: "engine"}
        )
        print(
            f"-- wrote {rows} trace rows to {args.trace_out} "
            "(open in https://ui.perfetto.dev)"
        )
    if problems:
        for problem in problems:
            print(f"INCONSISTENT: {problem}", file=sys.stderr)
        return 1
    engine = data["engine"]
    match = data["match"]
    print(
        f"-- metrics consistent: {engine['wme_changes']} wme-changes "
        f"(engine == matcher: {match['wme_changes']}), "
        f"{engine['firings']} firings over {engine['cycles']} cycles"
    )
    conflict_set = data["conflict_set"]
    print(
        f"-- conflict set: {conflict_set['size']} members; "
        f"{conflict_set['selects']} selects walked "
        f"{conflict_set['members_examined'] / max(1, conflict_set['selects']):.2f} "
        "ranked members each"
    )
    return 0


def _cmd_serve(args) -> int:
    from .serve import DEFAULT_MAX_PENDING, run_server

    max_pending = (
        args.max_pending if args.max_pending is not None else DEFAULT_MAX_PENDING
    )

    if args.workers > 0:
        # N worker OS processes under a supervisor, one router journaling
        # every state-changing op so sessions survive worker death
        # (docs/fault-tolerance.md).
        from .serve import ProcessRouterFleet

        try:
            with ProcessRouterFleet(
                workers=args.workers,
                durability_dir=args.durability_dir,
                checkpoint_every=args.checkpoint_every,
                heartbeat_interval=args.heartbeat_interval,
                max_pending=max_pending,
                fsync=args.fsync,
                commit_window=args.commit_window,
                host=args.host,
                port=args.port,
                unix_path=args.socket,
                default_tenant_quota=args.tenant_quota,
            ) as fleet:
                where = args.socket if args.socket else "%s:%s" % fleet.address
                print(
                    f"routing on {where} ({args.workers} process workers, "
                    f"journals in {fleet.durability.root})",
                    flush=True,
                )
                # Serves until a ``shutdown`` request stops the router.
                fleet.router_thread.join()
        except KeyboardInterrupt:
            print("interrupted; fleet drained", file=sys.stderr)
        return 0

    def announce(server) -> None:
        if server.unix_path:
            print(f"serving on {server.unix_path}", flush=True)
        else:
            print(f"serving on {server.host}:{server.port}", flush=True)

    try:
        run_server(
            host=args.host,
            port=args.port,
            unix_path=args.socket,
            max_pending=max_pending,
            announce=announce,
            default_tenant_quota=args.tenant_quota,
        )
    except KeyboardInterrupt:
        print("interrupted; sessions drained", file=sys.stderr)
    return 0


def _cmd_matchers(args) -> int:
    """List matcher backends from the engine registry."""
    from .ops5.engine import MATCHER_DESCRIPTIONS

    print("matchers:")
    for name in MATCHER_NAMES:
        print(f"  {name:<13} {MATCHER_DESCRIPTIONS[name]}")
    return 0


def _cmd_chaos(args) -> int:
    """SIGKILL real worker processes under load; exit 0 iff no loss."""
    import json

    from .faults import fleet_chaos

    try:
        report = fleet_chaos(
            args.seed,
            workers=max(1, args.workers),
            sessions=args.sessions,
            rounds=args.rounds,
            kills=args.crashes,
            checkpoint_every=args.checkpoint_every,
            heartbeat_interval=args.heartbeat_interval,
            durability_dir=args.journal_dir,
            on_event=lambda line: print(f"-- {line}", flush=True),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not report.kills:
        print("-- no kill scheduled (need rounds >= 2 and crashes >= 1)")
    for event in report.recovery_events:
        kind = event.get("type", "?")
        if kind in ("recovered", "resumed", "lost", "rolled"):
            extra = ""
            if kind == "recovered":
                via = (
                    "checkpoint + journal tail"
                    if event.get("used_checkpoint")
                    else "journal replay"
                )
                extra = f" ({event.get('replayed_ops', 0)} ops, {via})"
            print(f"-- session {event.get('session')}: {kind}{extra}")
        else:
            print(f"-- worker {event.get('worker')}: {kind}")
    verdict = "bit-identical" if report.identical else "DIVERGED"
    print(
        f"-- fleet run ({report.workers} process workers, "
        f"{report.sessions} sessions, {len(report.kills)} kills) vs inline "
        f"reference: {verdict}; recovered={len(report.recovered_sessions)} "
        f"lost={len(report.lost_sessions)} "
        f"reconnects={report.client_reconnects}"
    )
    for problem in report.divergences:
        print(f"--   {problem}")
    if report.durability:
        print(
            f"-- journal: {report.durability.get('appends', 0)} appends, "
            f"{report.durability.get('checkpoints', 0)} checkpoints, "
            f"{report.durability.get('bytes_appended', 0)} bytes"
        )
    if args.journal_dir:
        print(f"-- journals kept in {args.journal_dir}")
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(report.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote fleet chaos report to {args.report_out}")
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    """Differential-fuzz the matcher fleet; exit 0 iff no mismatches."""
    import json

    from .workloads.generator import (
        FUZZ_PROFILES,
        MatcherFleet,
        case_from_seed,
        fuzz,
        run_case,
    )

    profile = FUZZ_PROFILES.get(args.profile)
    if profile is None:
        print(
            f"error: unknown profile {args.profile!r} "
            f"(choose from {', '.join(sorted(FUZZ_PROFILES))})",
            file=sys.stderr,
        )
        return 2

    if args.case_seed is not None:
        # Replay mode: one seed from a report, full source + verdict.
        case = case_from_seed(profile, args.case_seed)
        print(case.source())
        print()
        print(case.stream_text())
        outcome = run_case(
            case, MatcherFleet(workers=args.workers).backends(),
            max_cycles=args.max_cycles,
        )
        if outcome.ok:
            print(f"-- case seed {args.case_seed}: all backends agree")
            return 0
        print(f"-- case seed {args.case_seed}: {outcome.kind}")
        for line in outcome.divergences():
            print(f"--   {line}")
        return 1

    def progress(iteration: int, outcome) -> None:
        if not outcome.ok:
            print(f"-- case {iteration} (seed {outcome.case.case_seed}): {outcome.kind}")

    report = fuzz(
        seed=args.seed,
        budget=args.budget,
        profile=profile,
        workers=args.workers,
        max_cycles=args.max_cycles,
        iterations=args.iterations,
        shrink_attempts=args.shrink_attempts,
        on_case=progress,
    )
    print(
        f"-- profile {report.profile}: {report.iterations} cases in "
        f"{report.elapsed:.1f}s across {len(report.backends)} backends "
        f"({', '.join(report.backends)})"
    )
    if report.unfinished is not None:
        print(
            f"-- unfinished: case seed {report.unfinished} was cut off by the "
            "budget (neither agreement nor a mismatch)"
        )
    for counter in report.counterexamples:
        shrunk = counter.shrunk
        print(
            f"-- counterexample (case seed {counter.case_seed}, {counter.kind}): "
            f"shrunk to {len(shrunk.productions)} rule(s) / "
            f"{len(shrunk.stream)} op(s) in {counter.shrink_attempts} attempts"
        )
        for line in counter.divergences[:4]:
            print(f"--   {line}")
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(report.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote fuzz report to {args.report_out}")
    verdict = "no mismatches" if report.ok else f"{len(report.counterexamples)} mismatch(es)"
    print(f"-- verdict: {verdict}")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "demo": _cmd_demo,
        "matchers": _cmd_matchers,
        "simulate": _cmd_simulate,
        "measure": _cmd_measure,
        "trace": _cmd_trace,
        "figures": _cmd_figures,
        "compare": _cmd_compare,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
        "chaos": _cmd_chaos,
        "fuzz": _cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Ops5Error as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
