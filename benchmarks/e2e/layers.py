"""The traced run: per-layer metrics, the layer ledger, the Chrome trace.

Everything here is measured from outside the program: timing proxies
passed through public seams, pure functions called on recorded frames,
public counters, ``gc.callbacks``, and the **ledger** -- one request
stream replayed at every depth from a bare ``ProductionSystem`` to the
workload's own (each in a fresh process), each rung's normalised
us/request minus the previous rung's being what that layer adds.  Runs
at quarter work.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import statistics
import tempfile
import time
from time import perf_counter_ns

from repro.kernel import shared_kernel
from repro.ops5 import ConflictSet, parse_program
from repro.serve import DurabilityStore
from repro.serve.protocol import decode_payload, encode_frame

from children import run_bench
from hostnorm import host_factor, percentile, quartiles
from measure import SETUPS, Measurement, clear_compile_caches, measure
from tracing import Tracer
from workloads import (
    DURABLE,
    OUT_DIR,
    RUNGS,
    EngineTarget,
    MatchSteady,
    ParallelSteady,
    Plan,
    ProcessTarget,
    Segment,
    Workload,
    _Served,
)

#: The deepest rung must reproduce the workload's own untraced figure
#: this closely, or the run reports ``ledger_consistent: false``.
LEDGER_TOLERANCE = 0.15


class GcWatch:
    """Collector pauses and full collections, through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.gen2 = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._started
            self.gen2 += info["generation"] == 2

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def median_h(result: Measurement) -> float:
    return statistics.median(row.h for row in result.rows)


def kernel_build_costs(source: str) -> tuple[float, float]:
    """(cold compile s, warm attach ms) of the program's shared kernel."""
    productions = parse_program(source).productions
    clear_compile_caches()
    h = host_factor()
    started = time.perf_counter()
    kernel = shared_kernel(productions)
    compile_s = (time.perf_counter() - started) / h
    attaches = []
    for _ in range(5):
        started = time.perf_counter()
        kernel.attach(ConflictSet(), productions, ())
        attaches.append((time.perf_counter() - started) * 1e3 / h)
    return compile_s, statistics.median(attaches)


def engine_metrics(tracer: Tracer, result: Measurement, counters: dict) -> dict:
    """kernel.* and ops5.* from one probed pass."""
    h = median_h(result)
    changes, firings = max(1, result.changes), max(1, result.firings)
    wall_ns = result.wall_s * 1e9
    match_ns = tracer.total_ns("kernel.match")
    select_ns = tracer.total_ns("ops5.select")
    fire_ns = tracer.total_ns("ops5.fire")
    fire_match_ns = tracer.total_ns("ops5.fire.match")
    selects = max(1, tracer.calls("ops5.select"))
    return {
        "kernel.match_us_per_change": match_ns / 1e3 / changes / h,
        "kernel.share": match_ns / wall_ns,
        "kernel.cs_edits_per_change": counters.get("cs_edits", 0) / changes,
        "kernel.state_size": counters.get("state_size", 0),
        "ops5.select_us_per_firing": select_ns / 1e3 / firings / h,
        "ops5.select_share": select_ns / wall_ns,
        "ops5.cs_mean_size": tracer.total_ns("ops5.cs_size") / selects,
        "ops5.rhs_us_per_firing": (fire_ns - fire_match_ns) / 1e3 / firings / h,
        "ops5.firings": result.firings,
        "ops5.changes": result.changes,
    }


def drift_ratio(result: Measurement) -> float:
    """Last-quartile over first-quartile segment rate."""
    rates = result.segment_rates()
    quarter = max(1, len(rates) // 4)
    return statistics.mean(rates[-quarter:]) / statistics.mean(rates[:quarter])


def protocol_metrics(recorded: list[tuple[dict, dict]]) -> dict:
    """encode_frame / decode_payload timed on the recorded messages."""
    if not recorded:
        return {}
    h = host_factor()
    frames = []
    started = perf_counter_ns()
    for request, reply in recorded:
        frames.append((encode_frame(request), encode_frame(reply)))
    encode_ns = perf_counter_ns() - started
    started = perf_counter_ns()
    for request_frame, reply_frame in frames:
        decode_payload(request_frame[4:])
        decode_payload(reply_frame[4:])
    decode_ns = perf_counter_ns() - started
    count = len(recorded)
    return {
        "serve.protocol.encode_us_per_request": encode_ns / 1e3 / count / h,
        "serve.protocol.decode_us_per_request": decode_ns / 1e3 / count / h,
        "serve.protocol.bytes_per_request": statistics.mean(len(f[0]) for f in frames),
        "serve.protocol.bytes_per_reply": statistics.mean(len(f[1]) for f in frames),
    }


def durability_metrics(workload: _Served, recorded: list[tuple[dict, dict]]) -> dict:
    """The store's pure calls on recorded requests, in a scratch directory,
    plus an export + ``save_checkpoint`` of live sessions (what the
    router's off-path checkpoint task does) and a ``load`` of each."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    store = DurabilityStore(scratch, **DURABLE)
    try:
        h = host_factor()
        store.register("probe", {"program": "", "matcher": "compiled"})
        started = perf_counter_ns()
        for seq, (request, _) in enumerate(recorded, 1):
            store.append("probe", seq, request)
        append_us = (perf_counter_ns() - started) / 1e3 / max(1, len(recorded)) / h
        store.sync()
        checkpoints, loads, size = [], [], 0
        for names in workload.per_client:
            for name in names[:2]:
                started = time.perf_counter()
                blob = workload.target.control.request("export", session=name)
                store.save_checkpoint(name, 1, blob["config"], blob["state"])
                checkpoints.append((time.perf_counter() - started) * 1e3 / h)
                size = os.path.getsize(os.path.join(scratch, f"{name}.ckpt.json"))
                started = time.perf_counter()
                store.load(name)
                loads.append((time.perf_counter() - started) * 1e3 / h)
    finally:
        store.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "serve.durability.append_us": append_us,
        "serve.durability.checkpoint_ms_p50": statistics.median(checkpoints),
        "serve.durability.checkpoint_bytes_last": size,
        "serve.durability.load_ms": statistics.median(loads),
    }


def served_counters(workload: _Served, result: Measurement) -> dict:
    """serve.* metrics read from the public counters of the live fleet."""
    sealed = workload.stats_at_seal
    requests = max(1, result.attempted)
    values = {
        "serve.server.service_ms_p50": statistics.median(
            row["latency"]["p50"] * 1e3 for row in sealed["sessions"].values()
        )
        / median_h(result),
        "serve.session.threads": workload.threads_at_seal,
        "serve.router.rejected": sealed["router"]["rejected"],
        "serve.client.retries": workload.target.retries + workload.target.reconnects(),
    }
    if workload.worker_cpu_share is not None:
        values["serve.fleet.worker_cpu_share"] = workload.worker_cpu_share
    durable = sealed["router"].get("durability")
    if durable:
        values.update(
            {
                "serve.durability.fsyncs_per_request": durable["fsyncs"] / requests,
                "serve.durability.wal_bytes_per_change": durable["bytes_appended"]
                / max(1, result.changes),
                "serve.durability.checkpoints": durable["checkpoints"],
            }
        )
    return values


def recovery_metrics(workload: _Served) -> dict:
    """Two more kills beside the one ``finish`` made: median of three."""
    recoveries = [workload.recover_ms]
    scratch = Segment()
    for worker in (1, 0):
        recoveries.append(workload.kill_and_continue(worker, scratch))
    if scratch.failed:
        workload.problems.append(f"{workload.name}: a request after a kill failed")
    events = workload.target.stats()["router"]["events"]
    replayed = [e["replayed_ops"] for e in events if e.get("type") == "recovered"]
    h = host_factor()
    return {
        "serve.fleet.recover_ms": statistics.median(recoveries) / h,
        "serve.fleet.replayed_ops": statistics.mean(replayed) if replayed else 0.0,
    }


class TracedRun:
    """The passes of one ``--trace 1`` run and what they found."""

    def __init__(self, factory, plan: Plan) -> None:
        self.factory = factory
        self.plan = dataclasses.replace(plan, work=plan.work / 4.0)
        self.values: dict[str, float] = {}
        self.notes: list[str] = []
        #: attempted / failed / problems over every pass, not just the first.
        self.total = Measurement(plan.workload)

    def run_pass(self, factory=None, tracer=None, setups=1, inspect=None) -> Measurement:
        result = measure(factory or self.factory, self.plan, tracer, setups, inspect)
        self.total.attempted += result.attempted
        self.total.failed += result.failed
        self.total.problems.extend(result.problems)
        return result


def trace_run(factory, plan: Plan, rows: list[dict]):
    """(result, {metric: (value, unit)}, metrics not driven, notes) for ``--trace 1``."""
    units = {row["name"]: row["unit"] for row in rows}
    run = TracedRun(factory, plan)
    values, notes = run.values, run.notes
    served = issubclass(factory, _Served)

    # Served fleets get the three set-ups of a --trace 0 run: the process
    # must be in its steady thread-placement regime before any pass that
    # the ledger compares (see ServeChatty.WARMUP_PER_SESSION).
    untraced = run.run_pass(setups=SETUPS if served else 1)
    tracer = Tracer()
    live: dict = {}

    def inspect(workload: Workload, result: Measurement) -> None:
        live["counters"] = workload.layer_counters()
        live["source"] = workload.program.source
        if served:
            values.update(served_counters(workload, result))
            values.update(protocol_metrics(workload.recorded))
            if isinstance(workload.target, ProcessTarget):
                values.update(durability_metrics(workload, workload.recorded))
                values.update(recovery_metrics(workload))

    with GcWatch() as watch:
        traced = run.run_pass(tracer=tracer, inspect=inspect)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{factory.name}.trace.json")
    tracer.write_chrome_trace(trace_path, factory.name)

    values["ops5.gc_pause_ms"] = watch.pause_ns / 1e6
    values["ops5.gc_gen2_collections"] = watch.gen2
    values["ops5.drift_ratio"] = drift_ratio(untraced)
    values["trace.overhead_ratio"] = traced.us_per_change() / untraced.us_per_change()
    _, values["host.factor_p50"], _ = hq = quartiles(
        [row.h for result in (untraced, traced) for row in result.rows]
    )
    values["host.factor_iqr"] = hq[2] - hq[0]
    values["kernel.compile_s"], values["kernel.attach_ms"] = kernel_build_costs(
        live["source"]
    )

    if served:
        consistent = served_ledger(run, untraced)
    else:
        values.update(engine_metrics(tracer, traced, live["counters"]))
        if factory is ParallelSteady:
            parallel_metrics(run, live["counters"], traced)
        consistent = engine_ledger(untraced, tracer, traced, notes)
    # A verdict on the measurement, not on the program's outputs: it is
    # reported, and does not make the run incorrect.
    notes.append(f"ledger_consistent: {str(consistent).lower()}")
    notes.append(f"chrome trace: {os.path.relpath(trace_path)} ({len(tracer.spans)} spans)")
    missing = sorted(set(units) - set(values))
    if missing:
        notes.append(
            f"{len(missing)} metrics of layers this workload does not drive are "
            "0 in the JSON line and not listed above"
        )
    values.update({name: 0.0 for name in missing})
    shown = {name: (value, units[name]) for name, value in values.items()}
    return run.total, shown, missing, notes


def engine_ledger(untraced, tracer, traced, notes) -> bool:
    """In-process: one rung, split into self times by the traced shares."""
    total = traced.wall_s * 1e9
    match = tracer.total_ns("kernel.match")
    select = tracer.total_ns("ops5.select")
    rhs = tracer.total_ns("ops5.fire") - tracer.total_ns("ops5.fire.match")
    per_unit = untraced.us_per_unit()
    notes.append(
        f"ledger (us per unit, untraced {per_unit:.1f}; self-time shares "
        "from the traced pass):"
    )
    for name, part in (
        ("kernel (match)", match),
        ("ops5 select", select),
        ("ops5 rhs", rhs),
        ("ops5 loop + bench", total - match - select - rhs),
    ):
        notes.append(f"  {name:<20} {part / total:6.1%}  {per_unit * part / total:10.1f}")
    return True


class SerialBase(MatchSteady):
    """``match_steady``'s engine over exactly ``parallel_steady``'s waves."""

    WAVES_PER_SECOND = ParallelSteady.WAVES_PER_SECOND


def parallel_metrics(run: TracedRun, counters: dict, traced: Measurement) -> None:
    """The serial kernel on the same stream is the base of the speed-up."""
    values = run.values
    scheduler = counters.get("scheduler") or {}
    queued = scheduler.get("tasks_executed", 0) + scheduler.get("tasks_helped", 0)
    fast = scheduler.get("fast_batches", 0)
    values["parallel.match_us_per_change"] = values["kernel.match_us_per_change"]
    values["parallel.tasks_stolen_ratio"] = scheduler.get("steals", 0) / max(1, queued)
    # Shard batches served on the caller's thread (below one grain of
    # work) over all dispatches: 1.0 means nothing ever ran in parallel.
    values["parallel.fast_batch_share"] = fast / max(1, fast + queued)
    values["parallel.epoch_waits_per_cycle"] = scheduler.get("epoch_waits", 0) / max(
        1, traced.firings
    )
    serial_tracer = Tracer()
    serial = run.run_pass(SerialBase, serial_tracer)
    base = serial_tracer.total_ns("kernel.match") / 1e3 / max(1, serial.changes)
    base /= median_h(serial)
    values["parallel.speedup_vs_serial"] = base / values["parallel.match_us_per_change"]


def run_rung(factory, plan: Plan, rung: str) -> int:
    """Child side of the ledger: one depth, measured like a --trace 0 run.

    A fresh process and the three cold set-ups put every rung in the
    regime a real run is measured in; replayed one after the other in
    one process, later rungs inherit the earlier ones' collector heap
    and thread placement and read up to 30% slower.
    """
    target_class = next(target for target in RUNGS if target.name == rung)
    result = measure(lambda p, t: factory(p, t, target_class=target_class), plan)
    print(
        json.dumps(
            {
                "us_per_unit": result.us_per_unit(),
                "latency_ms_p50": percentile(sorted(result.latencies_ms), 50),
                "attempted": result.attempted,
                "failed": result.failed,
                "problems": result.problems,
            }
        )
    )
    return 1 if result.failed or result.problems else 0


def served_ledger(run: TracedRun, untraced: Measurement) -> bool:
    """Replay the stream at every depth down to the workload's own."""
    values, notes, plan = run.values, run.notes, run.plan
    own = RUNGS.index(run.factory.target_class)
    common = ["--workload", plan.workload, "--seed", str(plan.seed)]
    common += ["--seconds", repr(plan.work / plan.scale), "--scale", repr(plan.scale)]
    rungs: list[tuple[str, dict]] = []
    for target in RUNGS[: own + 1]:
        code, last, output = run_bench(common + ["--rung", target.name])
        try:
            report = json.loads(last)
        except ValueError:
            raise RuntimeError(f"ledger rung {target.name} exited {code}:\n{output[-2000:]}")
        run.total.attempted += report["attempted"]
        run.total.failed += report["failed"]
        run.total.problems.extend(report["problems"])
        rungs.append((target.name, report))
    # kernel.* and ops5.* of this stream: the engine rung again, probed.
    probe_tracer = Tracer()
    counters: dict = {}
    probed = run.run_pass(
        lambda plan, tracer: run.factory(plan, tracer, target_class=EngineTarget),
        probe_tracer,
        inspect=lambda workload, result: counters.update(workload.layer_counters()),
    )
    values.update(engine_metrics(probe_tracer, probed, counters))
    notes.append("ledger (normalised us per request; added = this rung minus the one above):")
    previous = 0.0
    for name, report in rungs:
        per_request = report["us_per_unit"]
        notes.append(f"  {name:<18} {per_request:10.1f}   added {per_request - previous:+10.1f}")
        if name != EngineTarget.name:
            values[f"{name}.added_us_per_request"] = per_request - previous
        previous = per_request
    values["serve.session.queue_wait_ms_p50"] = (
        values["serve.server.service_ms_p50"] - rungs[1][1]["latency_ms_p50"]
    )
    own_figure = untraced.us_per_unit()
    notes.append(
        f"  workload's own untraced pass {own_figure:.1f}; engine rung is "
        f"{rungs[0][1]['us_per_unit'] / previous:.2f} of the deepest"
    )
    return abs(previous - own_figure) <= LEDGER_TOLERANCE * own_figure
