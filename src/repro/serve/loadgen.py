"""Load generator: replay workload traces from N concurrent clients.

A *trace* here is a JSON list of protocol requests without the
``session`` field -- the per-client script of one serving workload.
:func:`closure_trace` generates the standard one (disjoint
transitive-closure chains ingested batch by batch, each followed by a
run-to-quiescence), traces round-trip through :func:`save_trace` /
:func:`load_trace`, and :func:`run_load` replays a trace from N
threads, each with its own connection and (by default) its own
session.

Backpressure is handled the way a production client would: rejected
requests are retried after the server's ``retry_after`` hint, and the
rejection count is reported, so a run that engaged backpressure is
visible in the summary rather than silently slower.

Run it against a live server (or ``--spawn`` one in-process)::

    python -m repro.serve.loadgen --spawn --clients 4 --batches 8
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..workloads.programs import closure
from .client import RuleClient
from .stats import LatencyWindow

DEFAULT_BATCHES = 6
DEFAULT_CHAIN_LENGTH = 6


def closure_trace(
    batches: int = DEFAULT_BATCHES,
    chain_length: int = DEFAULT_CHAIN_LENGTH,
    batch_size: Optional[int] = None,
    prefix: str = "c",
) -> list[dict]:
    """The standard serving workload: closure chains, batch by batch.

    Every batch asserts one *disjoint* parent chain (so per-batch work
    is constant and independent of ingestion order across sessions) in
    chunks of *batch_size* WMEs, then runs to quiescence.  Each batch
    fires exactly ``chain_length * (chain_length + 1) / 2`` productions.
    """
    ops: list[dict] = []
    size = batch_size or chain_length
    for batch in range(batches):
        wmes = [
            ["parent", {"from": f"{prefix}{batch}.{i}", "to": f"{prefix}{batch}.{i + 1}"}]
            for i in range(chain_length)
        ]
        for start in range(0, len(wmes), size):
            ops.append({"op": "assert", "wmes": wmes[start : start + size]})
        ops.append({"op": "run"})
    return ops


def expected_trace_firings(
    batches: int = DEFAULT_BATCHES, chain_length: int = DEFAULT_CHAIN_LENGTH
) -> int:
    """Firings one :func:`closure_trace` replay must produce."""
    return batches * closure.expected_chain_facts(chain_length)


def save_trace(trace: Sequence[dict], path: str) -> None:
    """Write a trace (a list of session requests) as JSON."""
    with open(path, "w") as handle:
        json.dump(list(trace), handle, indent=2)


def load_trace(path: str) -> list[dict]:
    """Read back a trace written by :func:`save_trace`."""
    with open(path) as handle:
        trace = json.load(handle)
    if not isinstance(trace, list):
        raise ValueError(f"{path}: a trace must be a JSON list of requests")
    return trace


@dataclass
class ClientResult:
    """What one replaying client observed."""

    client: int
    session: str
    requests: int = 0
    rejections: int = 0
    firings: int = 0
    elapsed: float = 0.0
    #: Client-observed per-request latencies, seconds.
    latencies: list[float] = field(default_factory=list)
    error: Optional[str] = None


def replay(
    address,
    trace: Sequence[dict],
    client_index: int = 0,
    program: str = closure.PROGRAM,
    matcher: str = "rete",
    workers: Optional[int] = None,
    max_pending: Optional[int] = None,
    session: Optional[str] = None,
    destroy: bool = True,
    retries: int = 256,
) -> ClientResult:
    """Replay *trace* over one connection; returns what this client saw.

    With *session* given the client joins an existing session (several
    clients hammering one session is the backpressure scenario);
    otherwise it creates its own and, with *destroy*, tears it down --
    exercising the pool-reaping path -- after the replay.
    """
    with RuleClient(address) as client:
        own = session is None
        if own:
            session = client.create_session(
                program=program,
                matcher=matcher,
                workers=workers,
                max_pending=max_pending,
            )
        result = ClientResult(client=client_index, session=session)

        def on_retry(rejection) -> None:
            result.rejections += 1

        started = time.perf_counter()
        for op in trace:
            fields = {k: v for k, v in op.items() if k != "op"}
            sent = time.perf_counter()
            reply = client.call(
                op["op"],
                retries=retries,
                on_retry=on_retry,
                session=session,
                **fields,
            )
            result.latencies.append(time.perf_counter() - sent)
            result.requests += 1
            result.firings += reply.get("fired", 0)
            if isinstance(reply.get("run"), dict):  # assert ... run=true
                result.firings += reply["run"].get("fired", 0)
        result.elapsed = time.perf_counter() - started
        if own and destroy:
            client.destroy_session(session)
        return result


def run_load(
    address,
    clients: int = 4,
    trace: Optional[Sequence[dict]] = None,
    shared_session: bool = False,
    program: str = closure.PROGRAM,
    matcher: str = "rete",
    workers: Optional[int] = None,
    max_pending: Optional[int] = None,
    **trace_kwargs,
) -> dict:
    """Replay from *clients* concurrent threads; return a summary dict.

    Throughput is measured at the server: the wme-change and firing
    totals are the difference between the server-wide stats before and
    after the run, divided by the wall-clock window -- *sustained*
    rates in the sense of the paper's Section 6, not per-request bests.
    """
    base_trace = list(trace) if trace is not None else None
    with RuleClient(address) as control:
        shared = None
        if shared_session:
            shared = control.create_session(
                program=program,
                matcher=matcher,
                workers=workers,
                max_pending=max_pending,
            )
        before = control.stats()["totals"]

        results: list[ClientResult] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            client_trace = (
                base_trace
                if base_trace is not None
                else closure_trace(prefix=f"c{index}.", **trace_kwargs)
            )
            try:
                result = replay(
                    address,
                    client_trace,
                    client_index=index,
                    program=program,
                    matcher=matcher,
                    workers=workers,
                    max_pending=max_pending,
                    session=shared,
                )
            except Exception as error:  # surfaced in the summary
                result = ClientResult(
                    client=index, session=shared or "?", error=str(error)
                )
            with lock:
                results.append(result)

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
            for i in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        after = control.stats()["totals"]
        if shared is not None:
            control.destroy_session(shared)

    window = LatencyWindow(capacity=max(1, sum(len(r.latencies) for r in results)))
    for result in results:
        for sample in result.latencies:
            window.record(sample)

    wme_changes = after["wme_changes"] - before["wme_changes"]
    firings = after["firings"] - before["firings"]
    return {
        "clients": clients,
        "sessions": 1 if shared_session else clients,
        "shared_session": shared_session,
        "matcher": matcher,
        "elapsed_seconds": elapsed,
        "requests": sum(r.requests for r in results),
        "rejections": sum(r.rejections for r in results),
        "errors": [r.error for r in results if r.error],
        "client_firings": sum(r.firings for r in results),
        "wme_changes": wme_changes,
        "firings": firings,
        "wme_changes_per_second": wme_changes / elapsed if elapsed else 0.0,
        "firings_per_second": firings / elapsed if elapsed else 0.0,
        "latency": window.summary(),
    }


def render_summary(summary: dict) -> str:
    """A one-screen human-readable report of one :func:`run_load`."""
    latency = summary["latency"]
    lines = [
        f"clients {summary['clients']} over {summary['sessions']} session(s) "
        f"[{summary['matcher']}]: {summary['requests']} requests in "
        f"{summary['elapsed_seconds']:.3f}s, {summary['rejections']} backpressure "
        "rejections",
        f"  sustained: {summary['wme_changes_per_second']:.0f} wme-changes/s, "
        f"{summary['firings_per_second']:.0f} firings/s",
        f"  latency: p50 {latency['p50'] * 1e3:.2f}ms  "
        f"p95 {latency['p95'] * 1e3:.2f}ms  p99 {latency['p99'] * 1e3:.2f}ms",
    ]
    if summary["errors"]:
        lines.append(f"  ERRORS: {summary['errors']}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="replay workload traces against a rule server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7410)
    parser.add_argument("--unix", help="connect over a unix socket instead")
    parser.add_argument(
        "--spawn", action="store_true",
        help="start an in-process server for the duration of the run",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--shared-session", action="store_true",
        help="all clients target one session (the backpressure scenario)",
    )
    parser.add_argument("--matcher", default="rete")
    parser.add_argument("--workers", type=int, default=None,
                        help="partitions for --matcher parallel")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="session queue bound (server default: 64)")
    parser.add_argument("--batches", type=int, default=DEFAULT_BATCHES)
    parser.add_argument("--chain-length", type=int, default=DEFAULT_CHAIN_LENGTH)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--trace", help="replay a saved trace file instead")
    parser.add_argument("--save-trace", help="write the generated trace as JSON")
    parser.add_argument("--out", help="write the run summary as JSON")
    args = parser.parse_args(argv)

    trace = load_trace(args.trace) if args.trace else None
    if args.save_trace:
        save_trace(
            trace
            if trace is not None
            else closure_trace(
                batches=args.batches,
                chain_length=args.chain_length,
                batch_size=args.batch_size,
            ),
            args.save_trace,
        )

    server = None
    try:
        if args.spawn:
            from .server import ServerThread

            server = ServerThread()
            address = server.address
        else:
            address = args.unix if args.unix else (args.host, args.port)

        trace_kwargs = {}
        if trace is None:
            trace_kwargs = {
                "batches": args.batches,
                "chain_length": args.chain_length,
                "batch_size": args.batch_size,
            }
        summary = run_load(
            address,
            clients=args.clients,
            trace=trace,
            shared_session=args.shared_session,
            matcher=args.matcher,
            workers=args.workers,
            max_pending=args.max_pending,
            **trace_kwargs,
        )
    finally:
        if server is not None:
            server.stop()

    print(render_summary(summary))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    return 1 if summary["errors"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
