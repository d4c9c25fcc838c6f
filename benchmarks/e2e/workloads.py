"""The five workloads: one rule program driven through different depths.

Runs are **fixed work**: the op counts below are constants, sized on the
reference host so that a timed region lasts about as long as
``--seconds`` asks, then frozen.  A faster engine finishes the same work
sooner; it does not do more of it, so firings, wme-changes and
``peak_rss_mb`` stay comparable between commits.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ops5 import (
    CompositeListener,
    EngineListener,
    Ops5Error,
    ProductionSystem,
    matcher_named,
)
from repro.serve import (
    DurabilityStore,
    ProcessRouterFleet,
    ProtocolError,
    RouterFleet,
    RuleClient,
    ServerError,
    ServerThread,
    Session,
)

import load
from load import LANE_ASSERTS, LANE_CHANGES, LANE_FIRINGS, LANE_LEFTOVER
from tracing import EngineProbe, Tracer

#: Every timed region is cut into this many segments of equal op count.
SEGMENTS = 20
#: Served workloads are closed loop with one client per core of the
#: reference host; client k drives the sessions placed on worker k.
CLIENTS = 2

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Traces and durability directories go here (ignored by git).
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "out", "e2e"
)


@dataclass
class Plan:
    """What one run does; a function of the arguments only."""

    workload: str
    seed: int
    #: ``--seconds`` x ``--scale``: multiplies the frozen per-second op counts.
    work: float
    #: ``--scale`` alone sizes the untimed preload (the WM regime).
    scale: float
    inject: Optional[str] = None

    def count(self, per_second: float, floor: int = 1) -> int:
        """Op count per segment for a frozen per-second rate."""
        return max(floor, round(per_second * self.work / SEGMENTS))


@dataclass
class Segment:
    """What one segment did."""

    changes: int = 0
    firings: int = 0
    attempted: int = 0
    failed: int = 0
    #: Seconds, one per unit of offered work.
    latencies: list[float] = field(default_factory=list)


def process_cpu_seconds(pid: int) -> float:
    """user+sys CPU of another process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_status_kb(pid: int, key: str) -> float:
    """A kB line (``VmHWM``) or a count (``Threads``) of ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


class Workload:
    """Set-up, equal segments of timed ops, post-run checks, tear-down."""

    name = ""
    #: What one latency sample is.
    unit_name = ""

    def __init__(self, plan: Plan, tracer: Optional[Tracer] = None) -> None:
        self.plan = plan
        self.tracer = tracer
        self.problems: list[str] = []

    def set_up(self) -> None:
        """Everything before the first timed op (cold caches)."""
        raise NotImplementedError

    def run_segment(self, index: int) -> Segment:
        raise NotImplementedError

    def seal(self) -> None:
        """The timed region just ended: read what the next step destroys."""
        self.rss_mb = self.peak_rss_mb()

    def finish(self) -> Segment:
        """Untimed ops after the timed region (kill + continuation)."""
        return Segment()

    def verify(self) -> list[str]:
        """Problems found comparing outputs with closed form and oracle."""
        return self.problems

    def layer_counters(self) -> dict:
        """Public counters of the layers below, for the traced run."""
        return {}

    def worker_pids(self) -> list[int]:
        return []

    def worker_cpu_seconds(self) -> float:
        return sum(process_cpu_seconds(pid) for pid in self.worker_pids())

    def cpu_seconds(self) -> float:
        return time.process_time() + self.worker_cpu_seconds()

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + sum(
            process_status_kb(pid, "VmHWM") / 1024.0 for pid in self.worker_pids()
        )

    def close(self) -> None:
        pass


# -- in-process workloads ---------------------------------------------------


def _close_matcher(matcher) -> None:
    close = getattr(matcher, "close", None)
    if close is not None:
        close()


class _DoneListener(EngineListener):
    """Stamps each lane's ``-done`` firing (the public on_cycle hook)."""

    def __init__(self) -> None:
        self.done_at: list[float] = []

    def on_cycle(self, cycle: int, fired) -> None:
        if fired.production.name.endswith("-done"):
            self.done_at.append(time.perf_counter())


class _InProcess(Workload):
    matcher: Callable[[], object] = staticmethod(lambda: matcher_named("compiled"))

    def build_engine(self, listener: Optional[EngineListener] = None) -> None:
        self.program = load.system_program()
        self.lanes = load.LaneSource(self.plan.seed)
        matcher = self.matcher()
        self.probe: Optional[EngineProbe] = None
        try:
            if self.tracer is not None:
                self.probe = EngineProbe(self.tracer, matcher)
                listeners = [self.probe.listener] + ([listener] if listener else [])
                self.system = ProductionSystem(
                    self.program.source,
                    matcher=self.probe.matcher,
                    strategy=self.probe.strategy,
                    listener=CompositeListener(listeners),
                )
            else:
                self.system = ProductionSystem(
                    self.program.source, matcher=matcher, listener=listener
                )
        except BaseException:
            _close_matcher(matcher)
            raise
        self.firings0 = self.changes0 = 0
        self.units_timed = 0

    def mark_timed_region(self) -> None:
        self.firings0 = self.system.total_firings
        self.changes0 = self.system.total_wme_changes
        self.cs_edits0 = self.cs_edits()

    def cs_edits(self) -> int:
        conflict_set = self.system.conflict_set
        return conflict_set.total_inserts + conflict_set.total_deletes

    def layer_counters(self) -> dict:
        matcher = self.system.matcher
        state_size = getattr(matcher, "state_size", None)
        scheduler = getattr(matcher, "scheduler_summary", None)
        return {
            "cs_edits": self.cs_edits() - self.cs_edits0,
            "state_size": state_size() if state_size is not None else 0,
            "scheduler": scheduler() if scheduler is not None else None,
        }

    def engine_counts(self) -> tuple[int, int]:
        return (
            self.system.total_firings - self.firings0,
            self.system.total_wme_changes - self.changes0,
        )

    def lane_changes(self, count: int) -> list[tuple]:
        """Asserts for *count* fresh lanes (with the requested defect)."""
        changes = load.asserts(self.lanes.lanes(count))
        if self.plan.inject == "wrong-firing" and self.units_timed == 1:
            # A lane whose first item carries a distractor's kind: its
            # mark never appears and a watch rule fires instead.
            _, cls, attrs = changes[0]
            changes[0] = ("assert", cls, {**attrs, "kind": "x0"})
        return changes

    def unit(self) -> list[float]:
        """One unit of offered work; its latency samples in seconds."""
        raise NotImplementedError

    def run_segment(self, index: int) -> Segment:
        segment = Segment()
        tracer = self.tracer
        firings0, changes0 = self.engine_counts()
        for i in range(self.per_segment):
            segment.attempted += self.samples_per_unit
            if tracer is not None:
                tracer.sampling = self.span_detail and i < 2
                tracer.unit = self.units_timed
            started = time.perf_counter_ns()
            try:
                if self.plan.inject == "failed-op" and index == 1 and i == 0:
                    self.system.apply_changes([("retract", -1)])
                latencies = self.unit()
            except Ops5Error as error:
                segment.failed += self.samples_per_unit
                self.problems.append(f"{self.name} unit {self.units_timed}: {error}")
                continue
            if tracer is not None:
                tracer.sampling = i < 2
                tracer.add("bench.unit", started, time.perf_counter_ns())
            segment.latencies.extend(latencies)
            # A lane that never finished misses every latency bound.
            segment.failed += self.samples_per_unit - len(latencies)
            self.units_timed += 1
        if tracer is not None:
            tracer.sampling = False
        firings, changes = self.engine_counts()
        segment.firings, segment.changes = firings - firings0, changes - changes0
        return segment

    def check_closed_form(self, lanes: int, wm_left: int) -> list[str]:
        """Engine counts over the timed region against the closed form.

        Every timed lane's leftovers are retracted inside the region
        too (by the wave that pushes it out of the window, or at the
        end of its burst).
        """
        problems = list(self.problems)
        firings, changes = self.engine_counts()
        expected = {
            "firings": (firings, lanes * LANE_FIRINGS),
            "wme-changes": (changes, lanes * (LANE_CHANGES + LANE_LEFTOVER)),
            "WMEs left": (len(self.system.memory), wm_left),
        }
        for what, (got, want) in expected.items():
            if got != want:
                problems.append(f"{self.name}: {got} {what}, closed form {want}")
        return problems

    def close(self) -> None:
        system = getattr(self, "system", None)
        if system is not None:
            _close_matcher(system.matcher)
            self.system = None


class MatchSteady(_InProcess):
    """Waves of 2 lanes through a sliding window over a large WM."""

    name = "match_steady"
    unit_name = "wave"
    samples_per_unit = 1
    span_detail = True
    WAVE_LANES = 2
    WINDOW_WAVES = 400
    WARMUP_WAVES = 10
    WAVES_PER_SECOND = 200.0

    @property
    def preload_waves(self) -> int:
        return max(8, round(self.WINDOW_WAVES * self.plan.scale))

    def set_up(self) -> None:
        self.build_engine()
        self.window: list[list[int]] = []
        self.per_segment = self.plan.count(self.WAVES_PER_SECOND, floor=2)
        for _ in range(self.preload_waves + self.WARMUP_WAVES):
            self.wave()
        self.mark_timed_region()

    def wave(self):
        changes = self.lane_changes(self.WAVE_LANES)
        if len(self.window) >= self.preload_waves:
            changes += [("retract", tag) for tag in self.window.pop(0)]
        batch = self.system.apply_changes(changes)
        result = self.system.run()
        self.window.append(load.leftover_timetags(batch.timetags, result.cycles))
        return changes, result

    def unit(self) -> list[float]:
        started = time.perf_counter()
        self.wave()
        return [time.perf_counter() - started]

    def verify(self) -> list[str]:
        return self.check_closed_form(
            self.units_timed * self.WAVE_LANES,
            self.preload_waves * self.WAVE_LANES * LANE_LEFTOVER,
        )


class ParallelSteady(MatchSteady):
    """``match_steady``'s op stream on the 2-shard thread backend."""

    name = "parallel_steady"
    WAVES_PER_SECOND = 100.0
    #: Timed waves the oracle replays on top of preload and warm-up.
    ORACLE_WAVES = 40
    matcher = staticmethod(
        lambda: matcher_named("parallel", workers=2, transport="local")
    )

    def set_up(self) -> None:
        self.sent: list[list[tuple]] = []
        self.rows: list[list] = []
        super().set_up()

    def wave(self):
        changes, result = super().wave()
        if len(self.sent) < self.preload_waves + self.WARMUP_WAVES + self.ORACLE_WAVES:
            self.sent.append(changes)
            self.rows.append(load.firing_rows(result.cycles))
        return changes, result

    def verify(self) -> list[str]:
        problems = super().verify()
        oracle = load.Reference(self.program.source)
        for index, changes in enumerate(self.sent):
            if oracle.step(changes) != self.rows[index]:
                problems.append(
                    f"{self.name}: wave {index} fired differently from the "
                    "serial compiled engine"
                )
                break
        return problems


class ResolveWide(_InProcess):
    """Bursts of many lanes in one batch: a wide conflict set."""

    name = "resolve_wide"
    unit_name = "lane in burst"
    span_detail = False  # a burst is ~10^4 spans; keep totals and the burst span
    BURST_LANES = 100
    BURSTS_PER_SECOND = 2.0

    def set_up(self) -> None:
        self.done = _DoneListener()
        self.build_engine(listener=self.done)
        self.per_segment = self.plan.count(self.BURSTS_PER_SECOND)
        # --scale shrinks the bursts (their cost is quadratic in lanes);
        # --seconds and the traced run's quarter change only their number.
        self.samples_per_unit = max(
            4, round(self.BURST_LANES * min(1.0, self.plan.scale) ** 0.5)
        )
        self.unit()  # warm-up
        self.mark_timed_region()

    def unit(self) -> list[float]:
        changes = self.lane_changes(self.samples_per_unit)
        self.done.done_at.clear()
        arrived = time.perf_counter()
        batch = self.system.apply_changes(changes)
        result = self.system.run()
        # Leftovers go, so every burst meets the same working memory.
        self.system.apply_changes(
            [
                ("retract", tag)
                for tag in load.leftover_timetags(batch.timetags, result.cycles)
            ]
        )
        return [at - arrived for at in self.done.done_at]

    def verify(self) -> list[str]:
        return self.check_closed_form(self.units_timed * self.samples_per_unit, 0)


# -- served workloads ---------------------------------------------------------


class Target:
    """Where a request stream is sent: one depth of the stack.

    The served workloads each have their own depth; the ledger replays
    their stream at every shallower one too.
    """

    name = ""
    #: In-process targets run the clients' shares one after the other.
    threaded = True

    def __init__(self, source: str, tracer: Optional[Tracer] = None) -> None:
        self.source = source
        #: Only the bare-engine rung can take timing proxies.
        self.tracer = tracer

    def create(self, name: str) -> Optional[int]:
        """Create a compiled-matcher session; the worker it landed on."""
        raise NotImplementedError

    def destroy(self, name: str) -> None:
        raise NotImplementedError

    def connect(self) -> Callable[[dict], dict]:
        """A closed-loop client: ``send(request) -> reply``, raising on failure."""
        raise NotImplementedError

    def engine_changes(self) -> int:
        """wme-changes as the engines counted them, over all sessions."""
        raise NotImplementedError

    def stats(self) -> dict:
        """The ``stats`` reply, where there is a server to ask."""
        return {}

    def counters(self) -> dict:
        """Cumulative kernel counters, where the engines are in reach."""
        return {}

    def worker_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        pass


class EngineTarget(Target):
    """Rung 1: a bare ``ProductionSystem`` per session."""

    name = "ops5"
    threaded = False

    def __init__(self, source: str, tracer: Optional[Tracer] = None) -> None:
        super().__init__(source, tracer)
        self.systems: dict[str, ProductionSystem] = {}

    def create(self, name: str) -> Optional[int]:
        matcher = matcher_named("compiled")
        if self.tracer is not None:
            probe = EngineProbe(self.tracer, matcher)
            self.systems[name] = ProductionSystem(
                self.source,
                matcher=probe.matcher,
                strategy=probe.strategy,
                listener=probe.listener,
            )
        else:
            self.systems[name] = ProductionSystem(self.source, matcher=matcher)
        return None

    def destroy(self, name: str) -> None:
        del self.systems[name]

    def engine_changes(self) -> int:
        return sum(system.total_wme_changes for system in self.systems.values())

    def counters(self) -> dict:
        sets = [system.conflict_set for system in self.systems.values()]
        return {
            "cs_edits": sum(cs.total_inserts + cs.total_deletes for cs in sets),
            "state_size": sum(s.matcher.state_size() for s in self.systems.values()),
        }

    def connect(self) -> Callable[[dict], dict]:
        def send(request: dict) -> dict:
            system = self.systems[request["session"]]
            batch = system.apply_changes(load.asserts(request["wmes"]))
            reply: dict = {"ok": True, "timetags": batch.timetags}
            if request.get("run"):
                reply["run"] = {"fired": system.run().fired}
            return reply

        return send


class SessionTarget(Target):
    """Rung 2: ``Session.perform`` called directly (no queue, no thread hop)."""

    name = "serve.session"
    threaded = False

    def __init__(self, source: str, tracer: Optional[Tracer] = None) -> None:
        super().__init__(source, tracer)
        self.sessions: dict[str, Session] = {}

    def create(self, name: str) -> Optional[int]:
        self.sessions[name] = Session(name, program=self.source, matcher="compiled")
        return None

    def destroy(self, name: str) -> None:
        self.sessions.pop(name).close_resources()

    def engine_changes(self) -> int:
        return sum(s.system.total_wme_changes for s in self.sessions.values())

    def connect(self) -> Callable[[dict], dict]:
        return lambda request: self.sessions[request["session"]].perform(request)

    def close(self) -> None:
        while self.sessions:
            self.sessions.popitem()[1].close_resources()


class _SocketTarget(Target):
    """Rungs 3-6: anything a ``RuleClient`` can reach."""

    def __init__(self, source: str, tracer: Optional[Tracer] = None) -> None:
        super().__init__(source, tracer)
        self.retries = 0
        self.clients: list[RuleClient] = []
        self.directory: Optional[str] = None
        self.fleet = None
        try:
            self.fleet = self.start()
            self.control = self.client()
        except BaseException:
            self.close()
            raise

    def start(self):
        raise NotImplementedError

    def durability_dir(self) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR)
        return self.directory

    def client(self) -> RuleClient:
        client = RuleClient(self.fleet.address)
        self.clients.append(client)
        return client

    def create(self, name: str) -> Optional[int]:
        reply = self.control.request(
            "create_session", program=self.source, matcher="compiled", name=name
        )
        return reply.get("worker")

    def destroy(self, name: str) -> None:
        self.control.destroy_session(name)

    def _retried(self, rejection) -> None:
        self.retries += 1

    def connect(self) -> Callable[[dict], dict]:
        client = self.client()

        def send(request: dict) -> dict:
            fields = dict(request)
            return client.call(fields.pop("op"), on_retry=self._retried, **fields)

        return send

    def stats(self) -> dict:
        """The ``stats`` reply: public counters of every layer behind the socket."""
        return self.control.stats()

    def engine_changes(self) -> int:
        return int(self.stats()["totals"]["wme_changes"])

    def reconnects(self) -> int:
        return sum(client.reconnects for client in self.clients)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


class ServerTarget(_SocketTarget):
    """Rung 3: one ``ServerThread``, no router."""

    name = "serve.server"

    def start(self):
        return ServerThread()


class RouterTarget(_SocketTarget):
    """Rung 4: ``RouterFleet(workers=2)``, thread workers, not durable."""

    name = "serve.router"

    def start(self):
        return RouterFleet(workers=CLIENTS)


#: serve_durable's store and checkpoint settings, shared by rungs 5 and 6.
DURABLE = {"fsync": True, "commit_window": 0.005}
#: Not the default 16: a checkpoint on 12.5% of requests puts
#: latency_ms_p95 firmly on a checkpoint-bearing request and p50 firmly off.
CHECKPOINT_EVERY = 8


class DurableRouterTarget(_SocketTarget):
    """Rung 5: the thread fleet with a durability directory."""

    name = "serve.durability"

    def start(self):
        self.store = DurabilityStore(self.durability_dir(), **DURABLE)
        return RouterFleet(
            workers=CLIENTS, durability=self.store, checkpoint_every=CHECKPOINT_EVERY
        )

    def close(self) -> None:
        store = getattr(self, "store", None)
        super().close()
        if store is not None:
            store.close()


class ProcessTarget(_SocketTarget):
    """Rung 6: real worker processes, WAL, checkpoints."""

    name = "serve.fleet"

    def start(self):
        return ProcessRouterFleet(
            workers=CLIENTS,
            durability_dir=self.durability_dir(),
            checkpoint_every=CHECKPOINT_EVERY,
            **DURABLE,
        )

    def worker_pids(self) -> list[int]:
        pids = [self.fleet.worker_pid(index) for index in range(CLIENTS)]
        return [pid for pid in pids if pid is not None]


#: The ledger's rungs, shallowest first.
RUNGS = (
    EngineTarget,
    SessionTarget,
    ServerTarget,
    RouterTarget,
    DurableRouterTarget,
    ProcessTarget,
)

#: What a failed request raises: a refusal, a backpressure budget spent,
#: a broken frame or a dead socket.
REQUEST_ERRORS = (ServerError, ProtocolError, OSError, Ops5Error)


class _Served(Workload):
    """N sessions behind a target, CLIENTS closed-loop clients."""

    unit_name = "request"
    SESSIONS = 0
    #: Lanes carried by one request (0: one WME per request, 8 per lane).
    LANES_PER_REQUEST = 0
    REQUESTS_PER_SECOND = 0.0
    #: Untimed lanes (or requests) per session before the timed region.
    WARMUP_PER_SESSION = 1
    target_class: type = Target

    def __init__(
        self,
        plan: Plan,
        tracer: Optional[Tracer] = None,
        target_class: Optional[type] = None,
    ) -> None:
        super().__init__(plan, tracer)
        if target_class is not None:
            self.target_class = target_class
        self.target: Optional[Target] = None

    # -- set-up ---------------------------------------------------------------

    def set_up(self) -> None:
        self.program = load.system_program()
        self.target = self.target_class(self.program.source, self.tracer)
        self.per_client = self.place_sessions()
        #: The sample session, on worker 0 (the one serve_durable kills).
        self.sample = self.per_client[0][0]
        self.sample_sent: list[dict] = []
        self.sample_rows: list[Optional[list]] = []
        self.sources = {
            name: load.LaneSource(self.plan.seed, prefix=f"{name}-")
            for names in self.per_client
            for name in names
        }
        self.sends = [self.target.connect() for _ in range(CLIENTS)]
        self.cursor = [0] * CLIENTS
        self.lock = threading.Lock()
        self.lanes_done = self.firings = 0
        #: Every 16th (request, reply) of a traced pass, for the protocol layer.
        self.recorded: list[tuple[dict, dict]] = []
        #: Per-request (start_ns, end_ns): filled by the client threads,
        #: folded into the tracer by the main thread between segments.
        self.spans: list[tuple[int, int]] = []
        # Requests per client per segment: whole lanes only.
        whole = 1 if self.LANES_PER_REQUEST else LANE_ASSERTS
        share = self.plan.count(self.REQUESTS_PER_SECOND / CLIENTS)
        self.per_segment = max(whole, share // whole * whole)
        warm = Segment()
        for client in range(CLIENTS):
            sessions = len(self.per_client[client])
            self.drive(client, sessions * whole * self.WARMUP_PER_SESSION, warm)
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up failed: {self.problems}")
        self.changes0 = self.target.engine_changes()
        self.firings0, self.lanes0 = self.firings, self.lanes_done
        self.cs_edits0 = self.target.counters().get("cs_edits", 0)
        self.cpu0 = (self.cpu_seconds(), self.worker_cpu_seconds())

    def place_sessions(self) -> list[list[str]]:
        """Create sessions until each worker holds its equal share.

        The router places a session by hashing its name; the create
        reply says where.  A session landing on a full worker is
        destroyed again, so client k drives exactly the sessions of
        worker k and no client finishes early.
        """
        share = self.SESSIONS // CLIENTS
        rng = load.random.Random(f"e2e-{self.plan.seed}-sessions")
        per_client: list[list[str]] = [[] for _ in range(CLIENTS)]
        created = 0
        while any(len(names) < share for names in per_client):
            name = f"s{created}-{rng.randrange(16 ** 4):04x}"
            worker = self.target.create(name)
            if worker is None:
                worker = created % CLIENTS
            created += 1
            if len(per_client[worker]) < share:
                per_client[worker].append(name)
            else:
                self.target.destroy(name)
        for names in per_client:
            rng.shuffle(names)  # the order the client visits them
        return per_client

    # -- the request stream ---------------------------------------------------

    def next_requests(self, session: str, spoil: bool) -> list[dict]:
        """The requests carrying *session*'s next lane (or lanes)."""
        source = self.sources[session]
        wmes = source.lanes(max(1, self.LANES_PER_REQUEST))
        if spoil:
            # A lane whose first item carries a distractor's kind: its
            # mark never appears and a watch rule fires instead.
            wmes[0] = (wmes[0][0], {**wmes[0][1], "kind": "x0"})
        if self.LANES_PER_REQUEST:
            return [self.request(session, wmes, run=True)]
        return [
            self.request(session, [wme], run=index == len(wmes) - 1)
            for index, wme in enumerate(wmes)
        ]

    @staticmethod
    def request(session: str, wmes, run: bool) -> dict:
        message = {
            "op": "assert",
            "session": session,
            "wmes": [[cls, attrs] for cls, attrs in wmes],
        }
        if run:
            message["run"] = True
        return message

    def drive(
        self,
        client: int,
        requests: int,
        segment: Segment,
        inject: Optional[str] = None,
        only: Optional[str] = None,
    ) -> None:
        """Client *client* sends its next *requests* requests, closed loop."""
        send = self.sends[client]
        names = self.per_client[client]
        traced = self.tracer is not None
        sent = failed = firings = lanes = 0
        latencies: list[float] = []
        while sent < requests:
            session = only or names[self.cursor[client] % len(names)]
            self.cursor[client] += 1
            for message in self.next_requests(session, inject == "wrong-firing"):
                if inject == "failed-op":
                    message = {**message, "session": "no-such-session"}
                inject = None
                started = time.perf_counter_ns()
                try:
                    reply = send(message)
                except REQUEST_ERRORS as error:
                    reply = None
                    with self.lock:
                        self.problems.append(
                            f"{self.name}: request to {message['session']!r} "
                            f"failed: {type(error).__name__}: {error}"
                        )
                ended = time.perf_counter_ns()
                sent += 1
                if reply is None:
                    failed += 1
                    continue
                latencies.append((ended - started) / 1e9)
                ran = reply.get("run")
                if ran is not None:
                    firings += ran["fired"]
                    lanes += max(1, self.LANES_PER_REQUEST)
                if session == self.sample:
                    self.sample_sent.append(message)
                    if ran is not None:
                        self.sample_rows.append(ran.get("firings"))
                if traced:
                    self.spans.append((started, ended))
                    if sent % 16 == 1:
                        self.recorded.append((message, reply))
        with self.lock:
            segment.attempted += sent
            segment.failed += failed
            segment.latencies.extend(latencies)
            segment.firings += firings
            segment.changes += lanes * LANE_CHANGES
            self.firings += firings
            self.lanes_done += lanes

    def run_segment(self, index: int) -> Segment:
        segment = Segment()
        inject = [self.plan.inject if index == 1 else None] + [None] * (CLIENTS - 1)
        if self.target.threaded:
            threads = [
                threading.Thread(
                    target=self.drive,
                    args=(client, self.per_segment, segment, inject[client]),
                    name=f"e2e-client-{client}",
                    daemon=True,
                )
                for client in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for client in range(CLIENTS):
                self.drive(client, self.per_segment, segment, inject[client])
        if self.tracer is not None:
            for position, (started, ended) in enumerate(self.spans):
                self.tracer.sampling = position < 16 * CLIENTS
                self.tracer.unit = index
                self.tracer.add("client.request", started, ended)
            self.tracer.sampling = False
            self.spans.clear()
        return segment

    # -- checks ---------------------------------------------------------------

    def seal(self) -> None:
        # A killed worker takes its high-water mark and its engines'
        # counters with it.
        super().seal()
        self.changes = self.target.engine_changes() - self.changes0
        self.lanes_at_seal = self.lanes_done
        if self.tracer is not None:
            self.stats_at_seal = self.target.stats()
            total, workers = self.cpu_seconds(), self.worker_cpu_seconds()
            #: None where the workers are threads of this process.
            self.worker_cpu_share = (
                (workers - self.cpu0[1]) / (total - self.cpu0[0])
                if self.worker_pids()
                else None
            )
            # Session threads here, every thread of each worker process there.
            self.threads_at_seal = sum(
                thread.name.startswith("repro-serve-") for thread in threading.enumerate()
            ) + sum(process_status_kb(pid, "Threads") for pid in self.worker_pids())

    def layer_counters(self) -> dict:
        counters = self.target.counters()
        if counters:
            counters["cs_edits"] -= self.cs_edits0
        return counters

    def worker_pids(self) -> list[int]:
        return self.target.worker_pids() if self.target is not None else []

    def verify(self) -> list[str]:
        problems = list(self.problems)
        lanes = self.lanes_done - self.lanes0
        firings = self.firings - self.firings0
        if firings != lanes * LANE_FIRINGS:
            problems.append(
                f"{self.name}: {firings} firings in the replies, closed form "
                f"{lanes * LANE_FIRINGS}"
            )
        timed_lanes = self.lanes_at_seal - self.lanes0
        if self.changes != timed_lanes * LANE_CHANGES:
            problems.append(
                f"{self.name}: the engines counted {self.changes} wme-changes, "
                f"closed form {timed_lanes * LANE_CHANGES}"
            )
        if any(rows is None for rows in self.sample_rows):
            return problems  # the bare-engine rung carries no firing rows
        oracle = load.Reference(self.program.source)
        runs = iter(self.sample_rows)
        for index, message in enumerate(self.sample_sent):
            ran = bool(message.get("run"))
            rows = oracle.step(load.asserts(message["wmes"]), run=ran)
            if ran and rows != next(runs):
                problems.append(
                    f"{self.name}: session {self.sample!r} request {index} fired "
                    "differently from the serial compiled engine"
                )
                break
        return problems

    def close(self) -> None:
        if self.target is not None:
            self.target.close()
            self.target = None


class ServeChatty(_Served):
    """Many small requests: the hops around the engine dominate."""

    name = "serve_chatty"
    SESSIONS = 32
    LANES_PER_REQUEST = 0
    REQUESTS_PER_SECOND = 640.0
    # On the 2-core host a thread fleet starts with its threads packed
    # on one core and, after 2-5k requests, the kernel spreads them; from
    # then on every GIL hand-off is a cross-core futex wait and requests
    # cost about twice as much, for the life of the process.  The timed
    # region must lie wholly in that steady regime, so each set-up sends
    # 2560 requests first (three set-ups: 7680 before the first timed op).
    WARMUP_PER_SESSION = 10
    target_class = RouterTarget


class ServeDurable(_Served):
    """Few large durable requests on real worker processes."""

    name = "serve_durable"
    SESSIONS = 8
    LANES_PER_REQUEST = 4
    REQUESTS_PER_SECOND = 70.0
    target_class = ProcessTarget

    def finish(self) -> Segment:
        """Kill worker 0; the next op on its sample session must continue."""
        segment = Segment()
        if isinstance(self.target, ProcessTarget):
            self.recover_ms = self.kill_and_continue(0, segment)
        return segment

    def kill_and_continue(self, worker: int, segment: Segment) -> float:
        """SIGKILL *worker*, then one request to a session of it: kill ->
        first reply, in ms.  The reply joins the sample session's record
        when it is the sample's, so the oracle checks the continuation."""
        started = time.perf_counter()
        self.target.fleet.kill_worker(worker)
        self.drive(worker, 1, segment, only=self.per_client[worker][0])
        return (time.perf_counter() - started) * 1e3


#: Registry, in BENCHMARK.json's order.  Names are permanent.
WORKLOADS = {
    factory.name: factory
    for factory in (MatchSteady, ResolveWide, ParallelSteady, ServeChatty, ServeDurable)
}
