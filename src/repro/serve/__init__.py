"""Engine-as-a-service: the long-running, multi-session rule server.

The paper measures *sustained* execution speed -- wme-changes/sec and
firings/sec over whole runs (Section 6) -- and the roadmap's north star
is a system that serves heavy traffic, not one that runs a single
program per process.  This package is that serving layer:

* :mod:`~repro.serve.protocol` -- length-prefixed JSON frames on a
  local socket;
* :mod:`~repro.serve.session` -- one :class:`ProductionSystem` per
  session behind a bounded queue with explicit backpressure;
* :mod:`~repro.serve.loop` -- what server and router share: the
  listening endpoint and the one-event-loop-on-a-thread helper;
* :mod:`~repro.serve.server` -- the asyncio front-end
  (:class:`RuleServer`), plus :class:`ServerThread` for embedding;
* :mod:`~repro.serve.router` -- the front-door router
  (:class:`RuleRouter`) hashing sessions over N workers, with
  fleet-wide tenant quotas, live session migration, and one recovery
  path for failed workers; :class:`RouterFleet` embeds the whole
  topology;
* :mod:`~repro.serve.client` -- the blocking reference client;
* :mod:`~repro.serve.durability` -- the per-session write-ahead
  journal + checkpoint store that makes worker death survivable;
* :mod:`~repro.serve.fleet` -- real worker OS processes under a
  supervisor (heartbeat, fencing, restart backoff, rolling restarts);
* :mod:`~repro.serve.loadgen` -- trace replay from N concurrent
  clients, measuring sustained throughput and tail latency;
* :mod:`~repro.serve.stats` -- the counters and percentile windows
  behind the ``stats`` requests.

See ``docs/serve.md`` for the protocol and lifecycle reference and
``docs/fault-tolerance.md`` for the durability/recovery contract.
"""

from .client import Address, BackpressureError, RuleClient, ServerError
from .durability import DurabilityStore, RecoveryBundle, validate_engine_state
from .fleet import ProcessFleet, ProcessRouterFleet, WorkerProcess
from .protocol import MAX_FRAME, Disconnected, ProtocolError
from .router import RouterFleet, RouterThread, RuleRouter, WorkerLink
from .server import RuleServer, ServerThread, run_server
from .session import (
    DEFAULT_MAX_PENDING,
    QuotaExceeded,
    Session,
    SessionManager,
    build_matcher,
)
from .stats import LatencyWindow, Telemetry

__all__ = [
    "Address",
    "BackpressureError",
    "DEFAULT_MAX_PENDING",
    "Disconnected",
    "DurabilityStore",
    "LatencyWindow",
    "MAX_FRAME",
    "ProcessFleet",
    "ProcessRouterFleet",
    "ProtocolError",
    "QuotaExceeded",
    "RecoveryBundle",
    "RouterFleet",
    "RouterThread",
    "RuleClient",
    "RuleRouter",
    "RuleServer",
    "ServerError",
    "ServerThread",
    "Session",
    "SessionManager",
    "Telemetry",
    "WorkerLink",
    "WorkerProcess",
    "build_matcher",
    "run_server",
    "validate_engine_state",
]
