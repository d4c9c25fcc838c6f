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
  path for failed workers; :class:`RouterFleet` embeds a whole
  store-less fleet on one thread, the test and benchmark harness;
* :mod:`~repro.serve.client` -- the blocking reference client;
* :mod:`~repro.serve.durability` -- the per-session write-ahead
  journal + checkpoint store that makes worker death survivable;
* :mod:`~repro.serve.fleet` -- real worker OS processes under a
  supervisor (heartbeat, fencing, restart backoff, rolling restarts):
  ``repro serve --workers N``;
* :mod:`~repro.serve.stats` -- the counters and percentile windows
  behind the ``stats`` requests.

See ``docs/serve.md`` for the protocol and lifecycle reference and
``docs/fault-tolerance.md`` for the durability/recovery contract.
"""

from .._lazy import lazy_exports

#: The package's names by submodule, each imported on first use: a
#: ``repro serve`` worker process never loads the client, the router or
#: the supervisor.
_EXPORTS = {
    ".client": ("Address", "BackpressureError", "RuleClient", "ServerError"),
    ".durability": ("DurabilityStore", "RecoveryBundle", "validate_engine_state"),
    ".fleet": ("ProcessFleet", "ProcessRouterFleet", "WorkerProcess"),
    ".protocol": ("MAX_FRAME", "Disconnected", "ProtocolError"),
    ".router": ("RouterFleet", "RouterThread", "RuleRouter", "WorkerLink"),
    ".server": ("RuleServer", "ServerThread", "run_server"),
    ".session": ("DEFAULT_MAX_PENDING", "QuotaExceeded", "Session", "SessionManager"),
    ".stats": ("LatencyWindow", "Telemetry"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
