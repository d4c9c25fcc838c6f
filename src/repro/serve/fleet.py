"""Process supervision: real OS worker processes behind the router.

The router already speaks sockets; this module spawns its workers as
real processes.  A :class:`WorkerProcess` launches one
``python -m repro serve`` worker as a child process on an ephemeral
port and parses its announce line; a
:class:`ProcessFleet` owns N of them with fencing (SIGKILL before the
replacement binds, so a wedged-but-alive worker can never answer beside
its successor), exponential restart backoff, and a per-worker restart
budget; :class:`ProcessRouterFleet` wires the fleet to a durable
:class:`~repro.serve.router.RuleRouter` so a SIGKILLed worker's
sessions come back from checkpoint + journal tail on the respawned
process (docs/fault-tolerance.md).

Supervision is heartbeat/liveness detection, fence, respawn with
backoff, restore, and a structured event trail; the unit is a whole
rule-server process: one OS thread, its event loop, hosting every
session of the worker.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

from ..ops5 import Ops5Error

__all__ = ["ProcessFleet", "ProcessRouterFleet", "WorkerProcess"]

#: Seconds a fresh worker process gets to bind its socket and announce.
SPAWN_TIMEOUT = 30.0

#: Restart backoff: base * 2**restarts, capped.
DEFAULT_RESTART_BACKOFF = 0.2
DEFAULT_RESTART_BACKOFF_MAX = 5.0

#: Respawns per worker slot before the supervisor gives up on it.
DEFAULT_MAX_RESTARTS = 5


def _worker_environment() -> dict:
    """The child's env: this interpreter's ``repro`` must be importable."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else f"{package_root}{os.pathsep}{existing}"
    )
    return env


class WorkerProcess:
    """One rule-server worker as a child OS process.

    The worker is the unmodified ``repro serve`` CLI entry point bound
    to an ephemeral port; its one-line announce (``serving on
    host:port``) is parsed from stdout, after which a drain thread keeps
    the pipe from filling.  SIGKILL-ing the process loses every session
    it hosts -- which is exactly the failure the durability layer exists
    to undo.
    """

    def __init__(
        self,
        max_pending: Optional[int] = None,
        default_tenant_quota: Optional[int] = None,
        spawn_timeout: float = SPAWN_TIMEOUT,
    ) -> None:
        command = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
        if max_pending is not None:
            command += ["--max-pending", str(max_pending)]
        if default_tenant_quota is not None:
            command += ["--tenant-quota", str(default_tenant_quota)]
        self.command = command
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_worker_environment(),
            text=True,
        )
        try:
            self.address = self._await_announce(spawn_timeout)
        except BaseException:  # an interrupt mid-spawn must not orphan the child
            self.kill()
            raise
        self._drain = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drain.start()

    def _await_announce(self, timeout: float) -> tuple:
        """Parse ``serving on host:port`` from the child's stdout."""
        deadline = time.monotonic() + timeout
        result: dict = {}

        def read() -> None:
            line = self.process.stdout.readline()
            result["line"] = line

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=max(0.0, deadline - time.monotonic()))
        line = result.get("line", "")
        if reader.is_alive() or not line.startswith("serving on "):
            self.kill()
            raise Ops5Error(
                f"worker process did not announce within {timeout}s "
                f"(got {line!r})"
            )
        host, _, port = line[len("serving on "):].strip().rpartition(":")
        try:
            return (host, int(port))
        except ValueError:
            self.kill()
            raise Ops5Error(f"unparseable worker announce {line!r}") from None

    def _drain_stdout(self) -> None:
        try:
            for _ in self.process.stdout:
                pass
        except ValueError:  # pipe closed during kill
            pass

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL -- the fence, and the chaos harness's weapon."""
        if self.alive:
            try:
                self.process.kill()
            except OSError:
                pass
        self.process.wait()

    def terminate(self, timeout: float = 5.0) -> None:
        """Polite stop (SIGTERM), escalating to SIGKILL on timeout."""
        if self.alive:
            try:
                self.process.terminate()
            except OSError:
                pass
            try:
                self.process.wait(timeout=timeout)
                return
            except subprocess.TimeoutExpired:
                pass
        self.kill()


class ProcessFleet:
    """N worker processes with fencing, backoff, and restart budgets."""

    def __init__(
        self,
        workers: int = 2,
        max_pending: Optional[int] = None,
        default_tenant_quota: Optional[int] = None,
        restart_backoff: float = DEFAULT_RESTART_BACKOFF,
        restart_backoff_max: float = DEFAULT_RESTART_BACKOFF_MAX,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ) -> None:
        if workers < 1:
            raise Ops5Error("a process fleet needs at least one worker")
        self.max_pending = max_pending
        self.default_tenant_quota = default_tenant_quota
        self.restart_backoff = restart_backoff
        self.restart_backoff_max = restart_backoff_max
        self.max_restarts = max_restarts
        self.restarts: list[int] = [0] * workers
        self.events: list[dict] = []
        #: Guards shared state (processes/restarts/events) -- held only
        #: for brief reads/writes, never across a sleep or a spawn, so
        #: snapshot() cannot stall behind a multi-second respawn.
        self._lock = threading.Lock()
        #: Per-slot spawn serialisation: concurrent respawn/restart of
        #: the same worker index must not race each other.
        self._slot_locks = [threading.Lock() for _ in range(workers)]
        self.processes: list[Optional[WorkerProcess]] = []
        try:
            for _ in range(workers):
                self.processes.append(self._spawn())
        except BaseException:
            self.stop()
            raise

    def _spawn(self) -> WorkerProcess:
        return WorkerProcess(
            max_pending=self.max_pending,
            default_tenant_quota=self.default_tenant_quota,
        )

    @property
    def addresses(self) -> list:
        return [
            process.address if process is not None else None
            for process in self.processes
        ]

    def pid(self, index: int) -> Optional[int]:
        process = self.processes[index]
        return process.pid if process is not None else None

    def alive(self, index: int) -> bool:
        process = self.processes[index]
        return process is not None and process.alive

    def fence(self, index: int) -> None:
        """Guarantee the old incarnation is dead before its successor
        binds: a wedged-but-alive worker answering beside the respawn
        would fork the session history."""
        process = self.processes[index]
        if process is not None:
            process.kill()

    def kill(self, index: int) -> None:
        """SIGKILL worker *index* (the chaos harness entry point)."""
        self.fence(index)

    def respawn(self, index: int) -> Optional[tuple]:
        """Fence, back off, and relaunch worker *index*.

        Returns the new address, or None once the slot's restart budget
        is exhausted (the router then restores its sessions onto the
        surviving workers instead).  Thread-safe: the router calls this
        from an executor thread while its loop keeps serving.  The
        backoff sleep and the spawn happen under the slot's own lock
        only -- the fleet-wide lock is never held across them, so
        ``snapshot()`` (and with it the router's ``stats`` op) stays
        responsive during recovery.
        """
        with self._slot_locks[index]:
            self.fence(index)
            with self._lock:
                if self.restarts[index] >= self.max_restarts:
                    self.processes[index] = None
                    self.events.append(
                        {
                            "type": "restart_budget_exhausted",
                            "worker": index,
                            "restarts": self.restarts[index],
                            "time": time.time(),
                        }
                    )
                    return None
                backoff = min(
                    self.restart_backoff * (2 ** self.restarts[index]),
                    self.restart_backoff_max,
                )
                self.restarts[index] += 1
                restarts = self.restarts[index]
            time.sleep(backoff)
            process = self._spawn()
            with self._lock:
                self.processes[index] = process
                self.events.append(
                    {
                        "type": "respawned",
                        "worker": index,
                        "pid": process.pid,
                        "backoff": backoff,
                        "restarts": restarts,
                        "time": time.time(),
                    }
                )
            return process.address

    def restart(self, index: int) -> tuple:
        """Graceful replacement (rolling restarts): terminate, relaunch.

        Unlike :meth:`respawn` this does not consume the crash-restart
        budget -- an operator-requested restart is not a failure.
        """
        with self._slot_locks[index]:
            process = self.processes[index]
            if process is not None:
                process.terminate()
            process = self._spawn()
            with self._lock:
                self.processes[index] = process
                self.events.append(
                    {
                        "type": "restarted",
                        "worker": index,
                        "pid": process.pid,
                        "time": time.time(),
                    }
                )
            return process.address

    def stop(self) -> None:
        for process in self.processes:
            if process is not None:
                process.terminate()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "workers": len(self.processes),
                "alive": [self.alive(i) for i in range(len(self.processes))],
                "pids": [self.pid(i) for i in range(len(self.processes))],
                "restarts": list(self.restarts),
                "max_restarts": self.max_restarts,
                "events": list(self.events),
            }

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ProcessRouterFleet:
    """The durable scale-out topology: real worker processes, a durable
    router, and the supervisor wiring between them.

    ``repro serve --workers N --processes`` builds exactly this.  Every
    placed session survives ``kill -9`` of its worker: accepted ops are
    journaled by the router before the reply leaves, checkpoints bound
    the replay tail, and the heartbeat loop (or the first failed call)
    triggers fence -> respawn -> restore.
    """

    def __init__(
        self,
        workers: int = 2,
        durability_dir: Optional[str] = None,
        checkpoint_every: int = 16,
        heartbeat_interval: Optional[float] = 0.5,
        max_pending: Optional[int] = None,
        restart_backoff: float = DEFAULT_RESTART_BACKOFF,
        restart_backoff_max: float = DEFAULT_RESTART_BACKOFF_MAX,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        fsync: bool = False,
        commit_window: float = 0.0,
        **router_kwargs,
    ) -> None:
        from .durability import DurabilityStore
        from .router import RouterThread

        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if durability_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            durability_dir = self._tmpdir.name
        self.durability = DurabilityStore(
            durability_dir, fsync=fsync, commit_window=commit_window
        )
        self.fleet: Optional[ProcessFleet] = None
        self.router_thread = None
        try:
            self.fleet = ProcessFleet(
                workers=workers,
                max_pending=max_pending,
                restart_backoff=restart_backoff,
                restart_backoff_max=restart_backoff_max,
                max_restarts=max_restarts,
            )
            self.router_thread = RouterThread(
                worker_addresses=self.fleet.addresses,
                durability=self.durability,
                supervisor=self.fleet,
                checkpoint_every=checkpoint_every,
                heartbeat_interval=heartbeat_interval,
                **router_kwargs,
            )
        except BaseException:
            self.stop()
            raise

    @property
    def address(self):
        assert self.router_thread is not None
        return self.router_thread.address

    @property
    def router(self):
        assert self.router_thread is not None
        return self.router_thread.router

    def worker_pid(self, index: int) -> Optional[int]:
        assert self.fleet is not None
        return self.fleet.pid(index)

    def kill_worker(self, index: int) -> None:
        """SIGKILL a live worker process (chaos tests drive this)."""
        assert self.fleet is not None
        pid = self.fleet.pid(index)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)

    def stop(self, timeout: float = 30) -> None:
        if self.router_thread is not None:
            self.router_thread.stop(timeout=timeout)
            self.router_thread = None
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        self.durability.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "ProcessRouterFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
