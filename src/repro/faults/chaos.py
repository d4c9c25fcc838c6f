"""The chaos harness: kill real serve workers under load, prove nothing lost.

:func:`fleet_chaos` is the executable statement of the fault-tolerance
guarantee: a :class:`~repro.serve.fleet.ProcessRouterFleet` whose worker
processes are SIGKILLed mid-run must lose no session, and every
session's cumulative firing record and final working memory must be
**bit-identical** to a direct no-fault engine run of the same stream.
The router may respawn workers, replay journals, restore checkpoints;
none of that is allowed to show up in the result, only in the report.

Used three ways: the chaos-marked tests assert on the report, the
``repro chaos`` CLI command prints it, and CI uploads its JSON snapshot
as the fleet-chaos artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FleetChaosReport:
    """Outcome of one process-fleet chaos run (SIGKILL under load)."""

    seed: int
    workers: int
    sessions: int
    rounds: int
    checkpoint_every: int
    #: The seeded kill schedule as executed: round, worker index, pid.
    kills: list[dict]
    identical: bool
    divergences: list[str]
    recovered_sessions: list[str]
    lost_sessions: list[str]
    recovery_events: list[dict]
    durability: dict = field(default_factory=dict)
    fleet: dict = field(default_factory=dict)
    client_reconnects: int = 0

    @property
    def ok(self) -> bool:
        """The acceptance bar: nothing lost, nothing diverged."""
        return self.identical and not self.lost_sessions

    def snapshot(self) -> dict:
        """JSON-ready form (the CI fleet-chaos artifact)."""
        return {
            "schema": "repro.fleet-chaos/1",
            "seed": self.seed,
            "workers": self.workers,
            "sessions": self.sessions,
            "rounds": self.rounds,
            "checkpoint_every": self.checkpoint_every,
            "kills": self.kills,
            "identical": self.identical,
            "divergences": self.divergences,
            "recovered_sessions": self.recovered_sessions,
            "lost_sessions": self.lost_sessions,
            "recovery_events": self.recovery_events,
            "durability": self.durability,
            "fleet": self.fleet,
            "client_reconnects": self.client_reconnects,
        }


def fleet_chaos(
    seed: int,
    workers: int = 2,
    sessions: int = 6,
    rounds: int = 6,
    kills: int = 1,
    checkpoint_every: int = 4,
    heartbeat_interval: float = 0.5,
    durability_dir=None,
    on_event=None,
) -> FleetChaosReport:
    """SIGKILL real worker processes under multitenant load; prove no
    session lost and every continuation bit-identical.

    A :class:`~repro.serve.fleet.ProcessRouterFleet` of *workers*
    real OS processes hosts *sessions* multitenant transitive-closure
    sessions (the ``closure`` demo program, each session growing its own
    namespaced chain); a seeded schedule SIGKILLs the busiest worker at
    the start of *kills* distinct rounds, while clients keep asserting
    through the router.  Every session's cumulative firing record and
    final working memory is then compared bit-for-bit against a direct
    no-fault :class:`~repro.ops5.ProductionSystem` run of the same
    stream.  *durability_dir* persists the journals + checkpoints past
    the run (the CI artifact); the default temporary store is deleted
    with the fleet.  *on_event* (if given) receives progress strings.
    """
    import random as _random

    from ..ops5 import ProductionSystem
    from ..serve import ProcessRouterFleet, RuleClient
    from ..workloads.programs import closure

    def note(message: str) -> None:
        if on_event is not None:
            on_event(message)

    rng = _random.Random(seed)
    kill_rounds = sorted(
        rng.sample(range(1, rounds), min(kills, max(rounds - 1, 0)))
    )
    names = [f"fc{i}" for i in range(sessions)]

    def fact(name: str, round_no: int) -> tuple:
        return ("parent", {"from": f"{name}_n{round_no}", "to": f"{name}_n{round_no + 1}"})

    kills_done: list[dict] = []
    firings: dict[str, list] = {name: [] for name in names}
    final_wm: dict[str, list] = {}
    with ProcessRouterFleet(
        workers=workers,
        checkpoint_every=checkpoint_every,
        heartbeat_interval=heartbeat_interval,
        durability_dir=durability_dir,
    ) as fleet:
        with RuleClient(fleet.address) as client:
            for index, name in enumerate(names):
                client.create_session(
                    program=closure.PROGRAM,
                    name=name,
                    tenant=f"tenant{index % 3}",
                )
            for round_no in range(rounds):
                if round_no in kill_rounds:
                    stats = client.stats()
                    loads: dict[int, int] = {}
                    for row in stats["sessions"].values():
                        worker = row.get("worker")
                        if worker is not None:
                            loads[worker] = loads.get(worker, 0) + 1
                    victim = max(loads, key=lambda w: (loads[w], -w))
                    pid = fleet.worker_pid(victim)
                    note(f"round {round_no}: SIGKILL worker {victim} (pid {pid})")
                    fleet.kill_worker(victim)
                    kills_done.append(
                        {"round": round_no, "worker": victim, "pid": pid}
                    )
                for name in names:
                    reply = client.assert_wmes(name, [fact(name, round_no)], run=True)
                    firings[name].extend(reply.get("run", {}).get("firings", []))
            for name in names:
                final_wm[name] = sorted(
                    [cls, sorted(attrs.items()), tag]
                    for cls, attrs, tag in client.query_wm(name)
                )
            stats = client.stats()
            client_reconnects = client.reconnects
        router = stats["router"]
        recovered = list(router.get("recovered_sessions", []))
        lost = list(router.get("lost_sessions", []))
        events = [
            event
            for event in router.get("events", [])
            if event.get("type")
            in ("worker_failed", "worker_recovered", "recovered", "lost")
        ]
        durability = router.get("durability", {})
        fleet_snapshot = router.get("fleet", {})

    # The no-fault reference: the same per-session stream applied to a
    # direct in-process engine.  Bit-identical means equal cumulative
    # firing records and equal final working memories.
    divergences: list[str] = []
    for name in names:
        system = ProductionSystem(closure.PROGRAM)
        reference_firings: list = []
        for round_no in range(rounds):
            cls, attrs = fact(name, round_no)
            system.apply_changes([("assert", cls, attrs)])
            result = system.run(None)
            reference_firings.extend(
                [cycle.production, list(cycle.timetags)] for cycle in result.cycles
            )
        reference_wm = sorted(
            [wme.cls, sorted(wme.attributes.items()), wme.timetag]
            for wme in system.memory.snapshot()
        )
        if name in lost:
            divergences.append(f"session {name}: lost, nothing to compare")
            continue
        if firings[name] != reference_firings:
            divergences.append(
                f"session {name}: firing records differ "
                f"({len(firings[name])} vs {len(reference_firings)} firings)"
            )
        if final_wm.get(name) != reference_wm:
            divergences.append(
                f"session {name}: final working memory differs "
                f"({len(final_wm.get(name, []))} vs {len(reference_wm)} wmes)"
            )
    return FleetChaosReport(
        seed=seed,
        workers=workers,
        sessions=sessions,
        rounds=rounds,
        checkpoint_every=checkpoint_every,
        kills=kills_done,
        identical=not divergences,
        divergences=divergences,
        recovered_sessions=recovered,
        lost_sessions=lost,
        recovery_events=events,
        durability=durability,
        fleet=fleet_snapshot,
        client_reconnects=client_reconnects,
    )
