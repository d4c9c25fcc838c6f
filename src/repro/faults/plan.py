"""Deterministic fault injection for serve sessions.

Testing the serve layer's error and deadline paths needs failures that
happen *on demand and reproducibly*, which is what a :class:`FaultPlan`
provides.

A plan is a set of :class:`FaultSpec` rows, each naming a *position* in
a session's own ordinal stream (the Nth executed request) and a fault
*kind*.  Determinism comes from the addressing scheme, not from timers:
a session counts the requests it has executed, so an injected fault
lands on the same request ordinal every run.

Fault kinds
-----------
``error``
    The request handler raises mid-request, exercising the
    structured-error reply path.
``slow``
    The session sleeps ``seconds`` and then serves the request normally
    -- a straggler, which is how the request-deadline path is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: Fault kinds (values appear in plans and error messages).
SLOW = "slow"
ERROR = "error"
SESSION_KINDS = (ERROR, SLOW)

#: The one injection site.
SESSION = "session"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *kind* at the *at*-th executed request.

    ``seconds`` is the injected latency for ``slow``.
    """

    kind: str
    site: str = SESSION
    at: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site != SESSION:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.kind not in SESSION_KINDS:
            raise ValueError(
                f"fault kind {self.kind!r} is not valid at site {self.site!r}; "
                f"expected one of {SESSION_KINDS}"
            )
        if self.at < 0:
            raise ValueError("fault position 'at' must be >= 0")

    def snapshot(self) -> dict:
        """JSON-ready row."""
        return {
            "kind": self.kind,
            "site": self.site,
            "at": self.at,
            "seconds": self.seconds,
        }


class FaultPlan:
    """An immutable schedule of faults, consulted by sessions.

    The plan is pure data: consulting it never mutates it, so the same
    plan object answers the same queries identically on every run.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultPlan takes FaultSpec rows, got {spec!r}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FaultPlan({list(self.specs)!r})"

    def session_fault(self, ordinal: int) -> Optional[FaultSpec]:
        """The fault (if any) scheduled for the *ordinal*-th request."""
        for spec in self.specs:
            if spec.at == ordinal:
                return spec
        return None

    # -- serialisation -------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """JSON-ready rows."""
        return [spec.snapshot() for spec in self.specs]

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "FaultPlan":
        """Rebuild a plan from :meth:`snapshot` rows."""
        return cls(
            FaultSpec(
                kind=row["kind"],
                site=row.get("site", SESSION),
                at=row.get("at", 0),
                seconds=row.get("seconds", 0.0),
            )
            for row in rows
        )
