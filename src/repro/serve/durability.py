"""Session durability: a per-session write-ahead journal plus checkpoints.

The paper's Section 3 state-saving analysis prices exactly the trade
this module implements: match state is a deterministic function of the
working-memory op stream, so a crashed host can always re-derive it --
the only question is how much of the stream it must replay.  This
module applies that to whole serve sessions, so a worker process can be
SIGKILLed without losing any of them.

Layout (one directory per router)::

    <root>/<sid>.meta.json   the create_session config (replay from zero)
    <root>/<sid>.wal         JSONL op journal, appended before the reply
    <root>/<sid>.ckpt.json   line 1: a full engine checkpoint + the WAL seq
                             it covers; later lines: appended deltas

The router appends every accepted mutating op to the WAL *before* the
reply leaves for the client, so the journal is always at least as new as
anything a client has seen acknowledged.  Periodic checkpoints persist
what the session's engine *changed* since the previous one (Section 3.1:
cost must follow the <0.5% of working memory that changes): a
``repro.engine-delta/1`` line naming the seq it extends and the seq it
reaches.  A checkpoint covers the whole journal (the router appends and
checkpoints under one lock per session), so once it is durable -- the
line fsynced, a full file's rename too -- the journal is emptied.  The
session answers a full ``export_state`` blob instead once the chain's
dead weight would reach its live rows (``session._DeltaLog``).  The
worker encodes either record (:func:`encode_record`); the store splices
that text in, never decoding it.  Recovery is ``import_session`` of
base + deltas (:func:`fold`) plus a replay of the journal tail --
O(blob + tail) instead of O(journal), which is the Section 3.1
c1-vs-c3 ratio as a recovery-latency knob.

Everything read back from disk is treated as untrusted input: truncated
trailing WAL lines (a crash mid-append) are dropped, a torn, corrupt or
out-of-sequence delta line ends the fold at the line before it, corrupt
checkpoints fall back to full-journal replay, and engine-state blobs --
folded ones included -- are validated by :func:`validate_engine_state`,
the same validator the server's ``import_session`` op applies to
payloads arriving over the wire.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import urllib.parse
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

from ..ops5.errors import Ops5Error

__all__ = [
    "DurabilityStore",
    "RecoveryBundle",
    "WalRecord",
    "fold",
    "validate_engine_state",
]

#: Schema tags on the persisted files.
META_SCHEMA = "repro.session-meta/1"
CHECKPOINT_SCHEMA = "repro.session-checkpoint/1"

#: The engine checkpoint schema (kept in sync with Engine.STATE_SCHEMA;
#: duplicated here so validation needs no engine import).
ENGINE_STATE_SCHEMA = "repro.engine-state/1"
ENGINE_DELTA_SCHEMA = "repro.engine-delta/1"
_RUN_STATE = (
    "next_timetag", "cycle", "total_firings", "total_wme_changes",
    "halted", "halt_reason",
)


def validate_engine_state(state) -> Optional[str]:
    """First problem with an untrusted ``repro.engine-state/1`` blob, or None.

    Used by the server's ``import_session`` op (wire payloads) and by
    checkpoint loading (disk payloads): a malformed, truncated, or
    schema-mismatched blob must become a typed error, never a traceback
    deep inside the engine.
    """
    if not isinstance(state, dict):
        return "state must be a JSON object"
    if state.get("schema") != ENGINE_STATE_SCHEMA:
        return (
            f"unknown state schema {state.get('schema')!r}; "
            f"expected {ENGINE_STATE_SCHEMA!r}"
        )
    wmes = state.get("wmes")
    if not isinstance(wmes, list):
        return "wmes must be a list"
    seen_tags: set[int] = set()
    top = 0
    for row in wmes:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            return "each wme must be a [timetag, class, attributes] triple"
        tag, cls, attrs = row
        if isinstance(tag, bool) or not isinstance(tag, int) or tag < 1:
            return f"wme timetag {tag!r} is not a positive integer"
        if tag in seen_tags:
            return f"duplicate wme timetag {tag}"
        seen_tags.add(tag)
        top = max(top, tag)
        if not isinstance(cls, str) or not cls:
            return f"wme class {cls!r} is not a non-empty string"
        if not isinstance(attrs, dict):
            return "wme attributes must be an object"
        for name, value in attrs.items():
            if not isinstance(name, str):
                return f"attribute name {name!r} is not a string"
            if (
                isinstance(value, bool)
                or not isinstance(value, (str, int, float))
                or value != value  # NaN
            ):
                return (
                    f"attribute {name!r} value {value!r} is neither "
                    "a symbol nor a number"
                )
    next_timetag = state.get("next_timetag")
    if (
        isinstance(next_timetag, bool)
        or not isinstance(next_timetag, int)
        or next_timetag <= top
    ):
        return (
            f"next_timetag {next_timetag!r} must be an integer above every "
            "wme timetag"
        )
    fired = state.get("fired")
    if not isinstance(fired, list):
        return "fired must be a list"
    for row in fired:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            return "each fired entry must be a [production, timetags] pair"
        name, tags = row
        if not isinstance(name, str):
            return f"fired production {name!r} is not a string"
        if not isinstance(tags, (list, tuple)) or any(
            isinstance(t, bool) or not isinstance(t, int) for t in tags
        ):
            return f"fired timetags for {name!r} must be a list of integers"
    for counter in ("cycle", "total_firings", "total_wme_changes"):
        value = state.get(counter)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            return f"{counter} {value!r} is not a non-negative integer"
    if not isinstance(state.get("halted"), bool):
        return "halted must be a boolean"
    if not isinstance(state.get("halt_reason"), str):
        return "halt_reason must be a string"
    output = state.get("output")
    if not isinstance(output, list) or any(
        not isinstance(line, str) for line in output
    ):
        return "output must be a list of strings"
    return None


#: What the store writes is encoded by these two: compact, and sorted.
_ENCODE = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_SORTED = json.JSONEncoder(separators=(",", ":"), sort_keys=True, check_circular=False).encode


def encode_record(record: dict) -> str:
    """A marked export's record as the store splices it in: compact JSON,
    a full state's keys sorted like the envelope it lands in."""
    if record["schema"] == ENGINE_STATE_SCHEMA:
        return _SORTED(record)
    return _ENCODE(record)


class _Fold:
    """A validated engine-state blob being advanced by delta records."""

    def __init__(self, state: dict) -> None:
        self.wmes = {row[0]: row for row in state["wmes"]}
        self.fired = {(name, tuple(tags)) for name, tags in state["fired"]}
        self.output = list(state["output"])
        self.run_state = {key: state[key] for key in _RUN_STATE}

    def apply(self, delta) -> Optional[str]:
        """Advance by one untrusted delta, or name why not (and leave
        the fold as it was).  What a delta brings is validated as the
        small state it is, so the fold of a valid state stays valid."""
        if not isinstance(delta, dict) or delta.get("schema") != ENGINE_DELTA_SCHEMA:
            return f"not a {ENGINE_DELTA_SCHEMA} record"
        problem = validate_engine_state(
            {**delta, "schema": ENGINE_STATE_SCHEMA, "wmes": delta.get("added")}
        )
        if problem is not None:
            return problem
        added = {row[0]: row for row in delta["added"]}
        try:
            removed = set(delta["removed"])
        except (KeyError, TypeError):
            return "removed must be a list of timetags"
        if (
            not removed <= self.wmes.keys()
            or added.keys() & self.wmes.keys()
            or delta["next_timetag"] < self.run_state["next_timetag"]
        ):
            return "delta does not fit the state it extends"
        for tag in removed:
            del self.wmes[tag]
        self.wmes.update(added)
        self.fired.update((name, tuple(tags)) for name, tags in delta["fired"])
        self.output += delta["output"]
        self.run_state = {key: delta[key] for key in _RUN_STATE}
        return None

    def state(self) -> dict:
        """The folded blob; refraction keys naming a dead timetag can
        never match again and are dropped."""
        live = self.wmes.keys()
        return {
            "schema": ENGINE_STATE_SCHEMA,
            "wmes": list(self.wmes.values()),
            "fired": sorted(
                [name, list(tags)] for name, tags in self.fired if live >= set(tags)
            ),
            "output": self.output,
            **self.run_state,
        }


def fold(state: dict, *deltas: dict) -> dict:
    """What the valid ``repro.engine-state/1`` blob *state* becomes
    after each ``repro.engine-delta/1`` record in turn; ValueError on
    one that does not fit."""
    folding = _Fold(state)
    for delta in deltas:
        problem = folding.apply(delta)
        if problem is not None:
            raise ValueError(problem)
    return folding.state()


#: The export mark and journal seq a session's checkpoint file ends on.
_Chain = namedtuple("_Chain", "mark seq")


@dataclass
class WalRecord:
    """One accepted op in a session's journal."""

    seq: int
    request: dict


@dataclass
class RecoveryBundle:
    """Everything needed to rebuild one session after its worker died."""

    session: str
    #: The original ``create_session`` config (program, matcher, ...).
    config: dict
    #: The latest valid checkpoint (``seq``/``config``/``state``), or None.
    checkpoint: Optional[dict]
    #: Journal tail to replay after the checkpoint (skip-marked and
    #: checkpoint-covered records already filtered out).
    records: list[WalRecord]
    #: Highest sequence number ever appended (including skipped ops
    #: and ops only the checkpoint still remembers).
    last_seq: int
    #: Non-fatal anomalies found while loading (corrupt checkpoint,
    #: truncated trailing line, ...); recovery proceeds around them.
    notes: list[str] = field(default_factory=list)

    @property
    def used_checkpoint(self) -> bool:
        return self.checkpoint is not None


#: What the hashed branch of :func:`_encode_sid` emits.
_HASHED_SID = re.compile(r".{48}\.[0-9a-f]{32}")


def _encode_sid(session_id: str) -> str:
    """Injective, filesystem-safe encoding of a session id.

    Short ids are percent-quoted (``[A-Za-z0-9_.~-]`` unchanged); a long
    one keeps a readable prefix plus a hash of the whole id.  A short id
    that is itself spelled like a hashed name takes the hashed branch
    too, so no client-chosen name can land on a long id's files.
    """
    quoted = urllib.parse.quote(session_id, safe="")
    if len(quoted) <= 96 and not _HASHED_SID.fullmatch(quoted):
        return quoted
    digest = hashlib.sha256(session_id.encode()).hexdigest()[:32]
    return f"{quoted[:48]}.{digest}"


class DurabilityStore:
    """The on-disk journal + checkpoint store behind one router.

    All mutation methods are called from the router's event loop (one
    thread), so per-session appends are naturally ordered; the counter
    lock only guards the stats snapshot, which other threads read.
    """

    def __init__(
        self, root: str, fsync: bool = False, commit_window: float = 0.0
    ) -> None:
        self.root = os.path.abspath(root)
        self.fsync = fsync
        #: Group-commit window in seconds.  ``0`` keeps the strict
        #: policy: every append fsyncs before its reply is released.
        #: Positive values batch fsyncs behind a committer thread that
        #: syncs all dirty journals at most once per window -- the
        #: classic group-commit trade: one disk barrier absorbs many
        #: appends, and at most *commit_window* seconds of acknowledged
        #: ops ride on the page cache (lost only if the whole *host*
        #: dies inside the window; worker kills lose nothing, since the
        #: router holding the WAL survives them).
        if not commit_window >= 0:
            raise Ops5Error(f"commit_window must be >= 0, got {commit_window}")
        self.commit_window = commit_window
        os.makedirs(self.root, exist_ok=True)
        self._wal_handles: dict[str, object] = {}
        self._lock = threading.Lock()
        self.appends = 0
        self.skips = 0
        self.checkpoints = 0
        self.checkpoints_delta = 0
        self.checkpoint_bytes = 0
        self.bytes_appended = 0
        self._chains: dict[str, _Chain] = {}
        #: Last seq appended per session: no checkpoint may stop below it.
        self._appended: dict[str, int] = {}
        self.fsyncs = 0
        self._dirty: set[str] = set()
        self._committer: Optional[threading.Thread] = None
        self._commit_wakeup = threading.Condition(self._lock)
        self._closing = False
        if self.fsync and self.commit_window > 0:
            self._committer = threading.Thread(
                target=self._commit_loop, daemon=True, name="repro-wal-commit"
            )
            self._committer.start()

    # -- paths --------------------------------------------------------------

    def _meta_path(self, sid: str) -> str:
        return os.path.join(self.root, f"{_encode_sid(sid)}.meta.json")

    def _wal_path(self, sid: str) -> str:
        return os.path.join(self.root, f"{_encode_sid(sid)}.wal")

    def _ckpt_path(self, sid: str) -> str:
        return os.path.join(self.root, f"{_encode_sid(sid)}.ckpt.json")

    def _write_atomic(self, path: str, payload: dict, state: str = "") -> int:
        """Replace *path* by *payload* as sorted-key JSON, *state* spliced in last."""
        text = _SORTED(payload)
        text = f'{text[:-1]},"state":{state}}}\n' if state else text + "\n"
        self._write(f"{path}.tmp", "w", text)
        os.replace(f"{path}.tmp", path)
        return len(text)

    def _write(self, path: str, mode: str, text: str) -> None:
        with open(path, mode, encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def _wal_handle(self, sid: str):
        handle = self._wal_handles.get(sid)
        if handle is None or handle.closed:
            handle = open(self._wal_path(sid), "a", encoding="utf-8")
            self._wal_handles[sid] = handle
        return handle

    def _append_line(self, sid: str, line: str, skip: bool = False) -> None:
        """Append one journal *line* (a tombstone when *skip*), synced
        as the policy says, and count it under one lock."""
        handle = self._wal_handle(sid)
        handle.write(line)
        handle.flush()
        strict = self.fsync and not self.commit_window
        if strict:
            os.fsync(handle.fileno())
        with self._lock:
            self.bytes_appended += len(line.encode())  # a client's text may be UTF-8
            self.appends += not skip
            self.skips += skip
            self.fsyncs += strict
            if self.fsync and not strict:
                self._dirty.add(sid)
                self._commit_wakeup.notify()

    # -- group commit --------------------------------------------------------

    def _commit_loop(self) -> None:
        """Committer thread: one fsync barrier per window for all dirty
        journals, however many appends landed inside it.

        The window wait sits on the condition variable, not a plain
        sleep, so ``close()`` interrupts it immediately -- shutdown
        latency is the final barrier's cost, never a whole window."""
        while True:
            with self._lock:
                while not self._dirty and not self._closing:
                    self._commit_wakeup.wait()
                if self._closing:
                    return  # close() runs the final barrier itself
                self._commit_wakeup.wait(timeout=self.commit_window)
                if self._closing:
                    return
            self.sync()

    def sync(self) -> int:
        """Fsync every journal with unsynced appends; returns how many.

        The explicit barrier: checkpointing and shutdown call it so a
        compacted or closed journal is never *less* durable than the
        strict policy would have left it.
        """
        with self._lock:
            dirty = sorted(self._dirty)
            self._dirty.clear()
        synced = 0
        for sid in dirty:
            handle = self._wal_handles.get(sid)
            if handle is None:
                continue  # dropped since it was dirtied
            try:
                os.fsync(handle.fileno())
            except (OSError, ValueError):
                # Dropped since it was dirtied, possibly by the event
                # loop while this (committer) thread was here: fileno()
                # of a closed file raises ValueError.
                continue
            synced += 1
        if synced:
            with self._lock:
                self.fsyncs += synced
        return synced

    # -- session lifecycle ---------------------------------------------------

    def register(self, session_id: str, config: dict) -> None:
        """Record a freshly created session: meta written, journal empty
        (a name reused after destroy starts a fresh history)."""
        self.drop(session_id)
        self._write_atomic(
            self._meta_path(session_id),
            {"schema": META_SCHEMA, "id": session_id, "config": dict(config)},
        )
        open(self._wal_path(session_id), "w").close()

    def drop(self, session_id: str) -> None:
        """Forget a destroyed session (journal, checkpoint, meta)."""
        self._chains.pop(session_id, None)
        self._appended.pop(session_id, None)
        handle = self._wal_handles.pop(session_id, None)
        if handle is not None:
            handle.close()
        for path in (
            self._wal_path(session_id),
            self._ckpt_path(session_id),
            self._meta_path(session_id),
        ):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def sessions(self) -> list[str]:
        """Ids of every session with durable state in this store."""
        ids = []
        for name in os.listdir(self.root):
            if not name.endswith(".meta.json"):
                continue
            try:
                with open(os.path.join(self.root, name)) as handle:
                    meta = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(meta, dict) and meta.get("schema") == META_SCHEMA:
                sid = meta.get("id")
                if isinstance(sid, str):
                    ids.append(sid)
        return sorted(ids)

    # -- the write path ------------------------------------------------------

    def append(self, session_id: str, seq: int, request) -> None:
        """Journal one accepted op *before* its reply is released: the
        payload the client sent, spliced in with its line breaks (JSON
        whitespace) as spaces; a dict, as ``benchmarks/e2e`` passes, is
        encoded first."""
        if isinstance(request, dict):
            text = _ENCODE(request)
        else:
            text = request.decode("utf-8").replace("\n", " ").replace("\r", " ")
        self._append_line(session_id, f'{{"seq":{seq},"request":{text}}}\n')
        self._appended[session_id] = seq

    def mark_skipped(self, session_id: str, seq: int) -> None:
        """Mark a journaled op the worker definitively did not execute.

        Backpressure rejections are never enqueued at the worker, so a
        replay must not apply them; the tombstone is appended (not
        rewritten in place) so the journal stays append-only.
        """
        self._append_line(session_id, f'{{"seq":{seq},"skip":true}}\n', skip=True)

    def checkpoint_mark(self, session_id: str) -> str:
        """The ``since`` for the session's next ``export``: the mark the
        checkpoint file ends on, or "" (a full export) if this store wrote none."""
        chain = self._chains.get(session_id)
        return "" if chain is None else chain.mark

    def save_checkpoint(
        self, session_id: str, seq: int, config: dict, state: str, mark: str = ""
    ) -> bool:
        """Persist a full checkpoint covering every op up to *seq* as
        the file's new base, then empty the journal.  *state* is a marked
        export's ``state_json`` (a dict, as ``benchmarks/e2e`` passes, is
        encoded first), *mark* the export's own.  Refused (False) below
        the last seq appended: the journal holds ops it does not cover."""
        self._chains.pop(session_id, None)
        if seq < self._appended.get(session_id, 0):
            return False
        if not isinstance(state, str):
            state = encode_record(state)
        envelope = {"schema": CHECKPOINT_SCHEMA, "id": session_id, "seq": seq, "config": config}
        size = self._write_atomic(self._ckpt_path(session_id), envelope, state)
        if self.fsync:
            # The rename must outlive a crash before the journal is gone.
            fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        if mark:
            self._chains[session_id] = _Chain(mark, seq)
        self._compact(session_id, size)
        return True

    def append_delta(self, session_id: str, seq: int, delta: str, since: str, mark: str) -> bool:
        """Extend the session's checkpoint to *seq* by one delta line:
        a marked export's ``delta_json`` text and the mark it names.

        The line is flushed (and fsynced) before the journal is emptied:
        a crash in between leaves covered ops behind, never a gap.
        Refused: a delta that does not extend what this store last wrote
        or stops below the last seq appended, and any after a refusal --
        the next export is full.
        """
        chain = self._chains.pop(session_id, None)
        if chain is None or since != chain.mark or seq < self._appended.get(session_id, 0):
            return False
        line = f'{{"extends":{chain.seq},"seq":{seq},"delta":{delta}}}\n'
        self._write(self._ckpt_path(session_id), "a", line)
        self._chains[session_id] = _Chain(mark, seq)
        self._compact(session_id, len(line), delta=1)
        return True

    def _compact(self, session_id: str, size: int, delta: int = 0) -> None:
        """Empty the journal the durable checkpoint of *size* bytes
        covers, and count it."""
        handle = self._wal_handle(session_id)
        handle.truncate(0)
        if self.fsync:
            os.fsync(handle.fileno())
        with self._lock:
            self.checkpoints += 1
            self.checkpoints_delta += delta
            self.checkpoint_bytes += size

    # -- the read (recovery) path --------------------------------------------

    def _read_wal(
        self, session_id: str
    ) -> tuple[list[WalRecord], set[int], int, list[str]]:
        """(ordered records, skipped seqs, last seq, notes)."""
        records: list[WalRecord] = []
        skipped: set[int] = set()
        last_seq = 0
        notes: list[str] = []
        try:
            with open(self._wal_path(session_id), encoding="utf-8", errors="replace") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return records, skipped, last_seq, notes
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                row = json.loads(stripped)
            except json.JSONDecodeError:
                if index == len(lines) - 1 and not line.endswith("\n"):
                    notes.append("dropped truncated trailing journal line")
                else:
                    notes.append(
                        f"stopped at corrupt journal line {index + 1}"
                    )
                break
            seq = row.get("seq")
            if isinstance(seq, bool) or not isinstance(seq, int):
                notes.append(f"stopped at journal line {index + 1}: bad seq")
                break
            last_seq = max(last_seq, seq)
            if row.get("skip"):
                skipped.add(seq)
            elif isinstance(row.get("request"), dict):
                records.append(WalRecord(seq, row["request"]))
            else:
                notes.append(
                    f"stopped at journal line {index + 1}: no request"
                )
                break
        return records, skipped, last_seq, notes

    def _read_checkpoint(self, session_id: str, notes: list[str]) -> Optional[dict]:
        """The session's checkpoint with its deltas folded in
        (``seq``/``config``/``state``), or None; anomalies go to *notes*."""
        try:
            with open(self._ckpt_path(session_id)) as handle:
                lines = handle.read().split("\n")
            blob = json.loads(lines[0])
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            notes.append(f"checkpoint unreadable ({error}); full replay")
            return None
        if not isinstance(blob, dict) or blob.get("schema") != CHECKPOINT_SCHEMA:
            problem = "bad checkpoint schema"
        elif isinstance(blob.get("seq"), bool) or not isinstance(blob.get("seq"), int):
            problem = "bad checkpoint seq"
        elif not isinstance(blob.get("config"), dict):
            problem = "bad checkpoint config"
        else:
            problem = validate_engine_state(blob.get("state"))
        if problem is not None:
            notes.append(f"checkpoint unusable ({problem}); full replay")
            return None
        folding, seq = None, blob["seq"]
        for number, line in enumerate(lines[1:], 2):
            if not line and number == len(lines):
                break  # the newline that ends the last whole line
            try:
                row = json.loads(line)
                if row["extends"] != seq:
                    raise ValueError(f"it extends seq {row['extends']!r}")
                if isinstance(row["seq"], bool) or not isinstance(row["seq"], int):
                    raise ValueError("bad seq")
                folding = folding or _Fold(blob["state"])
                problem = folding.apply(row["delta"])
                if problem is not None:
                    raise ValueError(problem)
            except (LookupError, TypeError, ValueError) as error:
                notes.append(
                    f"checkpoint chain ends at seq {seq}: line {number} "
                    f"unusable ({error})"
                )
                break
            seq = row["seq"]
        if folding is None:
            return blob
        return {**blob, "seq": seq, "state": folding.state()}

    def load(self, session_id: str) -> Optional[RecoveryBundle]:
        """Everything needed to rebuild *session_id*, or None if unknown."""
        notes: list[str] = []
        config: Optional[dict] = None
        try:
            with open(self._meta_path(session_id)) as handle:
                meta = json.load(handle)
            if (
                isinstance(meta, dict)
                and meta.get("schema") == META_SCHEMA
                and isinstance(meta.get("config"), dict)
            ):
                config = meta["config"]
            else:
                notes.append("meta file malformed")
        except FileNotFoundError:
            pass
        except (OSError, json.JSONDecodeError) as error:
            notes.append(f"meta unreadable: {error}")

        checkpoint = self._read_checkpoint(session_id, notes)
        records, skipped, last_seq, wal_notes = self._read_wal(session_id)
        notes.extend(wal_notes)
        if config is None and checkpoint is None:
            return None
        if config is None:
            config = checkpoint["config"]
            notes.append("create config recovered from checkpoint")
        floor = checkpoint["seq"] if checkpoint is not None else 0
        tail = [
            record
            for record in records
            if record.seq > floor and record.seq not in skipped
        ]
        # A checkpoint empties the journal of every record it covers; no
        # later one may stop below a record read here but not appended.
        last_seq = max(last_seq, floor)
        self._appended[session_id] = max(self._appended.get(session_id, 0), last_seq)
        return RecoveryBundle(
            session=session_id, config=config, checkpoint=checkpoint,
            records=tail, last_seq=last_seq, notes=notes,
        )

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> dict:
        sessions = sum(name.endswith(".meta.json") for name in os.listdir(self.root))
        with self._lock:
            return {
                "root": self.root,
                "fsync": self.fsync,
                "commit_window": self.commit_window,
                "appends": self.appends,
                "skips": self.skips,
                "checkpoints": self.checkpoints,
                "checkpoints_full": self.checkpoints - self.checkpoints_delta,
                "checkpoints_delta": self.checkpoints_delta,
                "checkpoint_bytes": self.checkpoint_bytes,
                "fsyncs": self.fsyncs,
                "pending_sync": len(self._dirty),
                "bytes_appended": self.bytes_appended,
                "sessions": sessions,
            }

    def close(self) -> None:
        if self._committer is not None:
            with self._lock:
                self._closing = True
                self._commit_wakeup.notify()
        self.sync()
        if self._committer is not None:
            self._committer.join(timeout=2 * self.commit_window + 1.0)
            self._committer = None
        for handle in self._wal_handles.values():
            handle.close()
        self._wal_handles.clear()
