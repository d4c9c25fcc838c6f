"""Length-prefixed JSON framing for the rule server.

Every message on the wire -- request or response -- is one *frame*: a
4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON encoding a single object.  The format is deliberately minimal: it
needs no schema registry, any language can speak it, and a frame is
self-delimiting so one connection can pipeline many requests.

Both sides of the conversation are provided here:

* :func:`read_payload` / :func:`write_payload` -- the asyncio server
  side (stream reader/writer pairs), on encoded payloads, so a router
  relays what it read unchanged;
* :func:`send_message` / :func:`recv_message` -- the blocking client
  side (plain sockets), used by :mod:`repro.serve.client`.

Frames above :data:`MAX_FRAME` are refused in both directions: an
oversized length prefix on input is corruption or abuse, and producing
one on output would just move the failure to the peer.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Optional

#: Largest accepted frame payload (16 MiB): far above any sane request,
#: far below what a garbage length prefix would ask us to allocate.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: The one encoder: ``json.dumps(message, separators=(",", ":"))``'s
#: bytes, without its cycle check (a message is a tree).
_ENCODE = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


class ProtocolError(Exception):
    """A malformed, truncated, or oversized frame."""


class Disconnected(ProtocolError):
    """The peer went away (EOF mid-frame or between request and reply).

    Distinguished from other protocol errors because it is the one case
    a client may transparently repair by reconnecting -- a worker
    restart severs every connection, but the service is still there.
    """


def encode_payload(message: Any) -> bytes:
    """Serialise *message* (any JSON-encodable object) into a frame's payload."""
    return _ENCODE(message).encode("utf-8")


def encode_frame(message: Any) -> bytes:
    """Serialise *message* (any JSON-encodable object) into one frame."""
    return frame(encode_payload(message))


def frame(payload: bytes) -> bytes:
    """One frame carrying *payload*, an encoded message."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Any:
    """Decode one frame's payload back into the message object."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from None


def _check_length(length: int) -> None:
    if length > MAX_FRAME:
        raise ProtocolError(
            f"peer announced a {length}-byte frame; limit is {MAX_FRAME}"
        )


# -- asyncio (server) side ------------------------------------------------------


async def read_payload(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame's payload; return None on clean EOF between frames."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return payload


async def write_payload(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Send one frame of *payload* and wait for the transport to accept it."""
    writer.write(frame(payload))
    await writer.drain()


# -- blocking (client) side -----------------------------------------------------


def send_message(sock: socket.socket, message: Any) -> None:
    """Send one message over a connected blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            received = count - remaining
            if not chunks and received == 0:
                return b""
            raise Disconnected(
                f"connection closed after {received} of {count} bytes"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Any]:
    """Receive one message; return None on clean EOF between frames."""
    header = _recv_exactly(sock, _HEADER.size)
    if not header:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    return decode_payload(_recv_exactly(sock, length))
