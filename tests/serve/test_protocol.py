"""The length-prefixed JSON wire format, both sync and async sides."""

import asyncio
import socket
import struct

import pytest

from repro.serve.client import (
    DEFAULT_RETRY_AFTER,
    MAX_RETRY_AFTER_HINT,
    BackpressureError,
)
from repro.serve.protocol import (
    MAX_FRAME,
    ProtocolError,
    decode_payload,
    encode_frame,
    encode_payload,
    read_payload,
    recv_message,
    send_message,
    write_payload,
)


def test_frame_roundtrip():
    message = {"op": "assert", "wmes": [["a", {"v": 1}]], "text": "héllo"}
    frame = encode_frame(message)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    assert decode_payload(frame[4:]) == message


def test_sync_sockets_carry_many_frames():
    left, right = socket.socketpair()
    with left, right:
        for message in [{"n": i} for i in range(5)]:
            send_message(left, message)
        for i in range(5):
            assert recv_message(right) == {"n": i}


def test_sync_clean_eof_returns_none():
    left, right = socket.socketpair()
    with right:
        left.close()
        assert recv_message(right) is None


def test_sync_truncated_frame_raises():
    left, right = socket.socketpair()
    with right:
        left.sendall(struct.pack(">I", 100) + b"short")
        left.close()
        with pytest.raises(ProtocolError):
            recv_message(right)


def test_oversized_announcement_rejected_without_allocation():
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            recv_message(right)


def test_encode_refuses_oversized_payload():
    with pytest.raises(ProtocolError):
        encode_frame({"blob": "x" * (MAX_FRAME + 16)})


def test_garbage_payload_raises():
    with pytest.raises(ProtocolError):
        decode_payload(b"\xff\xfe not json")


def test_async_roundtrip_and_eof():
    async def scenario():
        received = []

        async def handler(reader, writer):
            while True:
                payload = await read_payload(reader)
                if payload is None:
                    break
                received.append(decode_payload(payload))
                await write_payload(writer, payload)  # relayed as read
            writer.close()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        host, port = server.sockets[0].getsockname()
        reader, writer = await asyncio.open_connection(host, port)
        await write_payload(writer, encode_payload({"n": 1}))
        assert await read_payload(reader) == b'{"n":1}'
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return received

    assert asyncio.run(scenario()) == [{"n": 1}]


# -- retry_after hint validation ----------------------------------------------
#
# The server's backpressure reply carries a retry_after hint; the client
# must treat it as untrusted wire input.  Regression for the bug where a
# malformed/negative/NaN hint reached time.sleep verbatim.


def _rejection_with(retry_after):
    reply = {"error": "backpressure"}
    if retry_after is not ...:
        reply["retry_after"] = retry_after
    return BackpressureError(reply)


@pytest.mark.parametrize(
    "raw",
    [..., None, "soon", [], {}, float("nan"), float("inf"), float("-inf"), -1, -0.25],
    ids=["absent", "null", "string", "list", "dict", "nan", "inf", "neg-inf", "neg-int", "neg-float"],
)
def test_malformed_retry_after_falls_back_to_default(raw):
    assert _rejection_with(raw).retry_after == DEFAULT_RETRY_AFTER


@pytest.mark.parametrize("raw", [1e12, MAX_RETRY_AFTER_HINT + 1])
def test_oversized_retry_after_is_clamped(raw):
    assert _rejection_with(raw).retry_after == MAX_RETRY_AFTER_HINT


@pytest.mark.parametrize("raw,expected", [(0, 0.0), (0.5, 0.5), (2, 2.0), ("0.25", 0.25)])
def test_sane_retry_after_passes_through(raw, expected):
    # Numeric strings are accepted: float() parses them, and a JSON
    # encoder that stringifies numbers should not break clients.
    assert _rejection_with(raw).retry_after == expected


def test_async_mid_header_close_raises():
    async def scenario():
        async def handler(reader, writer):
            writer.write(b"\x00\x00")  # half a header
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        host, port = server.sockets[0].getsockname()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            with pytest.raises(ProtocolError):
                await read_payload(reader)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
