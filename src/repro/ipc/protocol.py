"""Wire framing: 4-byte big-endian length prefix + UTF-8 JSON body."""

from __future__ import annotations

import json
import socket
import struct

from repro.ipc.messages import (
    Message,
    ProtocolViolation,
    decode_message,
    encode_message,
)
from repro.obs import OBS

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Bound on joining a transport's background thread at close/stop; a
#: thread still alive after it is counted, not waited on.
THREAD_JOIN_TIMEOUT_S = 2.0


class ProtocolError(RuntimeError):
    """Framing-level failure (truncated stream, oversized frame, bad JSON)."""


class FrameIntegrityError(ProtocolError):
    """The byte stream is out of sync (truncated or oversized frame).

    After this the connection cannot be trusted to frame correctly again;
    the only safe reaction is to close it.
    """


class MessageDecodeError(ProtocolError):
    """A complete, well-framed body that does not decode to a message.

    The stream is still in sync — the peer may reply with an
    ``ErrorReply`` and keep serving the connection.
    """


class RequestTimeout(ProtocolError):
    """A request did not complete within its timeout."""


class FrameCodec:
    """Encodes messages to frames and decodes a byte stream back."""

    @staticmethod
    def encode(message: Message) -> bytes:
        body = json.dumps(encode_message(message)).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame too large: {len(body)} bytes")
        return _HEADER.pack(len(body)) + body

    @staticmethod
    def decode(frame: bytes) -> Message:
        try:
            data = json.loads(frame.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MessageDecodeError(f"undecodable frame: {exc}") from exc
        try:
            return decode_message(data)
        except ProtocolViolation as exc:
            raise MessageDecodeError(str(exc)) from exc


def send_message(sock: socket.socket, message: Message) -> None:
    """Write one framed message to a connected socket."""
    frame = FrameCodec.encode(message)
    if OBS.enabled:
        OBS.counter("ipc.frames", dir="send", type=message.TYPE).inc()
        OBS.counter("ipc.bytes", dir="send", type=message.TYPE).inc(len(frame))
    sock.sendall(frame)


def send_messages(sock: socket.socket, messages: list[Message]) -> None:
    """Write several framed messages with a single ``sendall``.

    Frame write batching: one epoch's worth of pushes to the same peer
    costs one syscall and at most one wakeup on the receiving side,
    instead of one per message.
    """
    if not messages:
        return
    frames = [FrameCodec.encode(message) for message in messages]
    if OBS.enabled:
        for message, frame in zip(messages, frames):
            OBS.counter("ipc.frames", dir="send", type=message.TYPE).inc()
            OBS.counter("ipc.bytes", dir="send", type=message.TYPE).inc(
                len(frame)
            )
    sock.sendall(b"".join(frames))


class StreamDecoder:
    """Incremental frame parser for non-blocking transports.

    ``feed()`` bytes as they arrive, then call ``next_message()`` until it
    returns ``None`` (incomplete frame buffered).  A frame's bytes are
    consumed *before* its body is decoded, so a ``MessageDecodeError``
    (well-framed junk) leaves the stream in sync and parsing can resume;
    a ``FrameIntegrityError`` (oversized frame) means the stream can no
    longer be trusted.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def next_message(self) -> Message | None:
        if len(self._buf) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack(bytes(self._buf[: _HEADER.size]))
        if length > MAX_FRAME_BYTES:
            raise FrameIntegrityError(f"frame too large: {length} bytes")
        end = _HEADER.size + length
        if len(self._buf) < end:
            return None
        body = bytes(self._buf[_HEADER.size : end])
        del self._buf[:end]
        message = FrameCodec.decode(body)
        if OBS.enabled:
            OBS.counter("ipc.frames", dir="recv", type=message.TYPE).inc()
            OBS.counter("ipc.bytes", dir="recv", type=message.TYPE).inc(end)
        return message


def recv_message(
    sock: socket.socket, timeout: float | None = None
) -> Message | None:
    """Read one framed message; None on clean EOF at a frame boundary.

    Args:
        timeout: when given, applied to the socket for this read via
            ``settimeout`` (``socket.timeout`` propagates to the caller).
    """
    if timeout is not None:
        sock.settimeout(timeout)
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameIntegrityError(f"frame too large: {length} bytes")
    body = _recv_exact(sock, length, allow_eof=False)
    assert body is not None
    message = FrameCodec.decode(body)
    if OBS.enabled:
        OBS.counter("ipc.frames", dir="recv", type=message.TYPE).inc()
        OBS.counter("ipc.bytes", dir="recv", type=message.TYPE).inc(
            _HEADER.size + length
        )
    return message


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool
) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            if allow_eof and remaining == count:
                # Idle at a frame boundary: let the caller poll again.
                raise
            raise FrameIntegrityError(
                "timed out mid-frame; stream out of sync"
            ) from None
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise FrameIntegrityError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
