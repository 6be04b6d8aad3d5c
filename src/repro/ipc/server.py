"""Unix-socket endpoint of the HARP resource manager.

One event-loop thread serves every socket through :mod:`selectors`, with
non-blocking reads, an incremental frame decoder per socket
(``StreamDecoder``) and write buffering.  It serves two kinds of socket:

* request connections accepted on the RM socket: each decoded frame goes
  to the handler callback and its return value is the reply;
* the push socket the RM dials to each application (§4.1.1).  Callers of
  ``push()``/``push_batch()`` write activations and utility polls to it
  directly (``push_batch()`` coalesces one epoch's pushes to a client into
  one wire flush).  Each push expects one reply frame; the loop reads it
  and passes it to the handler, whose return value is discarded.  This is
  how an application's ``UtilityReply`` (Fig. 3, step 4) reaches the RM.

The loop thread owns every socket it has registered.  Other threads hand
push sockets to it through ``open_push_channel``/``close_push_channel``
and never close a registered socket themselves.

Hardening contract (docs/robustness.md): a misbehaving peer must never
take the RM down.  A well-framed but undecodable message (garbage JSON,
unknown TYPE, malformed fields) gets an ``ErrorReply`` and the connection
keeps serving; a framing-integrity failure (oversized frame, EOF
mid-frame) gets a best-effort ``ErrorReply(recoverable=False)`` and the
connection is closed, because the byte stream can no longer be trusted.
Handler exceptions become error acks.  A push write that does not finish
within ``PUSH_SEND_TIMEOUT_S`` closes that application's push channel and
reports the push undelivered.  ``stop()`` is idempotent; a loop thread
that fails to join within the timeout is counted in the
``ipc.thread_join_timeouts`` obs counter rather than silently leaked.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import socket
import struct
import threading
from typing import Callable

from repro.ipc.messages import Ack, ErrorReply, Message
from repro.ipc.protocol import (
    THREAD_JOIN_TIMEOUT_S,
    FrameCodec,
    FrameIntegrityError,
    MessageDecodeError,
    ProtocolError,
    StreamDecoder,
    send_messages,
)
from repro.obs import OBS

Handler = Callable[[Message], Message | None]

#: Bound on one ``push()``/``push_batch()`` write: an application that
#: stops reading its push socket loses the channel instead of blocking
#: the RM's epoch forever.
PUSH_SEND_TIMEOUT_S = 1.0

# A kernel send timeout (SO_SNDTIMEO, a struct timeval) rather than
# ``settimeout()``: the socket stays blocking, so a push costs one send
# syscall and one GIL release instead of a poll plus a send.
_PUSH_SNDTIMEO = struct.pack(
    "ll", int(PUSH_SEND_TIMEOUT_S), int(PUSH_SEND_TIMEOUT_S % 1 * 1e6)
)


class _Conn:
    """Per-socket state of the event loop."""

    __slots__ = ("sock", "decoder", "outbuf", "closing", "push_pid")

    def __init__(self, sock: socket.socket, push_pid: int | None = None):
        self.sock = sock
        self.decoder = StreamDecoder()
        self.outbuf = bytearray()
        #: Close once the out-buffer drains (after a non-recoverable error).
        self.closing = False
        #: The application's pid on a push socket; None on a request
        #: connection.  The loop never writes to a push socket.
        self.push_pid = push_pid


class HarpSocketServer:
    """The RM's request socket plus per-application push connections."""

    def __init__(self, socket_path: str, handler: Handler):
        self.socket_path = socket_path
        self.handler = handler
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        #: Write end of a socketpair the loop selects on: one byte wakes
        #: it to take handoffs or to stop.
        self._wake_w: socket.socket | None = None
        self._push_sockets: dict[int, socket.socket] = {}
        #: Push sockets waiting for the loop: ``(pid, sock)`` to register,
        #: ``(None, sock)`` to close.
        self._handoff: list[tuple[int | None, socket.socket]] = []
        self._push_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and serve in a background event-loop thread."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(32)
        listener.settimeout(0.0)
        wake_r, self._wake_w = socket.socketpair()
        wake_r.settimeout(0.0)
        self._wake_w.settimeout(0.0)
        self._listener = listener
        self._stopping.clear()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._loop,
            args=(listener, wake_r),
            name="harp-rm-selector",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut down the listener and all connections; safe to call twice.

        The loop thread closes every socket it has registered on its way
        out; ``stop()`` only refuses new connections, closes push sockets
        the loop has not taken yet, and joins the thread.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stopping.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            self._listener = None
        with self._push_lock:
            self._push_sockets.clear()
            pending, self._handoff = self._handoff, []
        for pid, sock in pending:
            if pid is not None:  # never registered; close requests are the loop's
                sock.close()
        self._wake()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)
        if self._thread is not None:
            self._thread.join(timeout=THREAD_JOIN_TIMEOUT_S)
            if self._thread.is_alive() and OBS.enabled:
                OBS.counter("ipc.thread_join_timeouts", role="server").inc()
            self._thread = None
        if self._wake_w is not None:
            self._wake_w.close()

    def __enter__(self) -> "HarpSocketServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- push channel ----------------------------------------------------------------

    def open_push_channel(self, pid: int, push_socket_path: str) -> None:
        """Connect to an application's dedicated push socket."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(push_socket_path)
        except OSError:
            sock.close()
            raise
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, _PUSH_SNDTIMEO)
        with self._push_lock:
            old = self._push_sockets.pop(pid, None)
            if old is not None:
                self._handoff.append((None, old))
            self._push_sockets[pid] = sock
            self._handoff.append((pid, sock))
        self._wake()

    def close_push_channel(self, pid: int) -> None:
        with self._push_lock:
            sock = self._push_sockets.pop(pid, None)
            if sock is not None:
                self._handoff.append((None, sock))
        self._wake()

    def push(self, pid: int, message: Message) -> bool:
        """Send a push message to an application; False if unreachable."""
        return self._deliver(pid, [message])

    def push_batch(self, pid: int, messages: list[Message]) -> bool:
        """Deliver several pushes to one application in one wire flush.

        The epoch model produces a burst of pushes per client (activation
        plus any utility polls); batching them keeps the syscall and
        wakeup count per epoch at one per client instead of one per
        message.  False if the client is unreachable.
        """
        if not messages:
            return True
        delivered = self._deliver(pid, messages)
        if delivered and OBS.enabled:
            OBS.counter("ipc.push_batches").inc()
        return delivered

    def _deliver(self, pid: int, messages: list[Message]) -> bool:
        with self._push_lock:
            sock = self._push_sockets.get(pid)
        if sock is None:
            return False
        try:
            send_messages(sock, messages)
            delivered = True
        except OSError:  # includes the PUSH_SEND_TIMEOUT_S timeout
            delivered = False
            self.close_push_channel(pid)
        if OBS.enabled:
            for message in messages:
                OBS.counter(
                    "ipc.pushes",
                    type=message.TYPE,
                    delivered="true" if delivered else "false",
                ).inc()
        return delivered

    def _wake(self) -> None:
        if self._wake_w is None:
            return
        # BlockingIOError: a wakeup is already pending; other OSErrors:
        # the server has stopped.
        with contextlib.suppress(OSError):
            self._wake_w.send(b"\0")

    # -- the event loop -------------------------------------------------------------

    def _loop(self, listener: socket.socket, wake_r: socket.socket) -> None:
        sel = selectors.DefaultSelector()
        sel.register(listener, selectors.EVENT_READ)
        sel.register(wake_r, selectors.EVENT_READ)
        states: dict[socket.socket, _Conn] = {}
        try:
            while not self._stopping.is_set():
                self._take_handoff(sel, states)
                for key, events in sel.select():
                    if key.fileobj is listener:
                        self._accept(sel, states, listener)
                    elif key.fileobj is wake_r:
                        with contextlib.suppress(OSError):
                            wake_r.recv(4096)
                    elif key.data.sock in states:
                        state = key.data
                        if events & selectors.EVENT_WRITE:
                            self._flush(sel, states, state)
                        if (
                            events & selectors.EVENT_READ
                            and state.sock in states
                        ):
                            self._read(sel, states, state)
        finally:
            for state in list(states.values()):
                self._drop(sel, states, state)
            with self._push_lock:
                pending, self._handoff = self._handoff, []
            for _, sock in pending:
                sock.close()
            sel.close()
            listener.close()
            wake_r.close()

    def _take_handoff(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
    ) -> None:
        with self._push_lock:
            handoff, self._handoff = self._handoff, []
        for pid, sock in handoff:
            if pid is not None:
                state = _Conn(sock, push_pid=pid)
                states[sock] = state
                sel.register(sock, selectors.EVENT_READ, state)
            elif sock in states:  # else the loop has already dropped it
                self._drop(sel, states, states[sock])

    def _accept(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
        listener: socket.socket,
    ) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.settimeout(0.0)
            state = _Conn(conn)
            states[conn] = state
            sel.register(conn, selectors.EVENT_READ, state)

    def _read(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
        state: _Conn,
    ) -> None:
        try:
            # Push sockets stay blocking for their writers; never block here.
            data = state.sock.recv(65536, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return
        except OSError:
            self._drop(sel, states, state)
            return
        if not data:
            if state.decoder.pending_bytes:
                self._fail(
                    sel, states, state,
                    FrameIntegrityError("connection closed mid-frame"),
                )
            else:
                self._drop(sel, states, state)
            return
        state.decoder.feed(data)
        while state.sock in states:
            try:
                message = state.decoder.next_message()
            except MessageDecodeError as exc:
                # Well-framed junk: the frame's bytes are already consumed,
                # so the stream is in sync — report and keep parsing.
                if state.push_pid is None:
                    if OBS.enabled:
                        OBS.counter("ipc.error_replies", reason="decode").inc()
                    self._send(
                        sel, states, state,
                        ErrorReply(error=str(exc), recoverable=True),
                    )
                continue
            except ProtocolError as exc:
                self._fail(sel, states, state, exc)
                return
            if message is None:
                return
            reply = self._dispatch(message)
            if reply is not None and state.push_pid is None:
                self._send(sel, states, state, reply)

    def _fail(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
        state: _Conn,
        exc: ProtocolError,
    ) -> None:
        """Framing integrity lost: best-effort error reply, then close."""
        if state.push_pid is not None:
            self._drop(sel, states, state)
            return
        if OBS.enabled:
            OBS.counter("ipc.error_replies", reason="framing").inc()
        state.closing = True
        self._send(
            sel, states, state, ErrorReply(error=str(exc), recoverable=False)
        )
        if state.sock in states and not state.outbuf:
            self._drop(sel, states, state)

    def _dispatch(self, message: Message) -> Message | None:
        obs_on = OBS.enabled
        t0 = OBS.walltime() if obs_on else 0.0
        try:
            reply = self.handler(message)
        except Exception as exc:  # handler bug must not kill the RM
            reply = Ack(ok=False, error=f"handler error: {exc}")
        if obs_on:
            OBS.counter("ipc.handled", type=message.TYPE).inc()
            OBS.histogram(
                "ipc.handler_seconds", type=message.TYPE
            ).observe(OBS.walltime() - t0)
        return reply

    def _send(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
        state: _Conn,
        message: Message,
    ) -> None:
        try:
            frame = FrameCodec.encode(message)
        except ProtocolError:
            return
        if OBS.enabled:
            OBS.counter("ipc.frames", dir="send", type=message.TYPE).inc()
            OBS.counter("ipc.bytes", dir="send", type=message.TYPE).inc(
                len(frame)
            )
        state.outbuf.extend(frame)
        self._flush(sel, states, state)

    def _flush(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
        state: _Conn,
    ) -> None:
        while state.outbuf:
            try:
                sent = state.sock.send(state.outbuf)
            except BlockingIOError:
                break
            except OSError:
                self._drop(sel, states, state)
                return
            del state.outbuf[:sent]
        if not state.outbuf and state.closing:
            self._drop(sel, states, state)
            return
        # A closing connection only drains its out-buffer; it reads no more.
        events = 0 if state.closing else selectors.EVENT_READ
        if state.outbuf:
            events |= selectors.EVENT_WRITE
        sel.modify(state.sock, events, state)

    def _drop(
        self,
        sel: selectors.BaseSelector,
        states: dict[socket.socket, _Conn],
        state: _Conn,
    ) -> None:
        del states[state.sock]
        sel.unregister(state.sock)
        if state.push_pid is not None:
            with self._push_lock:
                if self._push_sockets.get(state.push_pid) is state.sock:
                    del self._push_sockets[state.push_pid]
        state.sock.close()
