"""The libharp client: the application's end of the Fig. 3 control flow.

1. On startup, register with the RM (PID, granularity, adaptivity type,
   utility capability).
2. Send operating points from the application description file, if any.
3. Handle activation pushes by applying the allocation through the
   application adapter.
4. Answer utility polls with the application-specific metric.

Requests are hardened per docs/robustness.md: every request carries an
explicit timeout and is tried at most ``MAX_ATTEMPTS`` times.  After a
transport failure the client reconnects at once and — when it had
already completed the handshake — transparently re-registers with the
RM (sessions are keyed by PID, so a restarted RM simply sees the
application again).  Retries never sleep, which keeps the deterministic
in-process simulation free of wall-clock dependencies.
"""

from __future__ import annotations

from repro.ipc.client import Transport
from repro.ipc.messages import (
    Ack,
    ActivateOperatingPoint,
    DeregisterRequest,
    ErrorReply,
    Message,
    OperatingPointsMessage,
    RegisterReply,
    RegisterRequest,
    UtilityReply,
    UtilityRequest,
)
from repro.ipc.protocol import ProtocolError
from repro.libharp.adaptivity import ApplicationAdapter
from repro.obs import OBS

#: Operating-point granularity announced at registration (§4.1.1).
GRANULARITY = "coarse"
#: Bound on each request to the RM.
REQUEST_TIMEOUT_S = 5.0
#: Tries per request: the first plus two after reconnecting.
MAX_ATTEMPTS = 3


class RegistrationError(RuntimeError):
    """The RM rejected or failed the registration handshake."""


class LibHarpClient:
    """Drives one application's interaction with the HARP RM."""

    def __init__(
        self,
        adapter: ApplicationAdapter,
        transport: Transport,
        description_points: list[dict] | None = None,
    ):
        self.adapter = adapter
        self.transport = transport
        self.description_points = list(description_points or [])
        self.session_id: int | None = None
        self.activations = 0
        self.last_activation: ActivateOperatingPoint | None = None
        self.retries = 0
        self.reconnects = 0
        self.reregistrations = 0
        self._push_socket: str | None = None
        transport.set_push_handler(self._on_push)

    # -- hardened request path ------------------------------------------------------

    def _request_once(self, message: Message) -> Message:
        reply = self.transport.request(message, timeout=REQUEST_TIMEOUT_S)
        if isinstance(reply, ErrorReply):
            raise ProtocolError(f"RM error reply: {reply.error}")
        return reply

    def _request_with_retry(self, message: Message) -> Message:
        """Send with bounded retries; reconnect + re-register between tries."""
        last_exc: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                return self._request_once(message)
            except (ProtocolError, OSError) as exc:
                last_exc = exc
                if OBS.enabled:
                    OBS.counter(
                        "libharp.request_failures", type=message.TYPE
                    ).inc()
                if attempt >= MAX_ATTEMPTS - 1:
                    break
                self.retries += 1
                if OBS.enabled:
                    OBS.counter("libharp.retries", type=message.TYPE).inc()
                self.reconnects += 1
                if OBS.enabled:
                    OBS.counter("libharp.reconnects", type=message.TYPE).inc()
                try:
                    self.transport.reconnect()
                except (ProtocolError, OSError):
                    continue  # next attempt reports the persistent failure
                if self.session_id is not None and not isinstance(
                    message, RegisterRequest
                ):
                    # The RM may have restarted and lost the session: make
                    # sure it knows us again before retrying the request.
                    try:
                        self._reregister()
                    except (ProtocolError, OSError, RegistrationError):
                        continue
        assert last_exc is not None
        raise last_exc

    def _reregister(self) -> None:
        """Redo the registration handshake after a reconnect."""
        reply = self._request_once(self._registration_message())
        if not isinstance(reply, RegisterReply) or not reply.ok:
            error = getattr(reply, "error", None) or "re-registration rejected"
            raise RegistrationError(error)
        self.session_id = reply.session_id
        if self.description_points:
            self._request_once(
                OperatingPointsMessage(
                    pid=self.adapter.pid, points=self.description_points
                )
            )
        self.reregistrations += 1
        if OBS.enabled:
            OBS.counter("libharp.reregistrations").inc()

    def _registration_message(self) -> RegisterRequest:
        return RegisterRequest(
            pid=self.adapter.pid,
            app_name=self.adapter.app_name,
            granularity=GRANULARITY,
            adaptivity=self.adapter.adaptivity.value,
            provides_utility=self.adapter.provides_utility,
            push_socket=self._push_socket,
        )

    # -- registration (steps 1-2) --------------------------------------------------

    def register(self, push_socket: str | None = None) -> int:
        """Perform the registration handshake; returns the session id."""
        self._push_socket = push_socket
        reply = self._request_with_retry(self._registration_message())
        if not isinstance(reply, RegisterReply) or not reply.ok:
            error = getattr(reply, "error", None) or "registration rejected"
            raise RegistrationError(error)
        self.session_id = reply.session_id
        if self.description_points:
            ack = self._request_with_retry(
                OperatingPointsMessage(
                    pid=self.adapter.pid, points=self.description_points
                )
            )
            if isinstance(ack, Ack) and not ack.ok:
                raise RegistrationError(ack.error or "operating points rejected")
        return self.session_id

    def deregister(self) -> None:
        """Graceful shutdown notification."""
        self._request_with_retry(DeregisterRequest(pid=self.adapter.pid))

    # -- push handling (steps 3-4) ----------------------------------------------------

    def _on_push(self, message: Message) -> Message | None:
        if isinstance(message, ActivateOperatingPoint):
            self.adapter.apply_allocation(
                degree=message.degree,
                knobs=message.knobs,
                hw_threads=list(message.hw_threads),
            )
            self.activations += 1
            self.last_activation = message
            return Ack(ok=True)
        if isinstance(message, UtilityRequest):
            return UtilityReply(
                pid=self.adapter.pid, utility=self.adapter.current_utility()
            )
        return Ack(ok=False, error=f"unexpected push {message.TYPE!r}")
