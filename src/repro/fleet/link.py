"""The coordinator ↔ node channel: deterministic, fault-injectable.

A :class:`NodeLink` is the fleet-level sibling of
:class:`~repro.ipc.client.InProcessTransport`: a synchronous in-process
channel speaking the typed fleet messages of :mod:`repro.ipc.messages`,
with the fault hooks the chaos matrix needs.  Three primitives map onto
the three traffic classes of the hierarchical control plane:

* ``request`` — node → coordinator, one batched ``NodeReport`` per fleet
  epoch (plus the initial ``NodeRegister``).  Bounded by an explicit
  timeout like every other blocking call site (harplint HL006).
* ``rpc`` — coordinator → node synchronous exchanges where the
  coordinator needs the reply before it can proceed: migration suspends
  (the reply carries the snapshot) and post-restart adoption queries.
  Also timeout-bounded and HL006-covered.
* ``push`` — coordinator → node batched ``NodeDirective`` delivery;
  fire-and-forget, so a partitioned node simply misses directives and
  the coordinator discovers the loss from the next report.

Fault hooks: ``partitioned`` severs both directions (requests and rpcs
raise :class:`ProtocolError`, pushes drop) without stopping the node's
world — the graceful-degradation scenario; ``dead`` is the permanent
variant a node crash sets.  Every message still round-trips through the
codec's dictionaries, so the receiver never shares a container with the
sender; the link never serializes to JSON text.  The fleet chaos matrix
checks that every message it carries decodes from its JSON text to what
this round trip hands over.
"""

from __future__ import annotations

from typing import Callable

from repro.ipc.messages import Message, decode_message, encode_message
from repro.ipc.protocol import ProtocolError
from repro.obs import OBS

#: Default bound on synchronous fleet exchanges (simulated deployments
#: never sleep on it; socket deployments inherit a real timeout).
DEFAULT_FLEET_TIMEOUT_S = 5.0

Handler = Callable[[Message], Message]


class NodeLink:
    """One node's channel to the coordinator (and back)."""

    def __init__(self, node_id: int, coordinator_handler: Handler):
        self.node_id = node_id
        self._coordinator_handler = coordinator_handler
        self._node_handler: Handler | None = None
        #: Fault hook: both directions fail while True (heals on clear).
        self.partitioned = False
        #: Fault hook: permanently severed (node crash).
        self.dead = False
        self.requests = 0
        self.rpcs = 0
        self.pushes_dropped = 0

    # -- wiring -----------------------------------------------------------------------

    def set_node_handler(self, handler: Handler) -> None:
        """Install the node-side rpc dispatcher."""
        self._node_handler = handler

    def rebind_coordinator(self, handler: Handler) -> None:
        """Point the link at a restarted coordinator instance."""
        self._coordinator_handler = handler

    # -- traffic ----------------------------------------------------------------------

    def _codec_roundtrip(self, message: Message) -> Message:
        # Fleet frames go through the same codec as application frames,
        # short of the JSON text a socket would write.
        return decode_message(encode_message(message))

    def _check_up(self) -> None:
        if self.dead:
            raise ProtocolError(f"node {self.node_id} link is dead")
        if self.partitioned:
            raise ProtocolError(f"node {self.node_id} link is partitioned")

    def request(
        self, message: Message, timeout: float = DEFAULT_FLEET_TIMEOUT_S
    ) -> Message:
        """Node → coordinator synchronous request."""
        del timeout  # bounded by contract; the in-process call is instant
        self._check_up()
        self.requests += 1
        if OBS.enabled:
            OBS.counter(
                "fleet.messages", dir="request", type=message.TYPE
            ).inc()
        return self._codec_roundtrip(
            self._coordinator_handler(self._codec_roundtrip(message))
        )

    def rpc(
        self, message: Message, timeout: float = DEFAULT_FLEET_TIMEOUT_S
    ) -> Message:
        """Coordinator → node synchronous call (migration, adoption)."""
        del timeout
        self._check_up()
        if self._node_handler is None:
            raise ProtocolError(f"node {self.node_id} has no rpc handler")
        self.rpcs += 1
        if OBS.enabled:
            OBS.counter("fleet.messages", dir="rpc", type=message.TYPE).inc()
        return self._codec_roundtrip(
            self._node_handler(self._codec_roundtrip(message))
        )

    def push(self, message: Message) -> bool:
        """Coordinator → node directive delivery; False when dropped."""
        if self.dead or self.partitioned or self._node_handler is None:
            self.pushes_dropped += 1
            if OBS.enabled:
                OBS.counter(
                    "fleet.pushes_dropped", node=self.node_id
                ).inc()
            return False
        if OBS.enabled:
            OBS.counter("fleet.messages", dir="push", type=message.TYPE).inc()
        self._node_handler(self._codec_roundtrip(message))
        return True
