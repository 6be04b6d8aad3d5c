#!/usr/bin/env python3
"""The real wire: HARP RM and libharp over Unix domain sockets (§4.1.1).

Everything else in this repository drives the RM through the in-process
transport for determinism.  This example exercises the actual IPC path of
the paper: a resource-manager endpoint listening on a Unix socket,
applications registering through :class:`HarpSocketClient`, a dedicated
per-application push socket for activation messages, and utility polling
whose replies travel back to the RM on that push socket — the full Fig. 3
control flow over real file descriptors.  Exits non-zero if any
application's utility reply fails to reach the RM.

Usage::

    python examples/daemon_sockets.py
"""

import tempfile
import time
from pathlib import Path

from repro.core.resource_vector import ErvLayout
from repro.core.operating_point import OperatingPoint, OperatingPointTable
from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.ipc.client import HarpSocketClient
from repro.ipc.messages import (
    Ack,
    ActivateOperatingPoint,
    OperatingPointsMessage,
    RegisterReply,
    RegisterRequest,
    UtilityReply,
    UtilityRequest,
)
from repro.ipc.server import HarpSocketServer
from repro.platform.topology import raptor_lake_i9_13900k


class MiniRm:
    """A minimal socket-facing RM: registration, MMKP allocation, pushes."""

    def __init__(self, socket_path: str):
        self.platform = raptor_lake_i9_13900k()
        self.layout = ErvLayout(self.platform)
        self.allocator = LagrangianAllocator(self.platform, self.layout)
        self.tables: dict[int, OperatingPointTable] = {}
        self.names: dict[int, str] = {}
        #: Utilities the applications reported over their push channels.
        self.utilities: dict[int, float] = {}
        self.server = HarpSocketServer(socket_path, self.handle)

    def handle(self, message):
        if isinstance(message, RegisterRequest):
            print(f"[rm] register pid={message.pid} app={message.app_name} "
                  f"adaptivity={message.adaptivity}")
            self.names[message.pid] = message.app_name
            self.tables[message.pid] = OperatingPointTable(
                message.app_name, self.layout
            )
            if message.push_socket:
                self.server.open_push_channel(message.pid, message.push_socket)
            return RegisterReply(ok=True, session_id=message.pid)
        if isinstance(message, OperatingPointsMessage):
            table = self.tables[message.pid]
            for raw in message.points:
                table.add(OperatingPoint.from_wire(self.layout, raw))
            print(f"[rm] received {len(message.points)} operating points "
                  f"from pid={message.pid}")
            self.reallocate()
            return Ack(ok=True)
        if isinstance(message, UtilityReply):
            print(f"[rm] utility pid={message.pid} utility={message.utility}")
            self.utilities[message.pid] = message.utility
        return Ack(ok=True)

    def reallocate(self):
        requests = [
            AllocationRequest(
                pid=pid, points=table.points, max_utility=table.max_utility()
            )
            for pid, table in self.tables.items()
            if len(table)
        ]
        if not requests:
            return
        result = self.allocator.allocate(requests)
        for pid, selection in result.selections.items():
            message = ActivateOperatingPoint(
                pid=pid,
                erv=selection.point.erv.to_wire(),
                degree=selection.point.erv.total_threads(),
                hw_threads=sorted(selection.hw_threads),
            )
            delivered = self.server.push(pid, message)
            print(f"[rm] push activate pid={pid} erv={message.erv} "
                  f"delivered={delivered}")

    def poll_utilities(self):
        for pid in list(self.tables):
            self.server.push(pid, UtilityRequest(pid=pid))


def fake_application(rm_socket: str, push_socket: str, pid: int, name: str,
                     points: list[dict]):
    """An application-side shim: register, offer points, react to pushes."""
    activations = []

    def on_push(message):
        if isinstance(message, ActivateOperatingPoint):
            activations.append(message)
            print(f"[{name}] adapted to erv={message.erv} "
                  f"degree={message.degree}")
            return Ack(ok=True)
        if isinstance(message, UtilityRequest):
            return UtilityReply(pid=pid, utility=42.0)
        return Ack(ok=True)

    client = HarpSocketClient(rm_socket, push_socket)
    client.set_push_handler(on_push)
    reply = client.request(RegisterRequest(
        pid=pid, app_name=name, adaptivity="scalable",
        provides_utility=True, push_socket=push_socket,
    ), timeout=5.0)
    assert isinstance(reply, RegisterReply) and reply.ok
    client.request(OperatingPointsMessage(pid=pid, points=points), timeout=5.0)
    return client, activations


def main():
    tmp = Path(tempfile.mkdtemp(prefix="harp-"))
    rm_socket = str(tmp / "harp-rm.sock")
    rm = MiniRm(rm_socket)
    layout = rm.layout

    def mk_points(scale):
        return [
            OperatingPoint(erv=layout.make(P2=8), utility=10.0 * scale,
                           power=140.0, measured=True, samples=1).to_wire(),
            OperatingPoint(erv=layout.make(E=16), utility=6.0 * scale,
                           power=60.0, measured=True, samples=1).to_wire(),
            OperatingPoint(erv=layout.make(P2=4, E=8), utility=8.0 * scale,
                           power=95.0, measured=True, samples=1).to_wire(),
        ]

    with rm.server:
        clients = []
        try:
            for pid, name, scale in ((101, "encoder", 1.0), (102, "renderer", 0.9)):
                client, _ = fake_application(
                    rm_socket, str(tmp / f"{name}.sock"), pid, name,
                    mk_points(scale),
                )
                clients.append(client)
                time.sleep(0.1)
            print("[rm] polling utilities over the push channel...")
            rm.poll_utilities()
            deadline = time.monotonic() + 5.0
            while len(rm.utilities) < len(rm.tables):
                assert time.monotonic() < deadline, (
                    f"utility replies reached the RM only from "
                    f"{sorted(rm.utilities)} of {sorted(rm.tables)}"
                )
                time.sleep(0.01)
            assert rm.utilities == {101: 42.0, 102: 42.0}, rm.utilities
            print("\nDone: two applications negotiated disjoint allocations "
                  "and answered utility polls over real Unix sockets.")
        finally:
            for client in clients:
                client.close()


if __name__ == "__main__":
    main()
