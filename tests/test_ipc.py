"""Tests for the IPC layer: messages, framing, and real Unix sockets."""

import dataclasses
import os
import random
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipc.client import HarpSocketClient, InProcessTransport
from repro.ipc.messages import (
    Ack,
    ActivateOperatingPoint,
    DeregisterRequest,
    OperatingPointsMessage,
    ProtocolViolation,
    RegisterReply,
    RegisterRequest,
    UtilityReply,
    UtilityRequest,
    _MESSAGE_TYPES,
    decode_message,
    encode_message,
)
from repro.ipc.protocol import (
    THREAD_JOIN_TIMEOUT_S,
    FrameCodec,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.ipc.server import PUSH_SEND_TIMEOUT_S, HarpSocketServer
from repro.obs import OBS


class TestMessages:
    def test_register_round_trip(self):
        msg = RegisterRequest(
            pid=42, app_name="ep.C", granularity="coarse",
            adaptivity="scalable", provides_utility=True,
            push_socket="/tmp/x.sock",
        )
        back = decode_message(encode_message(msg))
        assert back == msg

    def test_activate_round_trip(self):
        msg = ActivateOperatingPoint(
            pid=7, erv=[1, 2, 4], degree=9, knobs={"replicas": {"c": 3}},
            hw_threads=[0, 1, 2],
        )
        back = decode_message(encode_message(msg))
        assert back == msg

    @pytest.mark.parametrize("msg", [
        RegisterReply(ok=True, session_id=3),
        OperatingPointsMessage(pid=1, points=[{"erv": [1, 0, 0]}]),
        UtilityRequest(pid=1),
        UtilityReply(pid=1, utility=2.5),
        UtilityReply(pid=1, utility=None),
        DeregisterRequest(pid=1),
        Ack(ok=False, error="nope"),
    ])
    def test_all_types_round_trip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_message({"type": "mystery"})

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_message({"pid": 1})

    def test_malformed_fields_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_message({"type": "register", "bogus": 1})

    def test_bad_granularity_rejected(self):
        with pytest.raises(ProtocolViolation):
            RegisterRequest(pid=1, app_name="x", granularity="medium")

    def test_bad_adaptivity_rejected(self):
        with pytest.raises(ProtocolViolation):
            RegisterRequest(pid=1, app_name="x", adaptivity="magic")


@dataclasses.dataclass
class _Sample:
    """A dataclass nested in a message field."""

    value: float
    tags: list


def _payload(rng: random.Random, depth: int = 0) -> object:
    """A seeded JSON-like value mixing nested dict, list and tuple
    values, ``numpy.float64``, ``None`` and a nested dataclass."""
    kinds = ["int", "float", "np", "str", "none", "bool"]
    if depth < 3:
        kinds += ["dict", "list", "tuple", "dataclass"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "float":
        return rng.random()
    if kind == "np":
        return np.float64(rng.random())
    if kind == "str":
        return rng.choice(["a", "bc", ""])
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    width = rng.randint(0, 3)
    if kind == "dict":
        return {f"k{i}": _payload(rng, depth + 1) for i in range(width)}
    if kind == "list":
        return [_payload(rng, depth + 1) for _ in range(width)]
    if kind == "tuple":
        return tuple(_payload(rng, depth + 1) for _ in range(width))
    return _Sample(rng.random(), [_payload(rng, depth + 1)])


def _containers(value: object):
    """Every mutable container reachable from ``value``."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _containers(item)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            yield value
        for item in value:
            yield from _containers(item)


class TestCodecMatchesAsdict:
    """``Message.to_dict`` copies each field as ``dataclasses.asdict``
    does, and the decoded message shares no container with the sent
    one."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tag", sorted(_MESSAGE_TYPES))
    def test_to_dict_equals_asdict(self, tag: str, seed: int) -> None:
        cls = _MESSAGE_TYPES[tag]
        rng = random.Random(f"{tag}/{seed}")
        kept = ("granularity", "adaptivity")  # validated on construction
        msg = cls(**{
            f.name: _payload(rng)
            for f in dataclasses.fields(cls)
            if f.name not in kept
        })
        expected = {**dataclasses.asdict(msg), "type": msg.TYPE}
        assert msg.to_dict() == expected
        snapshot = dataclasses.asdict(msg)

        decoded = decode_message(encode_message(msg))
        for field in dataclasses.fields(decoded):
            for container in _containers(getattr(decoded, field.name)):
                if isinstance(container, dict):
                    container["mutated"] = 1
                else:
                    container.append("mutated")
        assert dataclasses.asdict(msg) == snapshot


class TestFraming:
    def test_frame_round_trip(self):
        msg = UtilityReply(pid=3, utility=1.25)
        frame = FrameCodec.encode(msg)
        assert FrameCodec.decode(frame[4:]) == msg

    def test_garbage_frame_rejected(self):
        with pytest.raises(ProtocolError):
            FrameCodec.decode(b"\xff\xfe not json")

    def test_socketpair_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, RegisterRequest(pid=1, app_name="x"))
            msg = recv_message(b)
            assert isinstance(msg, RegisterRequest)
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            frame = FrameCodec.encode(UtilityRequest(pid=1))
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    @given(st.integers(0, 2**16), st.text(max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_frames_survive_arbitrary_payloads(self, pid, name):
        msg = RegisterRequest(pid=pid, app_name=name)
        frame = FrameCodec.encode(msg)
        assert FrameCodec.decode(frame[4:]) == msg


class TestInProcessTransport:
    def test_request_reply(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        assert transport.request(UtilityRequest(pid=1)) == Ack(ok=True)

    def test_push_without_handler(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        reply = transport.push(UtilityRequest(pid=1))
        assert isinstance(reply, Ack) and not reply.ok

    def test_push_dispatches_to_handler(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        transport.set_push_handler(lambda m: UtilityReply(pid=1, utility=9.0))
        reply = transport.push(UtilityRequest(pid=1))
        assert reply == UtilityReply(pid=1, utility=9.0)

    def test_closed_transport_rejects(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        transport.close()
        with pytest.raises(ProtocolError):
            transport.request(UtilityRequest(pid=1))


class TestUnixSockets:
    """Integration tests over real AF_UNIX sockets."""

    def test_register_and_push_flow(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        push_path = str(tmp_path / "app.sock")
        registered = threading.Event()

        def handler(message):
            if isinstance(message, RegisterRequest):
                server.open_push_channel(message.pid, message.push_socket)
                registered.set()
                return RegisterReply(ok=True, session_id=message.pid)
            return Ack(ok=True)

        server = HarpSocketServer(rm_path, handler)
        with server:
            client = HarpSocketClient(rm_path, push_path)
            received = []
            client.set_push_handler(lambda m: received.append(m) or Ack(ok=True))
            try:
                reply = client.request(
                    RegisterRequest(pid=5, app_name="ep.C", push_socket=push_path)
                )
                assert isinstance(reply, RegisterReply) and reply.ok
                assert registered.wait(2.0)
                assert server.push(
                    5, ActivateOperatingPoint(pid=5, erv=[1, 0, 0], degree=1)
                )
                deadline = time.time() + 2.0
                while not received and time.time() < deadline:
                    time.sleep(0.01)
                assert received and isinstance(
                    received[0], ActivateOperatingPoint
                )
            finally:
                client.close()

    def test_push_to_unknown_pid_fails_gracefully(self, tmp_path):
        server = HarpSocketServer(
            str(tmp_path / "rm.sock"), lambda m: Ack(ok=True)
        )
        with server:
            assert not server.push(99, UtilityRequest(pid=99))

    def test_handler_exception_becomes_error_ack(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")

        def broken(message):
            raise RuntimeError("boom")

        server = HarpSocketServer(rm_path, broken)
        with server:
            client = HarpSocketClient(rm_path, str(tmp_path / "c.sock"))
            try:
                reply = client.request(UtilityRequest(pid=1))
                assert isinstance(reply, Ack) and not reply.ok
                assert "boom" in reply.error
            finally:
                client.close()

    def test_multiple_clients(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        seen = []

        def handler(message):
            seen.append(message.pid)
            return Ack(ok=True)

        server = HarpSocketServer(rm_path, handler)
        with server:
            clients = [
                HarpSocketClient(rm_path, str(tmp_path / f"c{i}.sock"))
                for i in range(3)
            ]
            try:
                for i, client in enumerate(clients):
                    client.request(DeregisterRequest(pid=i))
                assert sorted(seen) == [0, 1, 2]
            finally:
                for client in clients:
                    client.close()

    def test_socket_file_removed_on_stop(self, tmp_path):
        import os

        rm_path = str(tmp_path / "rm.sock")
        server = HarpSocketServer(rm_path, lambda m: Ack(ok=True))
        server.start()
        assert os.path.exists(rm_path)
        server.stop()
        assert not os.path.exists(rm_path)

    def test_every_push_reply_reaches_the_handler(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        push_path = str(tmp_path / "app.sock")
        n_pushes = 2000
        replies = []

        def handler(message):
            if isinstance(message, UtilityReply):
                replies.append(message)
            return Ack(ok=True)

        with HarpSocketServer(rm_path, handler) as server:
            client = HarpSocketClient(rm_path, push_path)
            client.set_push_handler(
                lambda m: UtilityReply(pid=m.pid, utility=float(m.pid))
            )
            try:
                server.open_push_channel(3, push_path)
                delivered = [
                    server.push(3, UtilityRequest(pid=3))
                    for _ in range(n_pushes)
                ]
                assert all(delivered)
                deadline = time.monotonic() + 10.0
                while len(replies) < n_pushes and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(replies) == n_pushes
                assert all(r.pid == 3 and r.utility == 3.0 for r in replies)
            finally:
                client.close()

    def test_push_to_an_app_that_stops_reading_is_bounded(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        push_path = str(tmp_path / "app.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(push_path)
        listener.listen(1)
        OBS.reset()
        OBS.enable()
        try:
            with listener, HarpSocketServer(
                rm_path, lambda m: Ack(ok=True)
            ) as server:
                server.open_push_channel(4, push_path)
                conn, _ = listener.accept()  # accepted, then never read
                with conn:
                    outcome = []

                    def pusher():
                        for _ in range(1_000_000):
                            if not server.push(4, UtilityRequest(pid=4)):
                                outcome.append(False)
                                return
                        outcome.append(True)

                    thread = threading.Thread(target=pusher, daemon=True)
                    thread.start()
                    thread.join(timeout=PUSH_SEND_TIMEOUT_S + 10.0)
                    assert not thread.is_alive(), "push blocked past its bound"
                    assert outcome == [False]
                    assert server.push(4, UtilityRequest(pid=4)) is False
                    undelivered = OBS.counter(
                        "ipc.pushes", type="utility_request", delivered="false"
                    )
                    assert undelivered.value == 1
                    t0 = time.monotonic()
                    server.stop()
                    assert time.monotonic() - t0 < THREAD_JOIN_TIMEOUT_S + 1.0
        finally:
            OBS.disable()
            OBS.reset()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    def test_push_channel_churn_from_many_threads_leaks_nothing(
        self, tmp_path
    ):
        # Each worker re-opens, pushes to and finally closes its own app's
        # channel while the others do the same, so the handoff list and the
        # loop's registrations are hit from every thread at once.  A lost or
        # misordered handoff would leak a socket or fail a push.
        rm_path = str(tmp_path / "rm.sock")
        n_apps, rounds = 6, 40
        fds_before = len(os.listdir("/proc/self/fd"))
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with HarpSocketServer(rm_path, lambda m: Ack(ok=True)) as server:
                paths = [str(tmp_path / f"app{i}.sock") for i in range(n_apps)]
                clients = [HarpSocketClient(rm_path, path) for path in paths]
                for client in clients:
                    client.set_push_handler(
                        lambda m: UtilityReply(pid=m.pid, utility=1.0)
                    )
                failed = []

                def churn(pid):
                    for _ in range(rounds):
                        server.open_push_channel(pid, paths[pid])
                        if not server.push(pid, UtilityRequest(pid=pid)):
                            failed.append(pid)
                        if not server.push_batch(
                            pid, [UtilityRequest(pid=pid)] * 2
                        ):
                            failed.append(pid)
                    server.close_push_channel(pid)

                workers = [
                    threading.Thread(target=churn, args=(pid,), daemon=True)
                    for pid in range(n_apps)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30.0)
                assert not any(w.is_alive() for w in workers)
                assert failed == []
                for client in clients:
                    client.close()
        finally:
            sys.setswitchinterval(interval)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and (
            threading.active_count() > threads_before
            or len(os.listdir("/proc/self/fd")) > fds_before
        ):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before
        assert len(os.listdir("/proc/self/fd")) <= fds_before
