"""Control-plane scaling tests (docs/performance.md, "Scaling the
control plane").

Covers the incremental-solving contracts — warm-started subgradient
solves stay exact against the scalar test oracle, warm solves stay
feasible and within the documented Lagrangian bound, churn storms and
fault-injection reaping never corrupt warm state — plus the
batched reallocation epoch semantics (window 0 is bit-identical eager
behavior, a lone registration is never delayed) and the socket
server's event loop with frame write batching.
"""

from __future__ import annotations

import os
import socket
import struct
import tempfile
import threading

import numpy as np
import pytest

from alloc_oracle import ScalarOracleAllocator
from repro.apps import npb_model, tflite_model
from repro.core.allocator import (
    AllocationRequest,
    GreedyAllocator,
    LagrangianAllocator,
    Selection,
)
from repro.core.manager import HarpManager, ManagerConfig
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.ipc.client import HarpSocketClient
from repro.ipc.messages import Ack, ErrorReply
from repro.ipc.protocol import (
    FrameCodec,
    MessageDecodeError,
    StreamDecoder,
    recv_message,
    send_message,
    send_messages,
)
from repro.ipc.server import HarpSocketServer
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler

N_INSTANCES = 200

# Documented drift tolerance for warm solves under partial churn: primal
# recovery seeds its greedy candidate from the previous epoch, and the
# solver guards that seed against the Lagrangian lower bound, so its cost
# stays within this factor of the from-scratch repaired-greedy bound
# (docs/performance.md, "Scaling the control plane").
GREEDY_DRIFT_TOL = 1.10


# -- solver instance generators -------------------------------------------------------


def _random_points(
    layout: ErvLayout, rng: np.random.Generator, n_points: int
) -> list[OperatingPoint]:
    points = []
    for _ in range(n_points):
        p1 = int(rng.integers(0, 5))
        p2 = int(rng.integers(0, 5))
        e = int(rng.integers(0, 9))
        if p1 + p2 + e == 0:
            e = 1
        points.append(
            OperatingPoint(
                erv=ExtendedResourceVector(layout, (p1, p2, e)),
                utility=float(rng.uniform(0.5, 20.0)),
                power=float(rng.uniform(1.0, 150.0)),
                measured=True,
                samples=1,
            )
        )
    return points


def _random_request(
    layout: ErvLayout, rng: np.random.Generator, pid: int
) -> AllocationRequest:
    points = _random_points(layout, rng, int(rng.integers(4, 17)))
    mandatory = rng.random() < 0.25
    preferred = None
    if not mandatory and rng.random() < 0.7:
        preferred = points[int(rng.integers(0, len(points)))].erv
    return AllocationRequest(
        pid=pid,
        points=points,
        max_utility=20.0,
        mandatory=mandatory,
        preferred_erv=preferred,
    )


def _feasible_request(
    layout: ErvLayout, rng: np.random.Generator, pid: int
) -> AllocationRequest:
    """A modest-demand request whose point set always contains a tiny
    configuration, so multi-app instances admit feasible selections."""
    points = []
    for _ in range(int(rng.integers(3, 8))):
        p1 = int(rng.integers(0, 3))
        p2 = int(rng.integers(0, 3))
        e = int(rng.integers(0, 5))
        if p1 + p2 + e == 0:
            e = 1
        points.append(
            OperatingPoint(
                erv=ExtendedResourceVector(layout, (p1, p2, e)),
                utility=float(rng.uniform(0.5, 20.0)),
                power=float(rng.uniform(1.0, 150.0)),
                measured=True,
                samples=1,
            )
        )
    points.append(
        OperatingPoint(
            erv=ExtendedResourceVector(layout, (0, 0, 1)),
            utility=float(rng.uniform(0.5, 5.0)),
            power=float(rng.uniform(1.0, 10.0)),
            measured=True,
            samples=1,
        )
    )
    return AllocationRequest(pid=pid, points=points, max_utility=20.0)


def _random_instance(
    layout: ErvLayout, rng: np.random.Generator
) -> tuple[list[AllocationRequest], dict[str, int] | None]:
    n_apps = int(rng.integers(2, 7))
    requests = [_random_request(layout, rng, pid) for pid in range(n_apps)]
    reserved = None
    if rng.random() < 1 / 3:
        reserved = {"P": int(rng.integers(0, 3)), "E": int(rng.integers(0, 5))}
    return requests, reserved


def _total_cost(requests, result) -> float:
    return sum(
        result.selections[req.pid].point.cost(req.max_utility)
        for req in requests
    )


def _assert_valid_allocation(platform, requests, result) -> None:
    """Structural validity: disjoint placement, demand within capacity."""
    assert set(result.selections) == {req.pid for req in requests}
    seen: set[int] = set()
    for sel in result.selections.values():
        if sel.co_allocated:
            continue
        assert not (sel.hw_threads & seen)
        seen |= sel.hw_threads
    if result.feasible:
        capacity = platform.capacity_vector()
        demand = [0] * len(capacity)
        for sel in result.selections.values():
            for i, cores in enumerate(sel.point.erv.core_vector()):
                demand[i] += cores
        assert all(d <= c for d, c in zip(demand, capacity))


# -- warm-start exactness -------------------------------------------------------------


class TestWarmStartExactness:
    def test_reference_vectorized_parity_with_warm_state(
        self, intel, intel_layout
    ):
        """The parity contract survives warm state: the solver and the
        scalar oracle accumulate identical multipliers across a
        200-instance sequence, so every solve stays selection- and
        placement-identical."""
        rng = np.random.default_rng(824)
        ref = ScalarOracleAllocator(intel, intel_layout, cache_size=0)
        vec = LagrangianAllocator(intel, intel_layout, cache_size=0)
        for _ in range(N_INSTANCES):
            requests, reserved = _random_instance(intel_layout, rng)
            res_ref = ref.allocate(requests, reserved=reserved)
            res_vec = vec.allocate(requests, reserved=reserved)
            assert res_ref.feasible == res_vec.feasible
            for req in requests:
                s_ref = res_ref.selections[req.pid]
                s_vec = res_vec.selections[req.pid]
                assert s_ref.point is s_vec.point
                assert s_ref.hw_threads == s_vec.hw_threads
                assert s_ref.co_allocated == s_vec.co_allocated
            assert _total_cost(requests, res_ref) == _total_cost(
                requests, res_vec
            )
        # Both warm paths were genuinely exercised — and identically so.
        assert ref.stats.warm_starts == vec.stats.warm_starts > 0
        assert ref.stats.subgradient_iters == vec.stats.subgradient_iters

    def test_warm_solves_within_bound_of_cold_across_instances(
        self, intel, intel_layout
    ):
        """Warm solves are selection-identical to cold in the vast
        majority of instances and never worse than the documented
        Lagrangian bound (the repaired greedy upper bound, which both
        candidate pools contain regardless of the starting multipliers)."""
        rng = np.random.default_rng(20260805)
        warm = LagrangianAllocator(intel, intel_layout, cache_size=0)
        cold = LagrangianAllocator(intel, intel_layout, cache_size=0)
        bound = GreedyAllocator(intel, intel_layout, cache_size=0)
        identical = 0
        feasibility_flips = 0
        for _ in range(N_INSTANCES):
            requests, reserved = _random_instance(intel_layout, rng)
            res_warm = warm.allocate(requests, reserved=reserved)
            cold.reset_warm_state()
            res_cold = cold.allocate(requests, reserved=reserved)
            res_bound = bound.allocate(requests, reserved=reserved)
            # Warm multipliers may find feasible selections the cold
            # schedule misses (or, rarely, vice versa) — the contract is
            # that such flips are rare, not forbidden.
            if res_warm.feasible != res_cold.feasible:
                feasibility_flips += 1
            _assert_valid_allocation(intel, requests, res_warm)
            if all(
                res_warm.selections[req.pid].point
                is res_cold.selections[req.pid].point
                for req in requests
            ):
                identical += 1
            if res_warm.feasible and res_bound.feasible:
                assert (
                    _total_cost(requests, res_warm)
                    <= _total_cost(requests, res_bound) + 1e-9
                )
        assert identical >= int(0.9 * N_INSTANCES)
        assert feasibility_flips <= int(0.05 * N_INSTANCES)
        assert warm.stats.warm_starts > 0
        assert cold.stats.warm_starts == 0
        # Warm starts exist to cut iterations, and they must actually do so.
        assert warm.stats.subgradient_iters < cold.stats.subgradient_iters

    def test_reset_warm_state_forces_cold_solve(self, intel, intel_layout):
        rng = np.random.default_rng(5)
        alloc = LagrangianAllocator(intel, intel_layout, cache_size=0)
        for _ in range(3):
            requests, reserved = _random_instance(intel_layout, rng)
            alloc.allocate(requests, reserved=reserved)
        assert alloc.stats.warm_starts > 0
        before = alloc.stats.warm_starts
        alloc.reset_warm_state()
        requests, reserved = _random_instance(intel_layout, rng)
        alloc.allocate(requests, reserved=reserved)
        assert alloc.stats.warm_starts == before  # first post-reset is cold


# -- churn across epochs --------------------------------------------------------------


class TestDeltaSolve:
    """Applications join, leave and update between epochs; every epoch is
    a full (warm-started) solve and must stay valid and bounded."""

    def _base(self, intel, intel_layout, n_apps=8, seed=99):
        rng = np.random.default_rng(seed)
        alloc = LagrangianAllocator(intel, intel_layout, cache_size=0)
        requests = [
            _feasible_request(intel_layout, rng, pid) for pid in range(n_apps)
        ]
        base = alloc.allocate(requests)
        assert base.feasible
        return rng, alloc, requests

    def test_app_addition_is_delta_removal_is_full(self, intel, intel_layout):
        rng, alloc, requests = self._base(intel, intel_layout)
        solves_before = alloc.stats.solves
        requests.append(_feasible_request(intel_layout, rng, pid=100))
        result = alloc.allocate(requests)
        _assert_valid_allocation(intel, requests, result)
        del requests[0]
        result = alloc.allocate(requests)
        assert alloc.stats.solves == solves_before + 2
        assert alloc.stats.warm_starts == 2
        _assert_valid_allocation(intel, requests, result)

    def test_churn_storm_stays_valid_and_bounded(self, intel, intel_layout):
        """Register/unregister/update storm across 200 epochs.

        Every epoch's allocation is structurally valid and stays within
        the documented drift tolerance of the repaired-greedy upper bound
        (under partial churn the greedy candidate is seeded from the
        previous epoch rather than rebuilt, so it may drift from the
        from-scratch bound by a small factor; docs/performance.md)."""
        rng = np.random.default_rng(777)
        alloc = LagrangianAllocator(intel, intel_layout, cache_size=0)
        bound = GreedyAllocator(intel, intel_layout, cache_size=0)
        requests = [
            _feasible_request(intel_layout, rng, pid) for pid in range(5)
        ]
        next_pid = 5
        for _ in range(N_INSTANCES):
            op = rng.random()
            if op < 0.3 and len(requests) < 12:
                requests.append(
                    _feasible_request(intel_layout, rng, next_pid)
                )
                next_pid += 1
            elif op < 0.5 and len(requests) > 2:
                requests.pop(int(rng.integers(0, len(requests))))
            else:
                i = int(rng.integers(0, len(requests)))
                requests[i] = _feasible_request(
                    intel_layout, rng, requests[i].pid
                )
            result = alloc.allocate(list(requests))
            _assert_valid_allocation(intel, requests, result)
            res_bound = bound.allocate(list(requests))
            if result.feasible and res_bound.feasible:
                assert (
                    _total_cost(requests, result)
                    <= GREEDY_DRIFT_TOL * _total_cost(requests, res_bound)
                    + 1e-9
                )
        assert alloc.stats.warm_starts > 0
        assert alloc.stats.row_cache_hits > 0


# -- placement cache (place_selections fallback path) ---------------------------------


class TestPlacementCache:
    def test_fair_share_fallback_revalidates_from_cache(
        self, intel, intel_layout
    ):
        alloc = LagrangianAllocator(intel, intel_layout)
        capacity = intel.capacity_vector()
        erv = ExtendedResourceVector(intel_layout, (2, 0, 4))
        point = OperatingPoint(erv=erv, utility=5.0, power=20.0)

        def fresh():
            return {
                pid: Selection(pid=pid, point=point) for pid in (1, 2, 3)
            }

        first = fresh()
        alloc.place_selections(first, capacity)
        assert alloc.stats.placement_cache_hits == 0
        # A solver-failure storm re-places the same signature every epoch:
        # the rebuilt pools must come from the cache, bit-identically.
        for _ in range(3):
            again = fresh()
            alloc.place_selections(again, capacity)
            for pid in (1, 2, 3):
                assert again[pid].hw_threads == first[pid].hw_threads
                assert again[pid].co_allocated == first[pid].co_allocated
        assert alloc.stats.placement_cache_hits == 3

    def test_reservation_is_part_of_placement_key(self, intel, intel_layout):
        alloc = LagrangianAllocator(intel, intel_layout)
        capacity = intel.capacity_vector()
        point = OperatingPoint(
            erv=ExtendedResourceVector(intel_layout, (0, 2, 0)),
            utility=5.0,
            power=20.0,
        )
        alloc.place_selections({1: Selection(pid=1, point=point)}, capacity)
        alloc.place_selections(
            {1: Selection(pid=1, point=point)}, capacity, reserved={"E": 4}
        )
        # Different reservation → different cache entry, no false hit.
        assert alloc.stats.placement_cache_hits == 0
        alloc.place_selections({1: Selection(pid=1, point=point)}, capacity)
        assert alloc.stats.placement_cache_hits == 1


# -- batched reallocation epochs ------------------------------------------------------


def _world(platform, seed=0):
    return World(
        platform,
        PinnedScheduler(),
        governor=make_governor("powersave", platform),
        seed=seed,
    )


class TestBatchedEpochs:
    def test_window_zero_is_bit_identical_eager(self, intel):
        """Epoch window 0 short-circuits the batching machinery entirely:
        same-seed runs are bit-identical, epoch for epoch."""

        def run(config):
            world = _world(intel, seed=3)
            manager = HarpManager(world, config)
            world.spawn(npb_model("is.C"), managed=True)
            world.spawn(npb_model("ep.C"), managed=True)
            makespan = world.run_until_all_finished()
            return (
                makespan,
                dict(world.energy_by_type_j),
                manager.allocation_epochs,
            )

        eager = run(ManagerConfig())
        batched_zero = run(ManagerConfig(epoch_window_s=0.0))
        assert eager == batched_zero

    def test_lone_registration_activated_immediately(self, intel):
        """Regression (satellite): a huge epoch window must not delay the
        first allocation of a newly registered application beyond one
        monitor interval — urgent triggers pull the deadline to now."""
        world = _world(intel)
        config = ManagerConfig(epoch_window_s=5.0, startup_delay_s=0.05)
        HarpManager(world, config)
        proc = world.spawn(npb_model("ep.C"), managed=True)
        # startup_delay + one monitor interval + scheduling slop.
        world.run_for(0.15)
        assert proc.affinity is not None

    def test_churn_coalesces_into_fewer_epochs(self, intel):
        def run(window):
            world = _world(intel, seed=4)
            manager = HarpManager(
                world, ManagerConfig(epoch_window_s=window)
            )
            for name in ("is.C", "ep.C", "mg.C", "cg.C"):
                world.spawn(npb_model(name), managed=True)
            world.run_until_all_finished()
            assert manager.sessions == {}
            return manager

        eager = run(0.0)
        batched = run(0.1)
        assert batched.epoch_coalesced_events > 0
        assert batched.allocation_epochs <= eager.allocation_epochs
        assert eager.epoch_coalesced_events == 0

    def test_flush_serves_and_clears_pending_epoch(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig(epoch_window_s=5.0))
        assert manager.flush() is None  # nothing pending
        world.spawn(npb_model("ep.C"), managed=True)
        assert manager._epoch_due_tick is not None
        manager.flush()
        assert manager._epoch_due_tick is None
        assert manager.flush() is None

    def test_reaping_interacts_with_batched_epochs(self, intel):
        """Fault-injection-style silent crash under a batched window: the
        lease reaps the victim, the coalesced epoch reallocates, and the
        warm solver state survives the churn."""
        world = _world(intel, seed=9)
        manager = HarpManager(world, ManagerConfig(epoch_window_s=0.05))
        victim = world.spawn(tflite_model("vgg"), managed=True)
        survivor = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.5)
        world.kill(victim.pid, silent=True)
        world.run_for(1.0)
        assert victim.pid not in manager.sessions
        assert manager.sessions_reaped == 1
        assert manager.sessions[survivor.pid].current_hw
        assert manager.allocator.stats.warm_starts > 0
        world.run_until_all_finished()
        assert manager.sessions == {}

    def test_reaping_with_eager_epochs_unchanged(self, intel):
        world = _world(intel, seed=9)
        manager = HarpManager(world, ManagerConfig())
        victim = world.spawn(tflite_model("vgg"), managed=True)
        survivor = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.5)
        world.kill(victim.pid, silent=True)
        world.run_for(1.0)
        assert manager.sessions_reaped == 1
        assert manager.sessions[survivor.pid].current_hw


# -- socket server event loop ---------------------------------------------------------


class TestStreamDecoder:
    def test_incremental_reassembly_byte_by_byte(self):
        frames = b"".join(
            FrameCodec.encode(Ack(ok=True, error=f"m{i}")) for i in range(3)
        )
        decoder = StreamDecoder()
        seen = []
        for i in range(len(frames)):
            decoder.feed(frames[i : i + 1])
            while True:
                message = decoder.next_message()
                if message is None:
                    break
                seen.append(message)
        assert [m.error for m in seen] == ["m0", "m1", "m2"]
        assert decoder.pending_bytes == 0

    def test_resyncs_after_well_framed_junk(self):
        junk = b'{"not": "a message"}'
        decoder = StreamDecoder()
        decoder.feed(struct.pack(">I", len(junk)) + junk)
        decoder.feed(FrameCodec.encode(Ack(ok=True)))
        with pytest.raises(MessageDecodeError):
            decoder.next_message()
        message = decoder.next_message()
        assert isinstance(message, Ack)


class TestSocketServerLoop:
    def test_serves_concurrent_clients(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        server = HarpSocketServer(rm_path, lambda m: Ack(ok=True))
        with server:
            errors = []

            def worker(i):
                client = HarpSocketClient(
                    rm_path, str(tmp_path / f"push{i}.sock"), timeout=5.0
                )
                try:
                    for _ in range(20):
                        reply = client.request(Ack(ok=True), timeout=5.0)
                        if not (isinstance(reply, Ack) and reply.ok):
                            errors.append(reply)
                finally:
                    client.close()

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors

    def test_garbage_frame_recoverable_then_keeps_serving(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        with HarpSocketServer(rm_path, lambda m: Ack(ok=True)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(rm_path)
            sock.settimeout(5.0)
            body = b'{"no": "type"}'
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_message(sock)
            assert isinstance(reply, ErrorReply) and reply.recoverable
            send_message(sock, Ack(ok=True))
            assert isinstance(recv_message(sock), Ack)
            sock.close()

    def test_oversized_frame_closes_connection(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        with HarpSocketServer(rm_path, lambda m: Ack(ok=True)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(rm_path)
            sock.settimeout(5.0)
            sock.sendall(struct.pack(">I", 1 << 30))
            reply = recv_message(sock)
            assert isinstance(reply, ErrorReply) and not reply.recoverable
            assert recv_message(sock) is None  # server closed the stream
            sock.close()

    def test_push_batch_delivers_one_flush(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        push_path = str(tmp_path / "push.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(push_path)
        listener.listen(1)
        with HarpSocketServer(rm_path, lambda m: Ack(ok=True)) as server:
            server.open_push_channel(7, push_path)
            conn, _ = listener.accept()
            conn.settimeout(5.0)
            assert server.push_batch(
                7, [Ack(ok=True, error=f"p{i}") for i in range(5)]
            )
            decoder = StreamDecoder()
            seen = []
            while len(seen) < 5:
                decoder.feed(conn.recv(65536))
                while True:
                    message = decoder.next_message()
                    if message is None:
                        break
                    seen.append(message)
            assert [m.error for m in seen] == [f"p{i}" for i in range(5)]
            assert server.push_batch(7, []) is True
            conn.close()
        listener.close()

    def test_push_batch_unreachable_client(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        with HarpSocketServer(rm_path, lambda m: Ack(ok=True)) as server:
            assert server.push_batch(99, [Ack(ok=True)]) is False

    def test_send_messages_batches_frames(self, tmp_path):
        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        a.settimeout(5.0)
        b.settimeout(5.0)
        send_messages(a, [Ack(ok=True, error=f"x{i}") for i in range(3)])
        for i in range(3):
            message = recv_message(b)
            assert message.error == f"x{i}"
        a.close()
        b.close()
