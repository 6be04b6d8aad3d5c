"""harpfault: the deterministic fault matrix (docs/robustness.md).

Every fault kind is exercised against the in-process simulation stack
(and the wire faults additionally against the real socket server), with
the same acceptance contract everywhere:

* the RM keeps serving the remaining applications — they finish;
* no cores leak — every reaped session's cores are reallocatable and no
  session survives the run;
* no threads leak — socket tests return to the baseline thread count;
* energy accounting stays continuous — finite, non-negative, and
  monotone through the fault;
* the same (workload seed, plan) pair is bit-identical across runs.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.apps import npb_model, tflite_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.fault import (
    Fault,
    FaultKind,
    FaultPlan,
    SimFaultInjector,
    send_garbage_frame,
    send_oversized_header,
    send_truncated_frame,
)
from repro.ipc.messages import Ack, ErrorReply, RegisterRequest
from repro.ipc.protocol import recv_message, send_message
from repro.ipc.server import HarpSocketServer
from repro.obs import OBS
from repro.obs.exporters import to_chrome_trace
from repro.platform.dvfs import make_governor
from repro.platform.topology import raptor_lake_i9_13900k
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler


def _build(seed: int = 7, plan: FaultPlan | None = None):
    platform = raptor_lake_i9_13900k()
    world = World(
        platform,
        PinnedScheduler(),
        governor=make_governor("powersave", platform),
        seed=seed,
    )
    manager = HarpManager(world, ManagerConfig())
    injector = None
    if plan is not None:
        injector = SimFaultInjector(world, manager, plan)
    victim = world.spawn(tflite_model("vgg"), managed=True)
    survivor = world.spawn(npb_model("ep.C"), managed=True)
    return world, manager, injector, victim, survivor


def _run(world, max_seconds: float = 120.0) -> float:
    return world.run_until_all_finished(max_seconds=max_seconds)


def _assert_energy_continuity(world) -> None:
    total = world.total_energy_j()
    assert np.isfinite(total) and total > 0
    for name, joules in world.energy_by_type_j.items():
        assert np.isfinite(joules) and joules >= 0, name


# Matrix of in-process faults: (kind, params) — each is injected against
# the utility-providing victim while a second application keeps running.
_SIM_FAULTS = [
    pytest.param(FaultKind.APP_CRASH, {}, id="app_crash"),
    pytest.param(FaultKind.APP_HANG, {}, id="app_hang"),
    pytest.param(FaultKind.PUSH_LOSS, {}, id="push_loss"),
    pytest.param(FaultKind.DELAYED_REPLY, {"delay_s": 0.1}, id="delayed_reply"),
    pytest.param(FaultKind.GARBAGE_FRAME, {}, id="garbage_frame"),
    pytest.param(FaultKind.TRUNCATED_FRAME, {"count": 2}, id="truncated_frame"),
    pytest.param(FaultKind.SOLVER_FAILURE, {"count": 2}, id="solver_failure"),
    pytest.param(FaultKind.RM_RESTART, {}, id="rm_restart"),
]


class TestSimFaultMatrix:
    @pytest.mark.parametrize("kind,params", _SIM_FAULTS)
    def test_rm_survives_and_serves_survivors(self, kind, params):
        plan = FaultPlan(
            [Fault(at_s=0.5, kind=kind, target="vgg", params=params)]
        )
        world, _, inj, victim, survivor = _build(plan=plan)
        _run(world)

        assert inj.done()
        assert inj.log and inj.log[0]["applied"]
        manager = inj.manager  # RM_RESTART replaces the instance
        # The RM kept serving: the survivor ran to completion and every
        # session was torn down (exit or reap) — no leaked sessions.
        assert survivor.finished
        assert manager.sessions == {}
        _assert_energy_continuity(world)

    @pytest.mark.parametrize("kind,params", _SIM_FAULTS)
    def test_same_seed_fault_runs_are_bit_identical(self, kind, params):
        def once():
            plan = FaultPlan(
                [Fault(at_s=0.5, kind=kind, target="vgg", params=params)]
            )
            world, _, inj, _, _ = _build(seed=11, plan=plan)
            makespan = _run(world)
            return (
                makespan,
                world.total_energy_j(),
                dict(world.energy_by_type_j),
                inj.log,
            )

        assert once() == once()

    def test_crash_reclaims_cores_for_survivors(self):
        plan = FaultPlan([Fault(at_s=0.5, kind=FaultKind.APP_CRASH, target="vgg")])
        world, manager, inj, victim, survivor = _build(plan=plan)
        world.run_for(1.0)
        # The victim crashed silently; the lease must have reaped it and
        # the survivor must hold a live allocation (no leaked cores).
        assert victim.crashed
        assert victim.pid not in manager.sessions
        assert manager.sessions_reaped == 1
        live = manager.sessions[survivor.pid]
        assert live.current_hw
        _run(world)

    def test_hang_detected_via_utility_starvation(self):
        plan = FaultPlan([Fault(at_s=0.5, kind=FaultKind.APP_HANG, target="vgg")])
        world, _, inj, victim, survivor = _build(plan=plan)
        _run(world)
        assert inj.manager.sessions_reaped >= 1
        assert survivor.finished

    def test_push_loss_escalates_to_teardown(self):
        # Target the non-utility application: with no utility polls in
        # the way, the failed *activation* push is what must escalate.
        plan = FaultPlan(
            [Fault(at_s=0.5, kind=FaultKind.PUSH_LOSS, target="ep.C")]
        )
        world, manager, inj, victim, survivor = _build(plan=plan)
        # Here ep.C (``survivor``) loses its pushes and vgg (``victim``)
        # is the application that must keep its cores.
        lost, kept = survivor, victim
        replans = []
        solve = manager.reallocate

        def recorded():
            failures = manager.push_failures
            decision = solve()
            if manager.push_failures > failures:
                replans.append((decision, manager.sessions[kept.pid].current_hw))
            return decision

        manager.reallocate = recorded
        _run(world)
        assert inj.manager.push_failures >= 1
        assert inj.manager.sessions_reaped >= 1
        assert victim.finished
        # The push failed inside an epoch: reallocate() reaped ep.C and
        # returned the re-planned decision, which gives its cores to vgg.
        assert len(replans) == 1
        decision, kept_hw = replans[0]
        assert lost.pid not in {app.pid for app in decision.apps}
        (app,) = decision.apps
        assert app.pid == kept.pid and app.hw_threads == kept_hw
        assert kept_hw
        # One epoch for the failed plan, one for the re-plan: the same
        # count as the recursive re-run this loop replaced.
        assert manager.allocation_epochs == 38

    def test_solver_failure_falls_back_to_fair_share(self):
        plan = FaultPlan(
            [Fault(at_s=0.5, kind=FaultKind.SOLVER_FAILURE, params={"count": 3})]
        )
        world, _, inj, victim, survivor = _build(plan=plan)
        _run(world)
        assert inj.manager.solver_fallbacks == 3
        assert victim.finished and survivor.finished

    def test_rm_restart_preserves_learning(self):
        plan = FaultPlan([Fault(at_s=0.8, kind=FaultKind.RM_RESTART)])
        world, old_manager, inj, victim, survivor = _build(plan=plan)
        _run(world)
        new_manager = inj.manager
        assert new_manager is not old_manager
        # The restored RM carries the learned tables forward and adopted
        # the still-running applications, which then finished normally.
        assert set(new_manager.table_store) >= {"vgg", "ep.C"}
        assert victim.finished and survivor.finished
        assert new_manager.sessions == {}


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(seed=42, horizon_s=10.0, n_faults=5)
        b = FaultPlan.generate(seed=42, horizon_s=10.0, n_faults=5)
        assert a.faults == b.faults
        c = FaultPlan.generate(seed=43, horizon_s=10.0, n_faults=5)
        assert a.faults != c.faults

    def test_wire_round_trip(self):
        plan = FaultPlan.generate(
            seed=1,
            horizon_s=5.0,
            kinds=list(FaultKind),
            n_faults=4,
            targets=["vgg"],
        )
        blob = json.dumps(plan.to_wire())
        restored = FaultPlan.from_wire(json.loads(blob))
        assert restored.faults == plan.faults
        assert restored.seed == plan.seed

    def test_plan_is_time_sorted(self):
        plan = FaultPlan(
            [
                Fault(at_s=2.0, kind=FaultKind.APP_CRASH),
                Fault(at_s=1.0, kind=FaultKind.RM_RESTART),
            ]
        )
        assert [f.at_s for f in plan] == [1.0, 2.0]


class TestSnapshotRestore:
    def test_snapshot_round_trip(self):
        world, manager, _, victim, survivor = _build()
        world.run_for(1.0)
        snap = manager.snapshot()
        # JSON-compatible by construction.
        blob = json.dumps(snap)
        manager.shutdown()
        fresh = HarpManager(world, manager.config)
        fresh.restore(json.loads(blob))
        adopted = fresh.adopt_running()
        assert adopted == len(
            [p for p in (victim, survivor) if not p.finished]
        )
        for name, table in manager.table_store.items():
            assert fresh.table_store[name].to_wire() == table.to_wire()
        _run(world)
        assert victim.finished and survivor.finished

    def test_restore_rejects_unknown_version(self):
        world, manager, _, _, _ = _build()
        with pytest.raises(ValueError):
            manager.restore({"version": 99})

    def test_shutdown_is_idempotent_and_detaches(self):
        world, manager, _, victim, survivor = _build()
        world.run_for(0.5)
        epochs = manager.allocation_epochs
        manager.shutdown()
        manager.shutdown()  # must not raise
        world.run_for(0.5)
        # Detached: no more allocation activity, sessions cleared.
        assert manager.allocation_epochs == epochs
        assert manager.sessions == {}


class TestObservability:
    @pytest.fixture
    def obs(self):
        OBS.reset()
        OBS.enable()
        yield OBS
        OBS.disable()
        OBS.reset()

    def test_fault_and_recovery_events_exported(self, obs):
        # Restart first, then crash: the restarted RM must detect the
        # crash through its own lease, producing both recovery and fault
        # events in one trace.
        plan = FaultPlan(
            [
                Fault(at_s=0.3, kind=FaultKind.RM_RESTART),
                Fault(at_s=0.6, kind=FaultKind.APP_CRASH, target="vgg"),
            ]
        )
        world, _, inj, _, _ = _build(plan=plan)
        _run(world)
        counters = {
            (c.name, tuple(sorted(c.labels.items()))): c.value
            for c in obs.counters()
        }
        assert any(name == "fault.injected" for name, _ in counters)
        assert any(name == "rm.sessions_reaped" for name, _ in counters)
        assert any(name == "rm.restores" for name, _ in counters)
        event_names = {e.name for e in obs.events}
        assert {"fault.fire", "rm.reap", "rm.restore"} <= event_names
        trace = to_chrome_trace(obs)
        trace_names = {e.get("name") for e in trace["traceEvents"]}
        assert "fault.fire" in trace_names

    def test_obs_off_run_matches_obs_on_run(self):
        def once(enabled: bool):
            OBS.reset()
            if enabled:
                OBS.enable()
            else:
                OBS.disable()
            try:
                plan = FaultPlan(
                    [Fault(at_s=0.5, kind=FaultKind.APP_CRASH, target="vgg")]
                )
                world, _, _, _, _ = _build(seed=13, plan=plan)
                makespan = _run(world)
                return makespan, world.total_energy_j()
            finally:
                OBS.disable()
                OBS.reset()

        assert once(True) == once(False)


class TestWireFaults:
    """Wire faults against the real socket server."""

    def _serve(self, tmp_path):
        return HarpSocketServer(
            str(tmp_path / "rm.sock"), lambda m: Ack(ok=True)
        )

    def test_garbage_frame_gets_error_reply_and_connection_survives(
        self, tmp_path
    ):
        baseline = threading.active_count()
        server = self._serve(tmp_path)
        with server:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "rm.sock"))
                sock.settimeout(5.0)
                rng = np.random.default_rng(0)
                send_garbage_frame(sock, rng)
                reply = recv_message(sock)
                assert isinstance(reply, ErrorReply) and reply.recoverable
                # Stream still in sync: a real request works afterwards.
                send_message(
                    sock, RegisterRequest(pid=1, app_name="x")
                )
                reply = recv_message(sock)
                assert isinstance(reply, Ack) and reply.ok
        _wait_for_thread_baseline(baseline)

    def test_truncated_frame_closes_connection_only(self, tmp_path):
        baseline = threading.active_count()
        server = self._serve(tmp_path)
        with server:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "rm.sock"))
                sock.settimeout(5.0)
                send_truncated_frame(sock, claimed=1024, delivered=16)
                reply = recv_message(sock)
                assert isinstance(reply, ErrorReply)
                assert not reply.recoverable
            # The server itself keeps accepting fresh connections.
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "rm.sock"))
                sock.settimeout(5.0)
                send_message(sock, RegisterRequest(pid=2, app_name="y"))
                reply = recv_message(sock)
                assert isinstance(reply, Ack) and reply.ok
        _wait_for_thread_baseline(baseline)

    def test_oversized_header_rejected_without_allocation(self, tmp_path):
        baseline = threading.active_count()
        server = self._serve(tmp_path)
        with server:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "rm.sock"))
                sock.settimeout(5.0)
                send_oversized_header(sock)
                reply = recv_message(sock)
                assert isinstance(reply, ErrorReply)
                assert not reply.recoverable
        _wait_for_thread_baseline(baseline)

    def test_seeded_garbage_is_reproducible(self):
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        sent_a, sent_b = [], []

        class _Capture:
            def __init__(self, out):
                self.out = out

            def sendall(self, data):
                self.out.append(data)

        send_garbage_frame(_Capture(sent_a), a)
        send_garbage_frame(_Capture(sent_b), b)
        assert sent_a == sent_b


def _wait_for_thread_baseline(baseline: int, timeout_s: float = 5.0) -> None:
    """Assert worker threads drained back to the pre-server count."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if threading.active_count() <= baseline:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"thread leak: {threading.active_count()} alive, baseline {baseline}"
    )
