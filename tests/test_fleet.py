"""harpfleet: the fleet-level chaos matrix (docs/robustness.md §6).

Acceptance contract of the sharded, hierarchical RM:

* every node-scoped fault kind (node crash, node partition, coordinator
  restart, migration abort) is survived on both engines: all submitted
  apps finish, no app ever has two live copies, and fleet-total energy
  stays finite, positive, and monotone through the fault;
* node loss triggers lease reap + re-admission within one coordinator
  epoch; a partitioned node degrades to autonomous operation and
  reconciles on reconnect; a restarted coordinator recovers every node
  registration from its snapshot;
* live migration preserves per-app cumulative energy books exactly —
  both the simulator's ground truth and the RM-side attributed account;
* the same (fleet seed, workload, plan) triple is bit-identical across
  replays, with telemetry on or off, on either engine.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.core.manager import ManagerConfig
from repro.fault import NODE_FAULT_KINDS, Fault, FaultKind, FaultPlan
from repro.fleet import (
    Coordinator,
    CoordinatorConfig,
    FleetAppSpec,
    FleetSim,
    NodeLink,
    NodeManager,
    NodeState,
    generate_fleet_apps,
)
from repro.ipc.messages import (
    Ack,
    MigrateIn,
    MigrateOut,
    MigrateOutReply,
    NodeAdoptQuery,
    NodeAdoptReply,
    NodeDirective,
    NodeRegister,
    NodeRegisterReply,
    NodeReport,
    decode_message,
    encode_message,
)
from repro.ipc.protocol import ProtocolError, recv_message, send_message
from repro.ipc.server import HarpSocketServer
from repro.obs import OBS

ENGINES = ["tick", "event"]


def _apps(n: int = 4, work_scale: float = 0.05) -> list[FleetAppSpec]:
    return [
        FleetAppSpec(
            app_id=f"app-{i}",
            model="npb:ep.C" if i % 2 == 0 else "npb:is.C",
            nthreads=1,
            work_scale=work_scale,
        )
        for i in range(n)
    ]


def _fleet(
    n_nodes: int = 3,
    apps: list[FleetAppSpec] | None = None,
    engine: str = "tick",
    seed: int = 11,
    plan: FaultPlan | None = None,
    node_lease_epochs: int = 1,
    epoch_window_s: float = 0.05,
) -> FleetSim:
    return FleetSim(
        n_nodes=n_nodes,
        apps=apps if apps is not None else _apps(),
        engine=engine,
        seed=seed,
        plan=plan,
        coordinator_config=CoordinatorConfig(
            node_lease_epochs=node_lease_epochs
        ),
        manager_config=ManagerConfig(epoch_window_s=epoch_window_s),
    )


def _assert_fleet_energy_continuity(fleet: FleetSim) -> None:
    total = fleet.fleet_energy_j()
    assert np.isfinite(total) and total > 0
    for node in fleet.nodes.values():
        energy = node.energy_j()
        assert np.isfinite(energy) and energy >= 0


def _assert_no_double_placement(fleet: FleetSim) -> None:
    for app_id, nodes in fleet.live_placements().items():
        assert len(nodes) <= 1, f"{app_id} live on {nodes}"


# One fault of each node-scoped kind, aimed mid-run.
_NODE_FAULTS = [
    pytest.param(
        FaultPlan([Fault(at_s=0.6, kind=FaultKind.NODE_CRASH, target="node-1")]),
        id="node_crash",
    ),
    pytest.param(
        FaultPlan(
            [
                Fault(
                    at_s=0.6,
                    kind=FaultKind.NODE_PARTITION,
                    target="node-1",
                    params={"duration_s": 1.0},
                )
            ]
        ),
        id="node_partition",
    ),
    pytest.param(
        FaultPlan([Fault(at_s=0.6, kind=FaultKind.COORDINATOR_RESTART)]),
        id="coordinator_restart",
    ),
    pytest.param(
        FaultPlan([Fault(at_s=0.6, kind=FaultKind.MIGRATION_ABORT)]),
        id="migration_abort",
    ),
]


# -- satellite: the extended FaultPlan schema ----------------------------------------


class TestNodeFaultPlan:
    def test_node_fault_kinds_constant(self):
        assert NODE_FAULT_KINDS == (
            FaultKind.NODE_CRASH,
            FaultKind.NODE_PARTITION,
            FaultKind.COORDINATOR_RESTART,
            FaultKind.MIGRATION_ABORT,
        )

    def test_node_kinds_round_trip_through_json(self):
        plan = FaultPlan(
            [
                Fault(at_s=0.5, kind=FaultKind.NODE_CRASH, target="node-2"),
                Fault(
                    at_s=0.7,
                    kind=FaultKind.NODE_PARTITION,
                    target="node-0",
                    params={"duration_s": 1.5},
                ),
                Fault(at_s=0.9, kind=FaultKind.COORDINATOR_RESTART),
                Fault(at_s=1.1, kind=FaultKind.MIGRATION_ABORT),
            ],
            seed=3,
        )
        wire = json.loads(json.dumps(plan.to_wire()))
        restored = FaultPlan.from_wire(wire)
        assert restored.faults == plan.faults
        assert restored.seed == plan.seed

    def test_generation_with_node_kinds_is_seeded(self):
        targets = [f"node-{i}" for i in range(4)]
        first = FaultPlan.generate(
            seed=21,
            horizon_s=3.0,
            kinds=list(NODE_FAULT_KINDS),
            n_faults=6,
            targets=targets,
        )
        again = FaultPlan.generate(
            seed=21,
            horizon_s=3.0,
            kinds=list(NODE_FAULT_KINDS),
            n_faults=6,
            targets=targets,
        )
        other = FaultPlan.generate(
            seed=22,
            horizon_s=3.0,
            kinds=list(NODE_FAULT_KINDS),
            n_faults=6,
            targets=targets,
        )
        assert first.faults == again.faults
        assert first.faults != other.faults
        assert all(f.kind in NODE_FAULT_KINDS for f in first.faults)
        assert all(0.3 <= f.at_s <= 2.7 for f in first.faults)


# -- the fleet message set ------------------------------------------------------------


class TestFleetMessages:
    _MESSAGES = [
        NodeRegister(node_id=3, capacity_slots=6),
        NodeRegisterReply(ok=True, epoch=7),
        NodeReport(
            node_id=3,
            epoch=7,
            time_s=1.75,
            energy_j=42.5,
            free_slots=2,
            apps=[{"app_id": "a", "work_done": 1.0, "finished": False}],
        ),
        NodeDirective(
            node_id=3,
            epoch=8,
            admissions=[{"spec": {"app_id": "b"}, "work_done": 0.0}],
            kills=["c"],
        ),
        MigrateOut(app_id="a"),
        MigrateOutReply(ok=True, snapshot={"spec": {"app_id": "a"}}),
        MigrateIn(snapshot={"spec": {"app_id": "a"}, "work_done": 2.0}),
        NodeAdoptQuery(epoch=9),
        NodeAdoptReply(node_id=3, capacity_slots=6, apps=[]),
    ]

    @pytest.mark.parametrize(
        "message", _MESSAGES, ids=lambda m: m.TYPE
    )
    def test_round_trip_through_json(self, message):
        wire = json.loads(json.dumps(encode_message(message)))
        assert decode_message(wire) == message

    def test_fleet_protocol_over_real_socket(self, tmp_path):
        """The coordinator handler serves fleet frames over the real
        socket server unchanged — the protocol is wire-ready."""
        baseline = threading.active_count()
        coordinator = Coordinator()
        coordinator.register_link(
            NodeLink(5, coordinator.handle_node_request)
        )
        server = HarpSocketServer(
            str(tmp_path / "coord.sock"), coordinator.handle_node_request
        )
        with server:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "coord.sock"))
                sock.settimeout(5.0)
                send_message(
                    sock, NodeRegister(node_id=5, capacity_slots=4)
                )
                reply = recv_message(sock)
                assert isinstance(reply, NodeRegisterReply) and reply.ok
                send_message(
                    sock,
                    NodeReport(node_id=5, epoch=1, free_slots=4, apps=[]),
                )
                assert isinstance(recv_message(sock), Ack)
        assert 5 in coordinator.nodes
        _wait_for_thread_baseline(baseline)


# -- libharp's bounded retry: reconnect between tries, no backoff --------------------


class TestRetryJitter:
    def test_reconnect_attempts_are_counted(self):
        class FlakyTransport:
            def __init__(self, failures: int):
                self.failures = failures
                self.reconnects = 0

            def request(self, message, timeout=None):
                if self.failures > 0:
                    self.failures -= 1
                    raise ProtocolError("injected")
                return Ack(ok=True)

            def set_push_handler(self, handler):
                pass

            def reconnect(self):
                self.reconnects += 1

        from repro.apps import npb_model
        from repro.libharp.adaptivity import SimProcessAdapter
        from repro.libharp.client import LibHarpClient
        from repro.sim.process import SimProcess

        transport = FlakyTransport(failures=2)
        client = LibHarpClient(
            SimProcessAdapter(
                SimProcess(pid=1, model=npb_model("ep.C"), nthreads=2)
            ),
            transport,
        )
        reply = client._request_with_retry(Ack(ok=True))
        assert isinstance(reply, Ack)
        assert client.retries == 2
        assert client.reconnects == 2
        assert transport.reconnects == 2
        # A third consecutive failure exhausts the three attempts.
        transport.failures = 3
        with pytest.raises(ProtocolError):
            client._request_with_retry(Ack(ok=True))
        assert transport.failures == 0


# -- the chaos matrix: every node fault kind × both engines ---------------------------


class TestFleetChaosMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("plan", _NODE_FAULTS)
    def test_fleet_survives_and_finishes(self, plan, engine):
        fleet = _fleet(engine=engine, plan=plan)
        fleet.run_until_done(max_epochs=300)
        assert fleet.injector.done()
        assert fleet.injector.log and fleet.injector.log[0]["applied"]
        assert fleet.coordinator.all_finished()
        _assert_no_double_placement(fleet)
        _assert_fleet_energy_continuity(fleet)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("plan", _NODE_FAULTS)
    def test_same_seed_replay_is_bit_identical(self, plan, engine):
        def once():
            fleet = _fleet(engine=engine, plan=plan, seed=23)
            fleet.run_until_done(max_epochs=300)
            return json.dumps(fleet.results(), sort_keys=True)

        assert once() == once()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("plan", _NODE_FAULTS)
    def test_obs_off_run_matches_obs_on_run(self, plan, engine):
        def once(enabled: bool):
            OBS.reset()
            if enabled:
                OBS.enable()
            else:
                OBS.disable()
            try:
                fleet = _fleet(engine=engine, plan=plan, seed=29)
                fleet.run_until_done(max_epochs=300)
                return json.dumps(fleet.results(), sort_keys=True)
            finally:
                OBS.disable()

        assert once(False) == once(True)

    def test_tick_and_event_engines_agree(self):
        """Fleet-level parity: the engine is an implementation detail."""

        def once(engine: str):
            plan = FaultPlan(
                [
                    Fault(
                        at_s=0.6, kind=FaultKind.NODE_CRASH, target="node-1"
                    )
                ]
            )
            fleet = _fleet(engine=engine, plan=plan, seed=31)
            # The engine switch reaches every node's world.
            assert all(
                isinstance(node, NodeManager)
                and node.world.event_driven == (engine == "event")
                for node in fleet.nodes.values()
            )
            fleet.run_until_done(max_epochs=300)
            return json.dumps(fleet.results(), sort_keys=True)

        assert once("tick") == once("event")

    @pytest.mark.parametrize("plan", _NODE_FAULTS)
    def test_link_traffic_is_wire_faithful(self, plan, monkeypatch):
        """Every message a chaos run carries decodes from its JSON text
        to what the link's in-process codec round trip hands over: the
        link never calls ``json``, so this is what makes its traffic
        wire-clean."""
        carried = []
        roundtrip = NodeLink._codec_roundtrip

        def recorded(self, message):
            carried.append(message)
            return roundtrip(self, message)

        monkeypatch.setattr(NodeLink, "_codec_roundtrip", recorded)
        fleet = _fleet(
            apps=_apps(4, work_scale=0.5), engine="event", plan=plan, seed=41
        )
        fleet.run_until_done(max_epochs=300)
        assert {"node_register", "node_report", "node_directive"} <= {
            m.TYPE for m in carried
        }
        for message in carried:
            wire = json.loads(json.dumps(encode_message(message)))
            assert decode_message(wire) == roundtrip(None, message)

    @pytest.mark.parametrize("plan", _NODE_FAULTS)
    def test_dense_event_engine_matches_tick(self, plan):
        """Dense chaos: heavy sessions keep every node busy, so the event
        engine rides busy-stretch fast-forwards between epochs — and a
        node fault landing inside a predicted stretch must re-split it
        bit-identically with the tick engine."""

        def once(engine: str):
            fleet = _fleet(
                apps=_apps(4, work_scale=0.5), engine=engine, plan=plan, seed=41
            )
            fleet.run_until_done(max_epochs=300)
            assert fleet.injector.done()
            _assert_no_double_placement(fleet)
            return json.dumps(fleet.results(), sort_keys=True)

        assert once("tick") == once("event")

    def test_generated_multi_fault_plan_is_survived(self):
        plan = FaultPlan.generate(
            seed=4,
            horizon_s=2.0,
            kinds=list(NODE_FAULT_KINDS),
            n_faults=4,
            targets=["node-1", "node-2"],
        )
        fleet = _fleet(n_nodes=4, apps=_apps(6), plan=plan, seed=37)
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()
        _assert_no_double_placement(fleet)
        _assert_fleet_energy_continuity(fleet)


# -- node loss: lease reap + re-admission ---------------------------------------------


class TestNodeLoss:
    def test_reap_and_readmission_within_one_coordinator_epoch(self):
        fleet = _fleet(apps=_apps(4, work_scale=0.6), node_lease_epochs=1)
        fleet.run(3)  # place everything
        victim = max(
            fleet.coordinator.placements().values(), key=lambda n: n or 0
        )
        victim_apps = [
            app_id
            for app_id, node in fleet.coordinator.placements().items()
            if node == victim
        ]
        assert victim_apps
        fleet.nodes[victim].crash()
        # The lease allows one silent epoch; the next run_epoch both
        # reaps the node and re-admits its apps elsewhere.
        reaped_at = None
        for _ in range(5):
            fleet.run_epoch()
            if fleet.coordinator.nodes_reaped:
                reaped_at = fleet.coordinator.epoch
                break
        assert reaped_at is not None
        placements = fleet.coordinator.placements()
        for app_id in victim_apps:
            rec = fleet.coordinator.apps[app_id]
            assert rec.state in ("placed", "finished")
            assert rec.node_id != victim
            if rec.state == "placed":
                assert placements[app_id] != victim
                # Re-admitted in the same epoch as the reap.
                assert rec.placed_epoch == reaped_at
        assert fleet.coordinator.readmissions >= len(
            [a for a in victim_apps if fleet.coordinator.apps[a].state == "placed"]
        )

    def test_fleet_energy_is_monotone_across_a_crash(self):
        plan = FaultPlan(
            [Fault(at_s=0.5, kind=FaultKind.NODE_CRASH, target="node-0")]
        )
        fleet = _fleet(plan=plan)
        last = 0.0
        for _ in range(20):
            fleet.run_epoch()
            total = fleet.fleet_energy_j()
            assert total >= last - 1e-9
            last = total
        assert fleet.coordinator.nodes_reaped == 1

    def test_readmitted_app_resumes_from_checkpoint(self):
        """Work done before the crash is not repeated: the re-admission
        entry carries the last reported progress."""
        fleet = _fleet(apps=_apps(2, work_scale=0.8), node_lease_epochs=1)
        fleet.run(4)
        victim = fleet.coordinator.placements()["app-0"]
        checkpoint = fleet.coordinator.apps["app-0"].last_status
        assert checkpoint["work_done"] > 0
        fleet.nodes[victim].crash()
        fleet.run(3)
        rec = fleet.coordinator.apps["app-0"]
        assert rec.node_id != victim
        # The new placement's cumulative books start at the checkpoint.
        assert fleet.app_work_done("app-0") >= checkpoint["work_done"] - 1e-9
        assert (
            fleet.app_energy_true_j("app-0")
            >= checkpoint["energy_true_j"] - 1e-9
        )


# -- live migration -------------------------------------------------------------------


class TestMigration:
    def _placed_fleet(self) -> tuple[FleetSim, str, int]:
        fleet = _fleet(n_nodes=2, apps=_apps(2, work_scale=0.8))
        fleet.run(3)
        pick = fleet.coordinator.pick_migration()
        assert pick is not None
        return fleet, pick[0], pick[1]

    def test_migration_preserves_both_energy_books_exactly(self):
        fleet, app_id, target = self._placed_fleet()
        true_before = fleet.app_energy_true_j(app_id)
        attr_before = fleet.app_attr_energy_j(app_id)
        work_before = fleet.app_work_done(app_id)
        assert true_before > 0
        assert fleet.coordinator.migrate(app_id, target)
        # The books continue exactly where the source left off: the
        # suspend/resume cycle itself costs the app nothing.
        assert fleet.app_energy_true_j(app_id) == pytest.approx(
            true_before, abs=1e-12
        )
        assert fleet.app_attr_energy_j(app_id) == pytest.approx(
            attr_before, abs=1e-12
        )
        assert fleet.app_work_done(app_id) == pytest.approx(
            work_before, abs=1e-9
        )
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.apps[app_id].state == "finished"
        assert fleet.app_energy_true_j(app_id) > true_before
        assert fleet.coordinator.apps[app_id].migrations == 1

    def test_migration_abort_rolls_back_to_source(self):
        fleet, app_id, target = self._placed_fleet()
        source = fleet.coordinator.apps[app_id].node_id
        true_before = fleet.app_energy_true_j(app_id)
        fleet.coordinator.fault_abort_migrations = 1
        assert not fleet.coordinator.migrate(app_id, target)
        rec = fleet.coordinator.apps[app_id]
        assert rec.node_id == source
        assert rec.state == "placed"
        assert fleet.coordinator.migration_aborts == 1
        assert fleet.app_energy_true_j(app_id) == pytest.approx(
            true_before, abs=1e-12
        )
        _assert_no_double_placement(fleet)
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()

    def test_failed_rollback_reenters_pending_pool(self):
        """Source partitions between suspend and rollback: the snapshot
        becomes the app and is re-admitted — never lost."""
        fleet, app_id, target = self._placed_fleet()
        source = fleet.coordinator.apps[app_id].node_id
        link = fleet.links[source]

        original_rpc = link.rpc

        def partition_after_first_rpc(message, timeout):
            reply = original_rpc(message, timeout=timeout)
            link.partitioned = True
            return reply

        link.rpc = partition_after_first_rpc
        fleet.links[target].partitioned = True  # target also unreachable
        assert not fleet.coordinator.migrate(app_id, target)
        rec = fleet.coordinator.apps[app_id]
        assert rec.state == "pending"
        assert rec.last_status["work_done"] > 0
        link.rpc = original_rpc
        link.partitioned = False
        fleet.links[target].partitioned = False
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()

    def test_mid_epoch_migration_is_never_double_placed_or_charged(self):
        """Satellite: lease-reap × batched-epoch interaction.  An app
        migrated while the node's intra-node epoch window is still open
        must not be double-placed or double-charged."""
        fleet = FleetSim(
            n_nodes=2,
            apps=_apps(2, work_scale=0.8),
            seed=11,
            coordinator_config=CoordinatorConfig(node_lease_epochs=1),
            # Intra-node epoch window wider than the fleet epoch: the
            # suspend always lands inside an open batching window.
            manager_config=ManagerConfig(epoch_window_s=0.4),
        )
        fleet.run(3)
        pick = fleet.coordinator.pick_migration()
        assert pick is not None
        app_id, target = pick
        source = fleet.coordinator.apps[app_id].node_id
        true_before = fleet.app_energy_true_j(app_id)
        assert fleet.coordinator.migrate(app_id, target)
        _assert_no_double_placement(fleet)
        assert app_id not in fleet.nodes[source].apps
        assert app_id in fleet.nodes[target].apps
        assert fleet.app_energy_true_j(app_id) == pytest.approx(
            true_before, abs=1e-12
        )
        # The source manager's open epoch flushes without the migrated
        # session and must not resurrect it.
        fleet.run(2)
        _assert_no_double_placement(fleet)
        assert app_id not in fleet.nodes[source].manager.sessions
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()
        # Books stayed a single chain: cumulative energy is the carried
        # checkpoint plus exactly one live placement at any time.
        assert fleet.app_energy_true_j(app_id) > true_before


# -- coordinator crash recovery -------------------------------------------------------


class TestCoordinatorRestart:
    def test_restart_recovers_all_node_registrations(self):
        fleet = _fleet(n_nodes=4, apps=_apps(4, work_scale=0.6))
        fleet.run(3)
        before_nodes = dict(fleet.coordinator.nodes)
        before_placements = fleet.coordinator.placements()
        fleet.restart_coordinator()
        after = fleet.coordinator
        assert sorted(after.nodes) == sorted(before_nodes)
        assert all(record.alive for record in after.nodes.values())
        assert after.placements() == before_placements
        fleet.run_until_done(max_epochs=300)
        assert after.all_finished()

    def test_snapshot_round_trips_through_json(self):
        fleet = _fleet(apps=_apps(3, work_scale=0.6))
        fleet.run(3)
        snapshot = json.loads(json.dumps(fleet.coordinator.snapshot()))
        fresh = Coordinator(fleet.coordinator.config)
        for link in fleet.links.values():
            fresh.register_link(link)
            link.rebind_coordinator(fresh.handle_node_request)
        fresh.restore(snapshot)
        adopted = fresh.adopt_nodes(fleet.links)
        assert adopted == len(fleet.nodes)
        assert sorted(fresh.apps) == sorted(fleet.coordinator.apps)
        for app_id, rec in fresh.apps.items():
            assert rec.node_id == fleet.coordinator.apps[app_id].node_id

    def test_unknown_snapshot_version_rejected(self):
        with pytest.raises(ValueError):
            Coordinator().restore({"version": 99})

    def test_restart_with_an_unreachable_node_keeps_its_lease(self):
        fleet = _fleet(n_nodes=3, apps=_apps(4, work_scale=0.6))
        fleet.run(3)
        fleet.links[2].partitioned = True
        fleet.restart_coordinator()
        assert not fleet.coordinator.nodes[2].alive
        assert fleet.coordinator.nodes[0].alive
        fleet.links[2].partitioned = False
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()


# -- partition: autonomous degradation + reconciliation -------------------------------


class TestPartition:
    def test_partitioned_node_degrades_to_autonomous_and_reattaches(self):
        fleet = _fleet(
            apps=_apps(4, work_scale=0.6), node_lease_epochs=10
        )
        fleet.run(3)
        node = fleet.nodes[1]
        work_before = {
            app_id: node.app_status(app)["work_done"]
            for app_id, app in node.apps.items()
        }
        fleet.links[1].partitioned = True
        fleet.run(2)
        assert node.state is NodeState.AUTONOMOUS
        # Autonomous ≠ stopped: the node kept serving its apps.
        for app_id, app in node.apps.items():
            if app_id in work_before and not app.finished:
                assert (
                    node.app_status(app)["work_done"]
                    >= work_before[app_id]
                )
        fleet.links[1].partitioned = False
        fleet.run(1)
        assert node.state is NodeState.ATTACHED
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()
        assert fleet.coordinator.nodes_reaped == 0

    def test_partition_outlasting_lease_reconciles_stale_copies(self):
        """The node is reaped and its apps re-admitted; on heal the
        surviving stale copies are killed — never double-placed, and the
        books follow only the authoritative chain."""
        fleet = _fleet(
            apps=_apps(4, work_scale=2.0), node_lease_epochs=1
        )
        fleet.run(3)
        victim = 1
        victim_apps = [
            app_id
            for app_id, node in fleet.coordinator.placements().items()
            if node == victim
        ]
        assert victim_apps
        fleet.links[victim].partitioned = True
        fleet.run(4)  # lease expires; apps re-admitted elsewhere
        assert fleet.coordinator.nodes_reaped == 1
        for app_id in victim_apps:
            assert fleet.coordinator.apps[app_id].node_id != victim
        fleet.links[victim].partitioned = False
        fleet.run(2)  # reconcile: stale copies killed
        _assert_no_double_placement(fleet)
        assert fleet.nodes[victim].stale_kills >= 1
        fleet.run_until_done(max_epochs=400)
        assert fleet.coordinator.all_finished()
        _assert_no_double_placement(fleet)

    def test_finish_during_partition_reaches_coordinator_after_heal(self):
        """A finish whose reports are lost to a partition is never
        acknowledged, so the node keeps listing it; the first report
        after the heal tells the coordinator, and later reports leave the
        app out."""
        fleet = _fleet(apps=_apps(4, work_scale=0.2), node_lease_epochs=10)
        fleet.run(3)
        node = fleet.nodes[1]
        [app_id] = [a for a, n in fleet.coordinator.placements().items() if n == 1]
        fleet.links[1].partitioned = True
        while not node.apps[app_id].finished:
            fleet.run(1)
        fleet.run(1)  # one more lost report
        assert fleet.coordinator.apps[app_id].state == "placed"
        assert not node.apps[app_id].finish_acked
        fleet.links[1].partitioned = False
        fleet.run(1)
        rec = fleet.coordinator.apps[app_id]
        assert rec.state == "finished"
        assert rec.last_status == node.app_status(node.apps[app_id])
        assert node.apps[app_id].finish_acked
        reports: list = []
        request = fleet.links[1].request
        fleet.links[1].request = lambda message, timeout: (
            reports.append(message) or request(message, timeout)
        )
        fleet.run(1)
        assert reports and all(
            status["app_id"] != app_id for status in reports[0].apps
        )
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()

    def test_short_partition_readopts_placements(self):
        """A partition healed before re-admission: the coordinator
        adopts the node's surviving placements back instead of paying
        for a migration."""
        fleet = _fleet(
            apps=_apps(4, work_scale=2.0), node_lease_epochs=1
        )
        fleet.run(3)
        victim_apps = [
            app_id
            for app_id, node in fleet.coordinator.placements().items()
            if node == 1
        ]
        fleet.links[1].partitioned = True
        # Long enough to reap, short enough that re-admission has not
        # happened for apps deferred by capacity: heal immediately after
        # the reap epoch.
        fleet.run(3)
        reaped = fleet.coordinator.nodes_reaped
        fleet.links[1].partitioned = False
        fleet.run(2)
        _assert_no_double_placement(fleet)
        fleet.run_until_done(max_epochs=400)
        assert fleet.coordinator.all_finished()
        assert reaped >= 1
        assert victim_apps  # scenario actually exercised placements


# -- leaks and scale ------------------------------------------------------------------


class TestFleetLockstep:
    def test_node_world_ends_every_epoch_on_the_epoch_tick(self):
        # One 0.25 s fleet epoch is 25 node ticks.  A node world that
        # ran one tick past an epoch would report state 10 ms after the
        # fleet epoch it claims to describe.
        fleet = FleetSim(n_nodes=1, engine="event", seed=0)
        world = fleet.nodes[0].world
        for epoch in range(1, 801):
            fleet.run_epoch()
            assert world.tick_index == 25 * epoch, f"epoch {epoch}"


class TestFleetHygiene:
    def test_no_thread_leaks(self):
        baseline = threading.active_count()
        fleet = _fleet()
        fleet.run_until_done(max_epochs=300)
        assert threading.active_count() == baseline

    def test_no_session_leaks_on_surviving_nodes(self):
        plan = FaultPlan(
            [Fault(at_s=0.6, kind=FaultKind.NODE_CRASH, target="node-1")]
        )
        fleet = _fleet(plan=plan)
        fleet.run_until_done(max_epochs=300)
        for node in fleet.nodes.values():
            if node.state is not NodeState.CRASHED:
                assert node.manager.sessions == {}

    def test_eight_node_fleet_with_generated_workload(self):
        apps = generate_fleet_apps(
            seed=8, n_apps=10, horizon_s=0.5, work_scale=0.05
        )
        fleet = _fleet(n_nodes=8, apps=apps, seed=41)
        fleet.run_until_done(max_epochs=300)
        assert fleet.coordinator.all_finished()
        assert len(fleet.coordinator.nodes) == 8
        _assert_fleet_energy_continuity(fleet)


def _wait_for_thread_baseline(baseline: int, timeout_s: float = 5.0) -> None:
    import time

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if threading.active_count() <= baseline:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"thread leak: {threading.active_count()} alive, baseline {baseline}"
    )
