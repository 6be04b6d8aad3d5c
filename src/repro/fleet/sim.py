"""FleetSim: the deterministic driver of a coordinator + N nodes.

One fleet epoch is the batched unit of coordinator ↔ node traffic
(docs/performance.md applied one level up): every node advances its own
world to the epoch boundary, sends one batched report, arrivals due are
submitted, and the coordinator runs one lease-check/solve/push round.
Node worlds are independent deterministic simulations with per-node
seeds derived from the fleet seed, and all fleet-level iteration is in
sorted node/app order, so a fleet run is a pure function of
(fleet seed, workload, fault plan) — same-seed replays are bit-identical
with telemetry on or off, on either engine.
"""

from __future__ import annotations

from repro.core.manager import ManagerConfig
from repro.fault.plan import FaultPlan
from repro.fleet.coordinator import Coordinator, CoordinatorConfig
from repro.fleet.faults import FleetFaultInjector
from repro.fleet.link import NodeLink
from repro.fleet.node import NodeManager, NodeState
from repro.fleet.spec import FleetAppSpec
from repro.obs import OBS

#: Per-node seed stride: keeps node worlds' RNG streams disjoint while
#: remaining a pure function of (fleet seed, node id).
_NODE_SEED_STRIDE = 7919


class FleetSim:
    """A simulated fleet: one coordinator over N node managers."""

    #: Fleet epoch length (simulated seconds).
    EPOCH_S = 0.25

    def __init__(
        self,
        n_nodes: int = 4,
        apps: list[FleetAppSpec] | None = None,
        engine: str = "tick",
        seed: int = 0,
        plan: FaultPlan | None = None,
        coordinator_config: CoordinatorConfig | None = None,
        manager_config: ManagerConfig | None = None,
    ):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.seed = seed
        self.epoch = 0
        self.time_s = 0.0
        self.coordinator = Coordinator(coordinator_config)
        self.links: dict[int, NodeLink] = {}
        self.nodes: dict[int, NodeManager] = {}
        for node_id in range(n_nodes):
            link = NodeLink(node_id, self.coordinator.handle_node_request)
            self.coordinator.register_link(link)
            self.links[node_id] = link
            self.nodes[node_id] = NodeManager(
                node_id,
                link,
                engine=engine,
                seed=seed + _NODE_SEED_STRIDE * (node_id + 1),
                manager_config=manager_config,
            )
            self.nodes[node_id].register()
        # Fleet-level telemetry keeps fleet time (each node world's
        # construction grabbed the clock for itself; the fleet driver is
        # the outermost owner).
        OBS.set_clock(lambda: self.time_s)
        self._arrivals = sorted(
            apps or [], key=lambda s: (s.arrival_s, s.app_id)
        )
        self._next_arrival = 0
        self.injector = (
            FleetFaultInjector(self, plan) if plan is not None else None
        )
        self.coordinator_restarts = 0

    # -- epoch loop -------------------------------------------------------------------

    def run_epoch(self) -> None:
        """Advance the fleet by one batched epoch."""
        if self.injector is not None:
            self.injector.fire_due(self.time_s)
        self.epoch += 1
        target = self.epoch * self.EPOCH_S
        for node_id in sorted(self.nodes):
            self.nodes[node_id].advance_to(target)
        self.time_s = target
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.state is not NodeState.CRASHED:
                node.send_report()
        while (
            self._next_arrival < len(self._arrivals)
            and self._arrivals[self._next_arrival].arrival_s <= target
        ):
            self.coordinator.submit(self._arrivals[self._next_arrival])
            self._next_arrival += 1
        self.coordinator.run_epoch()

    def run(self, n_epochs: int) -> None:
        for _ in range(n_epochs):
            self.run_epoch()

    def run_until_done(self, max_epochs: int = 400) -> int:
        """Run until every submitted app finished; returns epochs used."""
        for _ in range(max_epochs):
            self.run_epoch()
            if (
                self._next_arrival >= len(self._arrivals)
                and self.coordinator.all_finished()
                and (self.injector is None or self.injector.done())
            ):
                return self.epoch
        return self.epoch

    # -- coordinator crash recovery ---------------------------------------------------

    def restart_coordinator(self) -> None:
        """Crash-restart the coordinator: snapshot → restore → re-adopt."""
        old = self.coordinator
        snapshot = old.snapshot()
        new = Coordinator(old.config)
        for link in self.links.values():
            link.rebind_coordinator(new.handle_node_request)
            new.register_link(link)
        new.restore(snapshot)
        new.adopt_nodes(self.links)
        self.coordinator = new
        self.coordinator_restarts += 1
        if OBS.enabled:
            OBS.counter("fleet.coordinator_restarts").inc()
            OBS.event(
                "fleet.coordinator_restart", track="fleet", epoch=self.epoch
            )

    # -- fleet accounting -------------------------------------------------------------

    def fleet_energy_j(self) -> float:
        """Fleet-total package energy, crashed (frozen) nodes included."""
        return sum(
            self.nodes[node_id].energy_j() for node_id in sorted(self.nodes)
        )

    def app_energy_true_j(self, app_id: str) -> float:
        """Ground-truth cumulative energy of one app's placement chain."""
        return float(self._app_status(app_id).get("energy_true_j", 0.0))

    def app_attr_energy_j(self, app_id: str) -> float:
        """RM-attributed cumulative energy of one app's placement chain."""
        return float(self._app_status(app_id).get("attr_energy_j", 0.0))

    def app_work_done(self, app_id: str) -> float:
        return float(self._app_status(app_id).get("work_done", 0.0))

    def _app_status(self, app_id: str) -> dict:
        """The authoritative live status of an app (placed node first,
        coordinator checkpoint as fallback)."""
        rec = self.coordinator.apps.get(app_id)
        if rec is None:
            return {}
        if rec.node_id is not None:
            node = self.nodes.get(rec.node_id)
            if node is not None and app_id in node.apps:
                return node.app_status(node.apps[app_id])
        return dict(rec.last_status)

    def live_placements(self) -> dict[str, list[int]]:
        """Nodes holding a live (unfinished) copy of each app — the
        double-placement detector used by the chaos matrix."""
        placements: dict[str, list[int]] = {}
        for node_id in sorted(self.nodes):
            if self.nodes[node_id].state is NodeState.CRASHED:
                continue  # a frozen corpse is not a live copy
            for app_id, app in sorted(self.nodes[node_id].apps.items()):
                if not app.finished:
                    placements.setdefault(app_id, []).append(node_id)
        return placements

    def results(self) -> dict:
        """Replay-comparable run summary (the smoke scripts diff this)."""
        return {
            "epoch": self.epoch,
            "time_s": self.time_s,
            "fleet_energy_j": self.fleet_energy_j(),
            "node_energy_j": {
                str(node_id): self.nodes[node_id].energy_j()
                for node_id in sorted(self.nodes)
            },
            "apps": {
                app_id: {
                    "state": rec.state,
                    "node": rec.node_id,
                    "work_done": self.app_work_done(app_id),
                    "energy_true_j": self.app_energy_true_j(app_id),
                    "attr_energy_j": self.app_attr_energy_j(app_id),
                    "migrations": rec.migrations,
                }
                for app_id, rec in sorted(self.coordinator.apps.items())
            },
            "fault_log": (
                list(self.injector.log) if self.injector is not None else []
            ),
            "coordinator": {
                "epoch": self.coordinator.epoch,
                "nodes_reaped": self.coordinator.nodes_reaped,
                "readmissions": self.coordinator.readmissions,
                "readoptions": self.coordinator.readoptions,
                "migrations": self.coordinator.migrations,
                "migration_aborts": self.coordinator.migration_aborts,
                "restarts": self.coordinator_restarts,
            },
        }
