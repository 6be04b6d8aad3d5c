"""The fleet coordinator: coarse admission/migration over node managers.

The coordinator is deliberately cheap (E-Mapper's division of labour):
it never sees operating points or cores — nodes run the full intra-node
MMKP — and only solves the coarse app → node assignment over advertised
slot capacities, once per batched fleet epoch.  Its state is small
enough to snapshot wholesale, which is what makes coordinator crash
recovery (restore + node re-adoption) a one-epoch affair.

Robustness mechanisms (docs/robustness.md §6):

* **Node leases** — a node silent for more than ``node_lease_epochs``
  fleet epochs is reaped: marked dead and every app placed on it is
  returned to the pending pool with the books from its last report (the
  re-admission checkpoint), to be re-admitted elsewhere in the *same*
  epoch.
* **Live migration** — suspend rpc (returns the snapshot) → resume rpc
  on the target; any failure after the suspend rolls the app back onto
  the source from the same snapshot, and if even the rollback fails the
  snapshot re-enters the pending pool — the app is never lost and its
  books never fork.
* **Reconciliation** — a report from a reaped or partitioned node is a
  reconnect: apps the coordinator already re-placed elsewhere are stale
  copies and get killed via the next directive; apps still pending are
  adopted back (the node kept them alive through the partition).
* **Crash recovery** — ``snapshot()`` / ``restore()`` /
  ``adopt_nodes()`` extend the PR 4 manager machinery one level up: the
  restarted coordinator re-learns live node state through adoption
  queries and keeps every app's books from the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.link import DEFAULT_FLEET_TIMEOUT_S, NodeLink
from repro.fleet.spec import FleetAppSpec
from repro.ipc.messages import (
    Ack,
    ErrorReply,
    Message,
    MigrateIn,
    MigrateOut,
    MigrateOutReply,
    NodeAdoptQuery,
    NodeAdoptReply,
    NodeDirective,
    NodeRegister,
    NodeRegisterReply,
    NodeReport,
)
from repro.ipc.protocol import ProtocolError
from repro.obs import OBS


@dataclass
class CoordinatorConfig:
    """Fleet-level tunables."""

    #: Fleet epochs a node may stay silent before it is reaped.
    node_lease_epochs: int = 2


@dataclass
class AppRecord:
    """The coordinator's view of one fleet app."""

    spec: FleetAppSpec
    node_id: int | None = None
    state: str = "pending"  # "pending" | "placed" | "finished"
    #: Last status dict reported for the authoritative placement — the
    #: re-admission checkpoint (work + both energy books).
    last_status: dict = field(default_factory=dict)
    migrations: int = 0
    placed_epoch: int = -1

    def carried_entry(self) -> dict:
        """Admission entry resuming from the last checkpoint."""
        return {
            "spec": self.spec.to_wire(),
            "work_done": float(self.last_status.get("work_done", 0.0)),
            "energy_true_j": float(
                self.last_status.get("energy_true_j", 0.0)
            ),
            "attr_energy_j": float(
                self.last_status.get("attr_energy_j", 0.0)
            ),
        }


@dataclass
class NodeRecord:
    """The coordinator's view of one node."""

    node_id: int
    capacity_slots: int
    link: NodeLink | None = None
    alive: bool = True
    last_seen_epoch: int = 0
    free_slots: int = 0
    energy_j: float = 0.0
    pending_kills: list[str] = field(default_factory=list)


class Coordinator:
    """Coarse inter-node admission/migration with fleet fault tolerance."""

    def __init__(self, config: CoordinatorConfig | None = None):
        self.config = config or CoordinatorConfig()
        self.nodes: dict[int, NodeRecord] = {}
        self.apps: dict[str, AppRecord] = {}
        # Node → ids of the apps assigned to it (:meth:`_assign`); an id
        # whose app left the node or stopped being placed is dropped when
        # :meth:`_placed_on` reads the node.
        self._on_node: dict[int, set[str]] = {}
        self.epoch = 0
        self._links: dict[int, NodeLink] = {}
        # Robustness counters.
        self.nodes_reaped = 0
        self.readmissions = 0
        self.readoptions = 0
        self.migrations = 0
        self.migration_aborts = 0
        self.lost_directives = 0
        #: Fault hook: the next N migrations abort after the suspend and
        #: roll back onto the source (FaultKind.MIGRATION_ABORT).
        self.fault_abort_migrations = 0

    # -- wiring -----------------------------------------------------------------------

    def register_link(self, link: NodeLink) -> None:
        """Make a node's link known before its NodeRegister arrives."""
        self._links[link.node_id] = link

    # -- node traffic -----------------------------------------------------------------

    def handle_node_request(self, message: Message) -> Message:
        """Dispatch one node → coordinator request."""
        if isinstance(message, NodeRegister):
            link = self._links.get(message.node_id)
            if link is None:
                return NodeRegisterReply(
                    ok=False, error=f"unknown node {message.node_id}"
                )
            self.nodes[message.node_id] = NodeRecord(
                node_id=message.node_id,
                capacity_slots=message.capacity_slots,
                link=link,
                last_seen_epoch=self.epoch,
                free_slots=message.capacity_slots,
            )
            if OBS.enabled:
                OBS.counter("fleet.node_registrations").inc()
            return NodeRegisterReply(ok=True, epoch=self.epoch)
        if isinstance(message, NodeReport):
            return self._on_report(message)
        return ErrorReply(error=f"unexpected fleet request {message.TYPE!r}")

    def _on_report(self, report: NodeReport) -> Message:
        record = self.nodes.get(report.node_id)
        if record is None:
            return ErrorReply(error=f"unregistered node {report.node_id}")
        reconnected = not record.alive
        record.alive = True
        record.last_seen_epoch = self.epoch
        record.free_slots = report.free_slots
        record.energy_j = report.energy_j
        reported_ids = set()
        for status in report.apps:
            app_id = str(status["app_id"])
            reported_ids.add(app_id)
            rec = self.apps.get(app_id)
            if rec is None:
                # An app this coordinator has never heard of (snapshot
                # gap): kill rather than leave an unaccounted placement.
                record.pending_kills.append(app_id)
                continue
            finished = bool(status.get("finished", False))
            if rec.state == "placed" and rec.node_id == report.node_id:
                rec.last_status = dict(status)
                if finished:
                    rec.state = "finished"
            elif rec.state == "pending":
                # The node survived a partition with the app intact:
                # adopt the placement back instead of re-admitting.
                self._assign(rec, report.node_id)
                rec.state = "finished" if finished else "placed"
                rec.placed_epoch = self.epoch
                rec.last_status = dict(status)
                self.readoptions += 1
                if OBS.enabled:
                    OBS.counter("fleet.readoptions").inc()
            elif rec.node_id != report.node_id and not finished:
                # Stale copy: the app was re-placed while this node was
                # unreachable.  The authoritative chain wins; the copy
                # is killed and its post-checkpoint energy stays on the
                # node, never on the app's books.
                record.pending_kills.append(app_id)
            # A stale copy finishing is ignored outright: the
            # authoritative placement keeps running.
        # A placed app missing from its node's report means the admission
        # directive was dropped on the floor (partitioned push): return
        # it to the pending pool.
        for rec in self._placed_on(report.node_id):
            if (
                rec.spec.app_id not in reported_ids
                and rec.placed_epoch <= self.epoch
            ):
                rec.state = "pending"
                rec.node_id = None
                self.lost_directives += 1
                if OBS.enabled:
                    OBS.counter("fleet.lost_directives").inc()
        if reconnected and OBS.enabled:
            OBS.counter("fleet.node_reconnects").inc()
        return Ack(ok=True)

    def _placed_on(self, node_id: int) -> list[AppRecord]:
        """The apps placed on ``node_id``, in app-id order."""
        placed = sorted(
            app_id for app_id in self._on_node.get(node_id, ())
            if self.apps[app_id].state == "placed"
            and self.apps[app_id].node_id == node_id
        )
        self._on_node[node_id] = set(placed)
        return [self.apps[app_id] for app_id in placed]

    def _assign(self, rec: AppRecord, node_id: int) -> None:
        """Set ``rec``'s node, and index it under that node."""
        rec.node_id = node_id
        self._on_node.setdefault(node_id, set()).add(rec.spec.app_id)

    # -- admission --------------------------------------------------------------------

    def submit(self, spec: FleetAppSpec) -> None:
        """Queue an app for admission at the next epoch."""
        if spec.app_id in self.apps:
            raise ValueError(f"duplicate app_id {spec.app_id!r}")
        self.apps[spec.app_id] = AppRecord(spec=spec)

    def run_epoch(self) -> dict[int, NodeDirective]:
        """One batched fleet epoch: lease check, solve, push directives."""
        self.epoch += 1
        if OBS.enabled:
            OBS.counter("fleet.epochs").inc()
        self._check_node_leases()
        directives = self._solve_admissions()
        for node_id in sorted(self.nodes):
            record = self.nodes[node_id]
            if not record.alive or record.link is None:
                continue
            directive = directives.get(node_id)
            kills = list(record.pending_kills)
            record.pending_kills.clear()
            if directive is None and not kills:
                continue
            admissions = directive.admissions if directive else []
            message = NodeDirective(
                node_id=node_id,
                epoch=self.epoch,
                admissions=admissions,
                kills=kills,
            )
            directives[node_id] = message
            record.link.push(message)
        return directives

    def _check_node_leases(self) -> None:
        for node_id in sorted(self.nodes):
            record = self.nodes[node_id]
            if not record.alive:
                continue
            if self.epoch - record.last_seen_epoch <= self.config.node_lease_epochs:
                continue
            record.alive = False
            self.nodes_reaped += 1
            if OBS.enabled:
                OBS.counter("fleet.nodes_reaped").inc()
                OBS.event(
                    "fleet.node_reap", track="fleet",
                    node=node_id, epoch=self.epoch,
                )
            for rec in self._placed_on(node_id):
                rec.state = "pending"
                rec.node_id = None

    def _solve_admissions(self) -> dict[int, NodeDirective]:
        """The coarse MMKP: greedy best-fit-decreasing over free slots.

        Deterministic by construction: pending apps in app_id order, the
        candidate node maximizing free slots (lowest node id on ties).
        """
        free = {
            node_id: record.free_slots
            for node_id, record in self.nodes.items()
            if record.alive and record.link is not None
        }
        admissions: dict[int, list[dict]] = {}
        for app_id in sorted(self.apps):
            rec = self.apps[app_id]
            if rec.state != "pending":
                continue
            candidates = [
                node_id
                for node_id in sorted(free)
                if free[node_id] >= rec.spec.slots
            ]
            if not candidates:
                if OBS.enabled:
                    OBS.counter("fleet.admissions_deferred").inc()
                continue
            best = max(candidates, key=lambda n: (free[n], -n))
            free[best] -= rec.spec.slots
            entry = rec.carried_entry()
            admissions.setdefault(best, []).append(entry)
            was_readmission = entry["work_done"] > 0.0
            rec.state = "placed"
            self._assign(rec, best)
            rec.placed_epoch = self.epoch
            if was_readmission:
                self.readmissions += 1
                if OBS.enabled:
                    OBS.counter("fleet.readmissions").inc()
            elif OBS.enabled:
                OBS.counter("fleet.admissions").inc()
        return {
            node_id: NodeDirective(
                node_id=node_id, epoch=self.epoch, admissions=entries
            )
            for node_id, entries in admissions.items()
        }

    # -- migration --------------------------------------------------------------------

    def pick_migration(self) -> tuple[str, int] | None:
        """Deterministic rebalance candidate: an app from the most-loaded
        node to the alive node with the most free slots."""
        loads = {
            node_id: len(self._placed_on(node_id))
            for node_id, record in sorted(self.nodes.items())
            if record.alive and record.link is not None
        }
        sources = [n for n, load in loads.items() if load > 0]
        if not sources or len(loads) < 2:
            return None
        source = max(sources, key=lambda n: (loads[n], -n))
        targets = [
            n
            for n, record in sorted(self.nodes.items())
            if n != source and record.alive and record.link is not None
        ]
        if not targets:
            return None
        target = max(targets, key=lambda n: (self.nodes[n].free_slots, -n))
        app_id = self._placed_on(source)[0].spec.app_id
        return app_id, target

    def migrate(self, app_id: str, target_node: int) -> bool:
        """Live-migrate one app: suspend → snapshot → resume on target.

        Returns True when the app ended up on the target.  On any failure
        after the suspend the app is resumed from the same snapshot on
        the source; if even that fails the snapshot re-enters the pending
        pool — the app and its books survive every outcome.
        """
        rec = self.apps.get(app_id)
        if rec is None or rec.state != "placed" or rec.node_id is None:
            return False
        source = self.nodes.get(rec.node_id)
        target = self.nodes.get(target_node)
        if (
            source is None
            or target is None
            or source.link is None
            or target.link is None
            or not target.alive
            or target_node == rec.node_id
        ):
            return False
        try:
            reply = source.link.rpc(
                MigrateOut(app_id=app_id), timeout=DEFAULT_FLEET_TIMEOUT_S
            )
        except ProtocolError:
            return False
        if not isinstance(reply, MigrateOutReply) or not reply.ok:
            return False
        snapshot = dict(reply.snapshot)
        aborted = False
        if self.fault_abort_migrations > 0:
            # Injected abort: the target resume never happens.
            self.fault_abort_migrations -= 1
            aborted = True
        else:
            try:
                ack = target.link.rpc(
                    MigrateIn(snapshot=snapshot),
                    timeout=DEFAULT_FLEET_TIMEOUT_S,
                )
                if isinstance(ack, Ack) and ack.ok:
                    self._assign(rec, target_node)
                    rec.placed_epoch = self.epoch
                    rec.last_status = {
                        "app_id": app_id,
                        "work_done": snapshot.get("work_done", 0.0),
                        "energy_true_j": snapshot.get("energy_true_j", 0.0),
                        "attr_energy_j": snapshot.get("attr_energy_j", 0.0),
                        "finished": False,
                        "slots": rec.spec.slots,
                    }
                    rec.migrations += 1
                    self.migrations += 1
                    if OBS.enabled:
                        OBS.counter("fleet.migrations").inc()
                        OBS.event(
                            "fleet.migrate", track="fleet",
                            app=app_id, source=source.node_id,
                            target=target_node,
                        )
                    return True
                aborted = True
            except ProtocolError:
                aborted = True
        if aborted:
            self.migration_aborts += 1
            if OBS.enabled:
                OBS.counter("fleet.migration_aborts").inc()
        # Roll back onto the source from the same snapshot.
        try:
            ack = source.link.rpc(
                MigrateIn(snapshot=snapshot),
                timeout=DEFAULT_FLEET_TIMEOUT_S,
            )
            if isinstance(ack, Ack) and ack.ok:
                rec.placed_epoch = self.epoch
                return False
        except ProtocolError:
            pass
        # Rollback failed too: the snapshot is the app now — re-admit it
        # from the pending pool at the next epoch.
        rec.state = "pending"
        rec.node_id = None
        rec.last_status = {
            "app_id": app_id,
            "work_done": snapshot.get("work_done", 0.0),
            "energy_true_j": snapshot.get("energy_true_j", 0.0),
            "attr_energy_j": snapshot.get("attr_energy_j", 0.0),
            "finished": False,
            "slots": rec.spec.slots,
        }
        return False

    # -- crash recovery ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible durable state for coordinator crash recovery."""
        if OBS.enabled:
            OBS.counter("fleet.coordinator_snapshots").inc()
        return {
            "version": 1,
            "epoch": self.epoch,
            "apps": [
                {
                    "spec": rec.spec.to_wire(),
                    "node_id": rec.node_id,
                    "state": rec.state,
                    "last_status": dict(rec.last_status),
                    "migrations": rec.migrations,
                }
                for _, rec in sorted(self.apps.items())
            ],
            "nodes": [
                {
                    "node_id": record.node_id,
                    "capacity_slots": record.capacity_slots,
                    "alive": record.alive,
                    "last_seen_epoch": record.last_seen_epoch,
                    "free_slots": record.free_slots,
                }
                for _, record in sorted(self.nodes.items())
            ],
        }

    def restore(self, snapshot: dict) -> None:
        """Load a snapshot into this (fresh) coordinator instance.

        Call :meth:`adopt_nodes` afterwards to re-learn live node state.
        """
        if snapshot.get("version") != 1:
            raise ValueError(
                f"unknown fleet snapshot version {snapshot.get('version')!r}"
            )
        self.epoch = int(snapshot.get("epoch", 0))
        self.apps = {}
        self._on_node = {}
        for data in snapshot.get("apps", []):
            spec = FleetAppSpec.from_wire(data["spec"])
            self.apps[spec.app_id] = rec = AppRecord(
                spec=spec,
                state=str(data.get("state", "pending")),
                last_status=dict(data.get("last_status", {})),
                migrations=int(data.get("migrations", 0)),
                placed_epoch=self.epoch,
            )
            if data.get("node_id") is not None:
                self._assign(rec, data["node_id"])
        self.nodes = {}
        for data in snapshot.get("nodes", []):
            node_id = int(data["node_id"])
            self.nodes[node_id] = NodeRecord(
                node_id=node_id,
                capacity_slots=int(data.get("capacity_slots", 0)),
                alive=bool(data.get("alive", True)),
                last_seen_epoch=int(data.get("last_seen_epoch", 0)),
                free_slots=int(data.get("free_slots", 0)),
            )
        if OBS.enabled:
            OBS.counter("fleet.coordinator_restores").inc()

    def adopt_nodes(self, links: dict[int, NodeLink]) -> int:
        """Re-adopt nodes after a restore; returns the number adopted.

        Each reachable node answers an adoption query with its running
        apps; unreachable nodes stay on their restored lease clock and
        will be reaped normally if they never come back.
        """
        adopted = 0
        for node_id in sorted(self.nodes):
            record = self.nodes[node_id]
            link = links.get(node_id)
            if link is None:
                record.alive = False
                continue
            record.link = link
            self._links[node_id] = link
            try:
                reply = link.rpc(
                    NodeAdoptQuery(epoch=self.epoch),
                    timeout=DEFAULT_FLEET_TIMEOUT_S,
                )
            except ProtocolError:
                record.alive = False
                continue
            if not isinstance(reply, NodeAdoptReply):
                record.alive = False
                continue
            record.alive = True
            record.last_seen_epoch = self.epoch
            record.capacity_slots = reply.capacity_slots
            record.energy_j = reply.energy_j
            used = sum(
                int(status.get("slots", 1))
                for status in reply.apps
                if not status.get("finished", False)
            )
            record.free_slots = max(0, record.capacity_slots - used)
            for status in reply.apps:
                rec = self.apps.get(str(status["app_id"]))
                if rec is None:
                    record.pending_kills.append(str(status["app_id"]))
                    continue
                if rec.node_id == node_id or rec.state == "pending":
                    self._assign(rec, node_id)
                    rec.state = (
                        "finished"
                        if status.get("finished", False)
                        else "placed"
                    )
                    rec.last_status = dict(status)
            adopted += 1
        if OBS.enabled:
            OBS.counter("fleet.nodes_adopted").inc(adopted)
        return adopted

    # -- introspection ----------------------------------------------------------------

    def all_finished(self) -> bool:
        return bool(self.apps) and all(
            rec.state == "finished" for rec in self.apps.values()
        )

    def placements(self) -> dict[str, int | None]:
        return {
            app_id: rec.node_id
            for app_id, rec in sorted(self.apps.items())
            if rec.state == "placed"
        }
