"""NodeManager: one simulated node of the hierarchical RM.

A node owns a full single-machine stack — a deterministic world (own
seed, own engine), a :class:`~repro.core.manager.HarpManager` running the
warm/delta intra-node solver with batched epochs — and exposes the small
fleet surface the coordinator drives: admission, suspend/resume
migration, per-epoch reports, and adoption queries.

Robustness states (docs/robustness.md §6):

* ``ATTACHED`` — reports reach the coordinator; directives arrive.
* ``AUTONOMOUS`` — the link is partitioned: the node keeps serving its
  admitted apps with the last placement state (the local manager is
  unaffected) and re-attaches on the first report that gets through.
* ``CRASHED`` — the world is frozen; only the coordinator's node lease
  notices.

Energy accounting across migrations uses two parallel books, both
carried in the suspend snapshot: the simulator's ground-truth per-process
energy (``energy_true_j``, exact by construction) and the RM-side
attributed account (``AppSession.attributed_energy_j``).  An app's
cumulative figure is always ``carried + current placement``, so a
migrated app's books continue exactly where the source node left off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.manager import HarpManager, ManagerConfig
from repro.fleet.link import DEFAULT_FLEET_TIMEOUT_S, NodeLink
from repro.fleet.spec import FleetAppSpec, resolve_model
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
from repro.platform.dvfs import make_governor
from repro.platform.topology import Platform, raptor_lake_i9_13900k
from repro.sim.event import make_world
from repro.sim.process import SimProcess
from repro.sim.schedulers.pinned import PinnedScheduler


#: Cores per type of a node machine.
NODE_P_CORES = 2
NODE_E_CORES = 4


def node_platform(node_id: int) -> Platform:
    """A small Raptor-Lake-shaped node machine."""
    reference = raptor_lake_i9_13900k()
    p_core, e_core = reference.core_types
    return Platform.build(
        f"node-{node_id}",
        [(p_core, NODE_P_CORES), (e_core, NODE_E_CORES)],
        uncore_power_w=reference.uncore_power_w,
    )


class NodeState(enum.Enum):
    ATTACHED = "attached"
    AUTONOMOUS = "autonomous"
    CRASHED = "crashed"


@dataclass
class NodeApp:
    """One placement of a fleet app on this node."""

    spec: FleetAppSpec
    process: SimProcess
    # Books carried in from previous placements (suspend snapshots).
    carried_work: float = 0.0
    carried_energy_true_j: float = 0.0
    carried_attr_energy_j: float = 0.0
    # RM-attributed energy of *this* placement, captured at process exit
    # (the session is gone afterwards).
    final_attr_energy_j: float | None = field(default=None)
    finished: bool = False
    #: A report listing it finished got ``Ack(ok=True)``: the coordinator
    #: knows, and later reports leave it out.
    finish_acked: bool = False


class NodeManager:
    """One node: a world + HarpManager pair behind a fleet link."""

    def __init__(
        self,
        node_id: int,
        link: NodeLink,
        engine: str = "tick",
        seed: int = 0,
        manager_config: ManagerConfig | None = None,
    ):
        self.node_id = node_id
        self.link = link
        platform = node_platform(node_id)
        self.world = make_world(
            platform,
            PinnedScheduler(),
            engine=engine,
            governor=make_governor("powersave", platform),
            seed=seed,
        )
        self.manager = HarpManager(
            self.world, config=manager_config or ManagerConfig()
        )
        self.capacity_slots = platform.n_cores
        self.apps: dict[str, NodeApp] = {}
        self.state = NodeState.ATTACHED
        self.report_epoch = 0
        self.missed_reports = 0
        self.stale_kills = 0
        link.set_node_handler(self.handle_rpc)
        # Runs *before* the manager's exit callback pops the session, so
        # the final attributed-energy figure can be captured.
        self.world.on_process_exit.insert(0, self._on_process_exit)

    # -- registration -----------------------------------------------------------------

    def register(self) -> bool:
        """Join the fleet; returns False when the coordinator is unreachable."""
        try:
            reply = self.link.request(
                NodeRegister(
                    node_id=self.node_id,
                    capacity_slots=self.capacity_slots,
                ),
                timeout=DEFAULT_FLEET_TIMEOUT_S,
            )
        except ProtocolError:
            self.state = NodeState.AUTONOMOUS
            return False
        ok = isinstance(reply, NodeRegisterReply) and reply.ok
        self.state = NodeState.ATTACHED if ok else NodeState.AUTONOMOUS
        return ok

    # -- world driving ----------------------------------------------------------------

    def advance_to(self, t_s: float) -> None:
        """Advance the node world to the tick of fleet time ``t_s`` (no-op
        if crashed)."""
        if self.state is NodeState.CRASHED:
            return
        ticks = self.world.ticks_in(t_s) - self.world.tick_index
        if ticks > 0:
            self.world.run_for(ticks * self.world.tick_s)

    def crash(self) -> None:
        """Silent node death: the world freezes, the link goes dead."""
        self.state = NodeState.CRASHED
        self.link.dead = True
        if OBS.enabled:
            OBS.counter("fleet.node_crashes").inc()

    # -- accounting -------------------------------------------------------------------

    def _on_process_exit(self, process: SimProcess) -> None:
        for app in self.apps.values():
            if app.process.pid != process.pid or app.finished:
                continue
            session = self.manager.sessions.get(process.pid)
            app.final_attr_energy_j = (
                session.attributed_energy_j if session is not None else 0.0
            )
            app.finished = True
            return

    def _attr_energy_j(self, app: NodeApp) -> float:
        if app.final_attr_energy_j is not None:
            live = app.final_attr_energy_j
        else:
            session = self.manager.sessions.get(app.process.pid)
            live = session.attributed_energy_j if session is not None else 0.0
        return app.carried_attr_energy_j + live

    def app_status(self, app: NodeApp) -> dict:
        """Cumulative books for one placement (the wire status dict)."""
        return {
            "app_id": app.spec.app_id,
            "work_done": app.carried_work + app.process.work_done,
            "energy_true_j": (
                app.carried_energy_true_j + app.process.energy_true_j
            ),
            "attr_energy_j": self._attr_energy_j(app),
            "finished": app.finished,
            "slots": app.spec.slots,
        }

    def free_slots(self) -> int:
        used = sum(
            app.spec.slots for app in self.apps.values() if not app.finished
        )
        return max(0, self.capacity_slots - used)

    def energy_j(self) -> float:
        """Node package energy (the sensor a fleet operator would scrape)."""
        return self.world.total_energy_j()

    # -- placement operations ---------------------------------------------------------

    def admit(self, entry: dict) -> bool:
        """Place an app from an admission entry or migration snapshot."""
        spec = FleetAppSpec.from_wire(entry["spec"])
        if spec.app_id in self.apps:
            return False
        carried_work = float(entry.get("work_done", 0.0))
        model = resolve_model(spec)
        # The new placement only runs the *remaining* work; cumulative
        # progress is carried_work + this process's work_done.
        model.total_work = max(model.total_work - carried_work, 1e-9)
        process = self.world.spawn(model, nthreads=spec.nthreads, managed=True)
        self.apps[spec.app_id] = NodeApp(
            spec=spec,
            process=process,
            carried_work=carried_work,
            carried_energy_true_j=float(entry.get("energy_true_j", 0.0)),
            carried_attr_energy_j=float(entry.get("attr_energy_j", 0.0)),
        )
        if OBS.enabled:
            OBS.counter("fleet.node_admissions", node=self.node_id).inc()
        return True

    def suspend(self, app_id: str) -> dict | None:
        """Suspend an app for migration; returns its resume snapshot.

        The snapshot is the complete transferable state: the spec plus
        both cumulative energy books and the cumulative work.  The books
        are read *before* the orderly kill so nothing is lost, and the
        registry entry is removed first so the exit callback does not
        mistake the suspend for a completion.
        """
        app = self.apps.get(app_id)
        if app is None or app.finished:
            return None
        snapshot = {
            "spec": app.spec.to_wire(),
            "work_done": app.carried_work + app.process.work_done,
            "energy_true_j": (
                app.carried_energy_true_j + app.process.energy_true_j
            ),
            "attr_energy_j": self._attr_energy_j(app),
        }
        del self.apps[app_id]
        self.world.kill(app.process.pid)
        if OBS.enabled:
            OBS.counter("fleet.suspends", node=self.node_id).inc()
        return snapshot

    def kill_app(self, app_id: str) -> bool:
        """Drop a stale placement (post-partition reconciliation).

        The copy's energy stays on this node's package counter — it was
        really burned here — but leaves the app's books: the coordinator's
        authoritative placement chain is the only account that continues.
        """
        app = self.apps.pop(app_id, None)
        if app is None:
            return False
        if not app.finished:
            self.world.kill(app.process.pid)
        self.stale_kills += 1
        if OBS.enabled:
            OBS.counter("fleet.stale_kills", node=self.node_id).inc()
        return True

    # -- coordinator traffic ----------------------------------------------------------

    def send_report(self) -> bool:
        """Send the batched per-epoch report; degrade to autonomous on failure.

        The report lists every placement except the finished ones whose
        finish an earlier report already got acknowledged; a finish that
        was not acknowledged (a lost report) is listed again.
        """
        self.report_epoch += 1
        listed = [
            app for _, app in sorted(self.apps.items()) if not app.finish_acked
        ]
        report = NodeReport(
            node_id=self.node_id,
            epoch=self.report_epoch,
            time_s=self.world.time_s,
            energy_j=self.energy_j(),
            free_slots=self.free_slots(),
            apps=[self.app_status(app) for app in listed],
        )
        try:
            reply = self.link.request(report, timeout=DEFAULT_FLEET_TIMEOUT_S)
        except ProtocolError:
            self.missed_reports += 1
            if self.state is NodeState.ATTACHED:
                self.state = NodeState.AUTONOMOUS
                if OBS.enabled:
                    OBS.counter("fleet.node_degraded", node=self.node_id).inc()
            return False
        if self.state is NodeState.AUTONOMOUS:
            if OBS.enabled:
                OBS.counter("fleet.node_reattached", node=self.node_id).inc()
        self.state = NodeState.ATTACHED
        if not (isinstance(reply, Ack) and reply.ok):
            return False
        for app, status in zip(listed, report.apps):
            app.finish_acked = status["finished"]
        return True

    def handle_rpc(self, message: Message) -> Message:
        """Node side of coordinator rpcs and directive pushes."""
        if isinstance(message, NodeDirective):
            for entry in message.admissions:
                self.admit(entry)
            for app_id in message.kills:
                self.kill_app(app_id)
            return Ack(ok=True)
        if isinstance(message, MigrateOut):
            snapshot = self.suspend(message.app_id)
            if snapshot is None:
                return MigrateOutReply(
                    ok=False, error=f"no live app {message.app_id!r}"
                )
            return MigrateOutReply(ok=True, snapshot=snapshot)
        if isinstance(message, MigrateIn):
            ok = self.admit(message.snapshot)
            return Ack(ok=ok, error=None if ok else "duplicate placement")
        if isinstance(message, NodeAdoptQuery):
            return NodeAdoptReply(
                node_id=self.node_id,
                capacity_slots=self.capacity_slots,
                time_s=self.world.time_s,
                energy_j=self.energy_j(),
                apps=[
                    self.app_status(app)
                    for _, app in sorted(self.apps.items())
                ],
            )
        return ErrorReply(error=f"unexpected fleet message {message.TYPE!r}")
