"""Fleet-scoped fault execution: the node-level chaos surface.

The fleet analogue of :class:`~repro.fault.injector.SimFaultInjector`:
consumes the same :class:`~repro.fault.plan.FaultPlan` data (so plans
mix node-scoped and app-scoped kinds freely and serialize identically)
and fires the four node-scoped kinds at fleet epoch boundaries — the
only instants at which fleet-level state changes, so the firing epoch is
the same on both engines and across replays.

Node targets are named ``"node-<id>"`` (or given as ``params["node"]``);
an unset target picks the lowest-id node that can meaningfully take the
fault, which keeps seed-generated plans applicable without knowing the
fleet layout.
"""

from __future__ import annotations

from repro.fault.plan import Fault, FaultKind, FaultPlan
from repro.obs import OBS


class FleetFaultInjector:
    """Fires node-scoped plan faults into a :class:`FleetSim`."""

    def __init__(self, fleet, plan: FaultPlan):
        self.fleet = fleet
        self.plan = plan
        #: Audit trail: one record per fired fault, in firing order.
        self.log: list[dict] = []
        self._next = 0
        #: Scheduled partition heals: (heal_at_s, node_id), time-sorted.
        self._heals: list[tuple[float, int]] = []

    def done(self) -> bool:
        return self._next >= len(self.plan.faults) and not self._heals

    def fire_due(self, now_s: float) -> None:
        """Fire every fault (and heal) scheduled at or before ``now_s``."""
        while self._heals and self._heals[0][0] <= now_s:
            _, node_id = self._heals.pop(0)
            self._heal_partition(node_id)
        while (
            self._next < len(self.plan.faults)
            and self.plan.faults[self._next].at_s <= now_s
        ):
            fault = self.plan.faults[self._next]
            self._next += 1
            applied, node_id = self._apply(fault, now_s)
            self.log.append(
                {
                    "at_s": now_s,
                    "scheduled_s": fault.at_s,
                    "kind": fault.kind.value,
                    "node": node_id,
                    "applied": applied,
                }
            )
            if OBS.enabled:
                OBS.counter(
                    "fault.injected", kind=fault.kind.value,
                    applied="true" if applied else "false",
                ).inc()
                OBS.event(
                    "fault.fire", track="fault",
                    kind=fault.kind.value, node=node_id, applied=applied,
                    scheduled_s=fault.at_s,
                )

    # -- fault implementations --------------------------------------------------------

    def _apply(self, fault: Fault, now_s: float) -> tuple[bool, int | None]:
        if fault.kind is FaultKind.COORDINATOR_RESTART:
            self.fleet.restart_coordinator()
            return True, None
        if fault.kind is FaultKind.MIGRATION_ABORT:
            return self._abort_migration(), None
        node_id = self._resolve_node(fault)
        if node_id is None:
            return False, None
        node = self.fleet.nodes[node_id]
        if fault.kind is FaultKind.NODE_CRASH:
            node.crash()
            return True, node_id
        if fault.kind is FaultKind.NODE_PARTITION:
            node.link.partitioned = True
            duration_s = float(
                fault.params.get(
                    "duration_s", 3.0 * self.fleet.EPOCH_S
                )
            )
            self._heals.append((now_s + duration_s, node_id))
            self._heals.sort()
            return True, node_id
        raise ValueError(f"unhandled fleet fault kind {fault.kind!r}")

    def _heal_partition(self, node_id: int) -> None:
        node = self.fleet.nodes.get(node_id)
        if node is None:
            return
        node.link.partitioned = False
        if OBS.enabled:
            OBS.event("fleet.partition_heal", track="fault", node=node_id)

    def _abort_migration(self) -> bool:
        """Force a migration and make it abort after the source suspend."""
        coordinator = self.fleet.coordinator
        pick = coordinator.pick_migration()
        if pick is None:
            return False
        app_id, target = pick
        coordinator.fault_abort_migrations += 1
        coordinator.migrate(app_id, target)
        # Whether or not the abort path found a migration to break, the
        # budget must not leak into later (healthy) migrations.
        coordinator.fault_abort_migrations = 0
        return True

    def _resolve_node(self, fault: Fault) -> int | None:
        """Target node: explicit, or the lowest-id non-crashed node."""
        if "node" in fault.params:
            node_id = int(fault.params["node"])
            return node_id if node_id in self.fleet.nodes else None
        if fault.target is not None and fault.target.startswith("node-"):
            node_id = int(fault.target.split("-", 1)[1])
            return node_id if node_id in self.fleet.nodes else None
        from repro.fleet.node import NodeState

        for node_id in sorted(self.fleet.nodes):
            if self.fleet.nodes[node_id].state is not NodeState.CRASHED:
                return node_id
        return None
