"""Executes a :class:`~repro.fault.plan.FaultPlan` against a live world.

The injector registers an ``on_event`` callback and fires each scheduled
fault on the first advance boundary at or after its timestamp, converted
once to a tick with ``world.ticks_in``; on the event engine every fault
tick is announced as a wakeup, so a leap never skips an injection point
and the firing tick matches the tick engine exactly.  All faults act
through the same deterministic surfaces the production code exposes —
``World.kill``, the in-process transport's fault hooks, the manager's
``allocator`` (wrapped so its next solves raise), and snapshot/restore —
so a faulted run stays bit-exact reproducible for a given (workload
seed, plan seed) pair.
"""

from __future__ import annotations

from repro.core.allocator import AllocationResult, LagrangianAllocator
from repro.core.manager import HarpManager
from repro.fault.plan import Fault, FaultKind, FaultPlan
from repro.ipc.messages import Message, UtilityReply, UtilityRequest
from repro.obs import OBS
from repro.sim.engine import World


class SimFaultInjector:
    """Fires plan faults into a (world, manager) pair at simulated times.

    Args:
        world: the simulation to break.
        manager: the RM under test; replaced in-place on RM_RESTART.
        plan: what to break and when.

    An RM_RESTART fault replaces the RM with a fresh :class:`HarpManager`
    that has the same config and offline tables as the current one.
    """

    def __init__(self, world: World, manager: HarpManager, plan: FaultPlan):
        self.world = world
        self.manager = manager
        self.plan = plan
        #: Audit trail: one record per scheduled fault, in firing order.
        self.log: list[dict] = []
        self._next = 0
        self._due_ticks = [world.ticks_in(f.at_s) for f in plan.faults]
        world.on_event.append(self._on_event)
        self._wake_next()

    # -- scheduling -----------------------------------------------------------------

    def _on_event(self, world: World) -> None:
        while (
            self._next < len(self._due_ticks)
            and self._due_ticks[self._next] <= world.tick_index
        ):
            fault = self.plan.faults[self._next]
            self._next += 1
            self._fire(fault)
        self._wake_next()

    def _wake_next(self) -> None:
        """Announce the next pending fault tick to an event-driven world."""
        if self.world.event_driven and self._next < len(self._due_ticks):
            self.world.request_wakeup(self._due_ticks[self._next])

    def done(self) -> bool:
        """True when every scheduled fault has fired."""
        return self._next >= len(self.plan.faults)

    def _fire(self, fault: Fault) -> None:
        applied, pid = self._apply(fault)
        self.log.append(
            {
                "at_s": self.world.time_s,
                "scheduled_s": fault.at_s,
                "kind": fault.kind.value,
                "pid": pid,
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
                kind=fault.kind.value, pid=pid, applied=applied,
                scheduled_s=fault.at_s,
            )

    # -- fault implementations --------------------------------------------------------

    def _apply(self, fault: Fault) -> tuple[bool, int | None]:
        if fault.kind is FaultKind.SOLVER_FAILURE:
            count = int(fault.params.get("count", 1))
            allocator = self.manager.allocator
            if not isinstance(allocator, _FailingSolves):
                allocator = self.manager.allocator = _FailingSolves(allocator)
            allocator.failures += count
            # Force an epoch so the degradation is exercised now, not
            # whenever the next natural reallocation happens to land.
            self.manager.reallocate()
            return True, None
        if fault.kind is FaultKind.RM_RESTART:
            return self._restart_rm(), None

        pid = self._resolve_pid(fault)
        if pid is None:
            return False, None
        session = self.manager.sessions[pid]
        if fault.kind is FaultKind.APP_CRASH:
            self.world.kill(pid, silent=True)
            return True, pid
        if fault.kind is FaultKind.APP_HANG:
            # The application keeps burning CPU but its feedback loop
            # goes dark: utility polls are dropped until the RM's
            # starvation detector reaps the session.
            session.transport.push_filter = _drop_utility_polls
            return True, pid
        if fault.kind is FaultKind.PUSH_LOSS:
            session.transport.push_filter = _drop_everything
            return True, pid
        if fault.kind is FaultKind.DELAYED_REPLY:
            session.reply_delay_s = float(fault.params.get("delay_s", 0.05))
            return True, pid
        if fault.kind is FaultKind.GARBAGE_FRAME:
            # In-process analogue of a garbage frame reaching the RM: an
            # unexpected message hits the request handler, which must
            # answer with an error instead of dying.
            reply = self.manager.handle_request(UtilityReply(pid=pid))
            ok = getattr(reply, "ok", True)
            return not ok, pid
        if fault.kind is FaultKind.TRUNCATED_FRAME:
            # In-process analogue of a truncated frame: the next requests
            # from this application fail at the transport and libharp's
            # retry path has to recover.
            session.transport.fail_next_requests += int(
                fault.params.get("count", 1)
            )
            return True, pid
        raise ValueError(f"unhandled fault kind {fault.kind!r}")

    def _restart_rm(self) -> bool:
        old = self.manager
        snapshot = old.snapshot()
        old.shutdown()
        new = HarpManager(
            self.world, config=old.config, offline_tables=old.offline_tables
        )
        new.restore(snapshot)
        new.adopt_running()
        self.manager = new
        return True

    def _resolve_pid(self, fault: Fault) -> int | None:
        """Lowest-pid live session matching the fault's target app."""
        for pid in sorted(self.manager.sessions):
            session = self.manager.sessions[pid]
            if session.process.finished:
                continue
            if fault.target is None or session.table.app_name == fault.target:
                return pid
        return None


class _FailingSolves:
    """An allocator whose next ``failures`` solves raise; placement,
    stats and caches stay the wrapped allocator's."""

    def __init__(self, allocator: LagrangianAllocator):
        self.allocator = allocator
        self.failures = 0

    def allocate(self, *args, **kwargs) -> AllocationResult:
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("injected solver failure")
        return self.allocator.allocate(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self.allocator, name)


def _drop_utility_polls(message: Message) -> bool:
    return not isinstance(message, UtilityRequest)


def _drop_everything(message: Message) -> bool:
    return False
