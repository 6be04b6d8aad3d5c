"""Trace replay: drives a generated session trace against a live world.

The driver is engine-portable: it does all its work from the world's
``on_event`` hook (fired every tick on the fixed-tick engine, once per
boundary on the event engine) and announces every future deadline tick —
the next arrival and the earliest session phase flip — through
``request_wakeup``, so the event engine never leaps past a state change.
Arrival times and phase durations become ticks once, via ``world.ticks_in``.
Given the same (spec, seed), both engines replay the trace identically.
"""

from __future__ import annotations

import heapq
import time

from repro.analysis.scenarios import make_platform
from repro.core.manager import HarpManager, ManagerConfig
from repro.scenario.generator import SessionPlan, generate_trace
from repro.scenario.session import make_session_model
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import World
from repro.sim.event import make_world
from repro.sim.process import SimProcess
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.eas import EasScheduler
from repro.sim.schedulers.itd import ItdScheduler
from repro.sim.schedulers.pinned import PinnedScheduler

_SCHEDULERS = {
    "cfs": CfsScheduler,
    "eas": EasScheduler,
    "itd": ItdScheduler,
    "pinned": PinnedScheduler,
}


class _LiveSession:
    __slots__ = ("plan", "process", "phase_k")

    def __init__(self, plan: SessionPlan, process: SimProcess) -> None:
        self.plan = plan
        self.process = process
        self.phase_k = 0


class TraceDriver:
    """Replays a session trace; collects per-session completion records."""

    def __init__(
        self,
        world: World,
        trace: list[SessionPlan],
        managed: bool = False,
        max_live: int | None = None,
    ):
        self.world = world
        self.trace = sorted(trace, key=lambda p: p.arrival_s)
        self._arrival_ticks = [world.ticks_in(p.arrival_s) for p in self.trace]
        self.managed = managed
        self.max_live = max_live
        self._next = 0
        self._live: dict[int, _LiveSession] = {}
        # Min-heap of (deadline_tick, pid) phase flips, with lazy deletion
        # — a boundary touches only the sessions whose phase actually
        # expired, never all live sessions.
        self._phase_heap: list[tuple[int, int]] = []
        self.records: list[dict] = []
        self.spawned = 0
        self.rejected = 0
        self.completed = 0
        self.peak_live = 0
        world.on_event.append(self._on_event)
        world.on_process_exit.append(self._on_exit)
        self._wake()

    # -- world hooks -----------------------------------------------------------

    def _on_event(self, world: World) -> None:
        now = world.tick_index
        arrival_ticks = self._arrival_ticks
        while self._next < len(arrival_ticks) and arrival_ticks[self._next] <= now:
            plan = self.trace[self._next]
            self._next += 1
            self._admit(plan, now)
        heap = self._phase_heap
        while heap and heap[0][0] <= now:
            _, pid = heapq.heappop(heap)
            session = self._live.get(pid)
            if session is None or session.process.finished:
                continue
            self._flip_phase(session, now)
        self._wake()

    def _on_exit(self, process: SimProcess) -> None:
        session = self._live.pop(process.pid, None)
        if session is None:
            return
        self.completed += 1
        plan = session.plan
        self.records.append(
            {
                "pid": process.pid,
                "app": plan.app,
                "nthreads": plan.nthreads,
                "arrival_s": plan.arrival_s,
                "start_s": process.start_time_s,
                "finish_s": process.finish_time_s,
                "lifetime_s": (process.finish_time_s or 0.0)
                - process.start_time_s,
                "cpu_s": sum(process.cpu_time_by_type.values()),
                "energy_true_j": process.energy_true_j,
            }
        )

    # -- internals -------------------------------------------------------------

    def _admit(self, plan: SessionPlan, now: int) -> None:
        if self.max_live is not None and len(self._live) >= self.max_live:
            self.rejected += 1
            return
        process = self.world.spawn(
            make_session_model(plan.app, plan.work_scale),
            nthreads=plan.nthreads,
            managed=self.managed,
        )
        session = _LiveSession(plan, process)
        self._live[process.pid] = session
        self.spawned += 1
        if len(self._live) > self.peak_live:
            self.peak_live = len(self._live)
        if plan.phases:
            burst_ticks = self.world.ticks_in(plan.phases[0][0])
            heapq.heappush(self._phase_heap, (now + burst_ticks, process.pid))

    def _flip_phase(self, session: _LiveSession, now: int) -> None:
        phases = session.plan.phases
        session.phase_k += 1
        k = session.phase_k
        # Even k: bursting; odd k: thinking.  Durations cycle through the
        # precomputed (burst, think) pairs.
        pair = phases[(k // 2) % len(phases)]
        duration_ticks = self.world.ticks_in(pair[0] if k % 2 == 0 else pair[1])
        # A bursting session wants full slices; a thinking one sleeps,
        # off the runnable set until its next burst.
        self.world.set_demand(session.process, 1.0 if k % 2 == 0 else 0.0)
        heapq.heappush(self._phase_heap, (now + duration_ticks, session.process.pid))

    def _wake(self) -> None:
        world = self.world
        if not world.event_driven:
            return
        if self._next < len(self._arrival_ticks):
            world.request_wakeup(self._arrival_ticks[self._next])
        # Prune lazily-deleted tops (sessions that completed with a phase
        # flip still pending) before announcing: a stale deadline would
        # split a leap for a session that no longer exists.  Pruning only
        # removes wakeups, never state changes, so it cannot affect
        # tick/event parity — just leap lengths.
        heap = self._phase_heap
        while heap:
            pid = heap[0][1]
            session = self._live.get(pid)
            if session is not None and not session.process.finished:
                world.request_wakeup(heap[0][0])
                break
            heapq.heappop(heap)

    # -- metrics ---------------------------------------------------------------

    def live_count(self) -> int:
        return len(self._live)

    def summary(self) -> dict:
        lifetimes = sorted(r["lifetime_s"] for r in self.records)

        def pct(q: float) -> float:
            if not lifetimes:
                return 0.0
            idx = min(len(lifetimes) - 1, int(q * (len(lifetimes) - 1)))
            return lifetimes[idx]

        return {
            "arrivals": len(self.trace),
            "spawned": self.spawned,
            "rejected": self.rejected,
            "completed": self.completed,
            "live_at_end": len(self._live),
            "peak_live": self.peak_live,
            "lifetime_p50_s": pct(0.50),
            "lifetime_p95_s": pct(0.95),
        }


# harplint: pure-wall-time -- wall_s is measurement-only; sim state advances on world.tick_index + explicit seed
def run_trace(
    spec: ScenarioSpec,
    seed: int = 0,
    engine: str = "event",
) -> dict:
    """Run one (spec, seed) fleet scenario end to end; returns a summary.

    The returned dict is JSON-serializable — one line of a sweep's JSONL
    output.
    """
    platform = make_platform(spec.platform)
    scheduler_cls = _SCHEDULERS.get(spec.scheduler)
    if scheduler_cls is None:
        raise ValueError(f"unknown scheduler {spec.scheduler!r}")
    world = make_world(platform, scheduler_cls(), engine=engine, seed=seed)
    manager = None
    if spec.policy == "harp":
        manager = HarpManager(world, config=ManagerConfig(epoch_window_s=0.02))
    elif spec.policy != "none":
        raise ValueError(f"unknown policy {spec.policy!r}")
    trace = generate_trace(spec, seed)
    driver = TraceDriver(
        world, trace, managed=manager is not None, max_live=spec.max_live
    )
    t0 = time.perf_counter()
    world.run_for(spec.duration_s)
    wall_s = time.perf_counter() - t0
    result = {
        "spec": spec.name,
        "seed": seed,
        "engine": engine,
        "platform": spec.platform,
        "scheduler": spec.scheduler,
        "policy": spec.policy,
        "duration_s": spec.duration_s,
        "wall_s": wall_s,
        "ticks": world.tick_index,
        "energy_j": world.total_energy_j(),
        "energy_by_type_j": dict(world.energy_by_type_j),
    }
    result.update(driver.summary())
    if manager is not None:
        result["allocation_epochs"] = manager.allocation_epochs
        result["sessions_reaped"] = manager.sessions_reaped
        manager.shutdown()
    return result
