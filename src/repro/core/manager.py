"""The HARP resource manager (§4).

A single RM instance oversees all managed applications: it maintains their
operating-point tables (from description files and/or runtime
exploration), runs the MMKP allocator on every system event, pushes
activation messages through libharp, polls utility feedback, and samples
utility/power through the monitoring stack.

The manager runs against the simulated world but observes it only through
the paper's interfaces — perf counters, energy sensors, CPU-time
accounting, and libharp messages.  Its own CPU consumption is modelled by
a daemon process that time-shares the machine with the workload,
reproducing the §6.6 overhead experiment.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.core.allocator import LagrangianAllocator
from repro.core.energy import EnergyAttributor
from repro.core.epoch import EpochDecision, plan_epoch
from repro.core.exploration import ExplorationPlanner
from repro.core.monitor import SystemMonitor
from repro.core.operating_point import (
    MaturityStage,
    OperatingPoint,
    OperatingPointTable,
)
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.apps.base import ApplicationModel
from repro.ipc.client import InProcessTransport
from repro.ipc.messages import (
    Ack,
    ActivateOperatingPoint,
    DeregisterRequest,
    Message,
    ObservabilityQuery,
    ObservabilityReply,
    OperatingPointsMessage,
    RegisterReply,
    RegisterRequest,
    UtilityReply,
    UtilityRequest,
)
from repro.ipc.protocol import ProtocolError
from repro.libharp.adaptivity import AdaptationMode, SimProcessAdapter
from repro.obs import OBS
from repro.libharp.client import LibHarpClient
from repro.sim.engine import AppPerf, ThreadSlot, World
from repro.sim.process import SimProcess


# -- RM daemon overhead model -------------------------------------------------------


@dataclass
class RmDaemonModel(ApplicationModel):
    """The RM's own CPU footprint: a single mostly-idle daemon thread.

    The manager charges busy seconds for monitoring, allocation runs, and
    message handling; the daemon thread consumes them by time-sharing a
    hardware thread with the workload, which is exactly how the overhead
    manifests in the paper's §6.6 experiment.
    """

    pending_busy_s: float = 0.0
    _tick_hint_s: float = 0.01

    def __init__(self, tick_hint_s: float = 0.01):
        super().__init__(
            name="harp-rm",
            total_work=float("inf"),
            serial_fraction=0.0,
            ips_per_work=0.0,
            runtime_lib=None,
            fixed_nthreads=1,
        )
        self.pending_busy_s = 0.0
        self._tick_hint_s = tick_hint_s

    def charge(self, seconds: float) -> float:
        """Account RM work to be burned on the daemon thread; returns the
        daemon's demand."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.pending_busy_s += seconds
        return self._demand()

    def _demand(self) -> float:
        # The pending time in ticks, up to one.
        return min(1.0, self.pending_busy_s / self._tick_hint_s)

    #: Each tick the daemon holds a slot burns a tick of pending time.
    burns_backlog = True

    def burn(self, process: SimProcess) -> float:
        """Consume the tick the daemon just ran from its pending time;
        returns the daemon's demand after it."""
        self.pending_busy_s = max(0.0, self.pending_busy_s - self._tick_hint_s)
        return self._demand()

    def perf(self, slots: list[ThreadSlot], process: SimProcess) -> AppPerf:
        """Slot-pure: the daemon is active for its demand and mutates
        nothing; the world calls :meth:`burn` after each tick that
        places it."""
        if not slots:
            return AppPerf(0.0, [], 0.0)
        activity = process.demand
        activities = [activity] + [0.0] * (len(slots) - 1)
        return AppPerf(0.0, activities, activity * 1.5e9)


# -- configuration ---------------------------------------------------------------------

#: Monitoring period: one utility/power sample every 50 ms (§5.3).
MEASURE_INTERVAL_S = 0.05
#: A stable table is re-assessed every this many measurements (§5.3).
STABLE_REALLOC_MEASUREMENTS = 100
#: RM work accounting: seconds of daemon CPU per operation (§6.6).
COST_PER_SAMPLE_S = 0.00015
COST_PER_ALLOCATION_S = 0.0015
COST_PER_MESSAGE_S = 0.00008
#: Liveness (docs/robustness.md): a session whose process has not been
#: observed alive for this long (simulated seconds) is considered crashed
#: and reaped.  Healthy sessions refresh the lease on every monitoring
#: sample, so it must span at least three measure intervals: then it never
#: expires for a live process.
LEASE_S = 0.5
#: Consecutive unanswered utility polls after which a utility-providing
#: application counts as hung (feedback starvation) and is reaped.
UTILITY_MISS_LIMIT = 3


@dataclass
class ManagerConfig:
    """Tunables of the RM; defaults follow the paper's evaluation (§5.3, §6)."""

    measurements_per_point: int = 20
    stable_after: int = 25
    ema_alpha: float = 0.1
    adaptation: AdaptationMode = AdaptationMode.FULL
    explore: bool = True
    startup_delay_s: float = 0.25
    # Cores per type withheld from managed applications for background and
    # system tasks — the production deployment model of §4.3 (the paper's
    # evaluation variant leaves this empty and lets background work
    # time-share with the managed applications).
    background_reserve: dict[str, int] | None = None
    # Batched reallocation epochs (docs/performance.md, "Scaling the
    # control plane"): registrations, deregistrations, reaps, and
    # measurement-driven triggers arriving within this window (simulated
    # seconds) coalesce into one re-solve instead of one solve per event.
    # 0 keeps the eager behavior: every event re-solves synchronously,
    # bit-identical with the pre-batching control plane.  A session that
    # has never been allocated flushes the window early, so a lone
    # registration is never delayed beyond the next tick.
    epoch_window_s: float = 0.0


@dataclass
class AppSession:
    """Per-application RM state."""

    pid: int
    process: SimProcess
    adapter: SimProcessAdapter
    client: LibHarpClient
    transport: InProcessTransport
    table: OperatingPointTable
    provides_utility: bool = False
    current_erv: ExtendedResourceVector | None = None
    current_knobs: dict = field(default_factory=dict)
    current_hw: frozenset[int] = frozenset()
    co_allocated: bool = False
    samples_at_current: int = 0
    measurements_total: int = 0
    explored: set[ExtendedResourceVector] = field(default_factory=set)
    activation_due_tick: int | None = None
    pending_activation: ActivateOperatingPoint | None = None
    stable_since_s: float | None = None
    # The first interval after a reconfiguration straddles both
    # configurations; its sample is discarded.
    skip_next_sample: bool = False
    # Liveness state: the tick the RM last saw the process alive (a
    # monitor sample or a libharp request), and how many utility polls in
    # a row went unanswered.
    last_seen_tick: int = 0
    utility_misses: int = 0
    # Cumulative energy the RM's attribution pipeline has billed this
    # application (joules).  This is the RM-side accounting record that
    # live migration and RM restarts must carry forward (docs/robustness.md
    # §6): unlike the simulator's ground-truth counter it survives a move
    # to another node as plain snapshot state.
    attributed_energy_j: float = 0.0
    # Fault hook: extra latency applied to activation pushes for this
    # session (simulated seconds), modelling a slow reply channel.
    reply_delay_s: float = 0.0


class HarpManager:
    """Event-driven orchestration of allocation, exploration, monitoring."""

    def __init__(
        self,
        world: World,
        config: ManagerConfig | None = None,
        offline_tables: dict[str, list[dict]] | None = None,
        allocator: LagrangianAllocator | None = None,
        seed: int = 0,
    ):
        self.world = world
        self.config = config or ManagerConfig()
        self.layout = ErvLayout(world.platform)
        self.allocator = allocator or LagrangianAllocator(
            world.platform, self.layout
        )
        # On small platforms the whole coarse-grained space may hold fewer
        # configurations than the stable threshold; exploration is done
        # once everything reachable has been measured.
        space_size = self.layout.space_size()
        self.planner = ExplorationPlanner(
            self.layout,
            stable_after=min(self.config.stable_after, space_size),
        )
        self.monitor = SystemMonitor(world, EnergyAttributor(world.platform))
        self.offline_tables = dict(offline_tables or {})
        self.sessions: dict[int, AppSession] = {}
        # Profile store (§4.3): tables persist across application runs and
        # are refined over time, enabling the warm-up → stable methodology
        # of the evaluation.
        self.table_store: dict[str, OperatingPointTable] = {}
        # First time each application's table reached the stable stage
        # (world seconds), for the §6.5 learning analysis.
        self.stable_at_s: dict[str, float] = {}
        self.allocation_epochs = 0
        # Deadlines are ticks, converted once from seconds by world.ticks_in.
        self._next_sample_tick = 0
        # Batched-epoch state: the tick the pending epoch is due (None = no
        # epoch pending) and how many triggers folded into one so far.
        self._epoch_due_tick: int | None = None
        self.epoch_coalesced_events = 0
        # Robustness counters and fault hooks (docs/robustness.md).
        self.sessions_reaped = 0
        self.solver_fallbacks = 0
        self.push_failures = 0
        self._shut_down = False
        # Session state carried over from a restored snapshot, keyed by
        # pid, consumed by adopt_running().
        self._session_backlog: dict[int, dict] = {}
        self._rm_model = RmDaemonModel(tick_hint_s=world.tick_s)
        self._rm_process = world.spawn(self._rm_model, nthreads=1, daemon=True)
        world.set_demand(self._rm_process, 0.0)
        world.on_process_start.append(self._on_process_start)
        world.on_process_exit.append(self._on_process_exit)
        # The RM listens on the engine's event hook: fired every tick on
        # the fixed-tick engine, once per advance boundary on the event
        # engine.  All timed work below is deadline-driven and announced
        # through request_wakeup, so the event engine never leaps past an
        # epoch, sample, activation, or lease expiry.
        world.on_event.append(self._on_event)
        self._wake_deadlines()

    # -- message handling (the RM side of Fig. 3) ----------------------------------

    def handle_request(self, message: Message) -> Message:
        """Dispatch one libharp request; usable behind a socket server too."""
        self._charge(COST_PER_MESSAGE_S)
        if OBS.enabled:
            OBS.counter("rm.requests", type=message.TYPE).inc()
        # Any request from a known application refreshes its liveness lease.
        known = self.sessions.get(getattr(message, "pid", -1))
        if known is not None:
            known.last_seen_tick = self.world.tick_index
        if isinstance(message, RegisterRequest):
            return RegisterReply(ok=True, session_id=message.pid)
        if isinstance(message, ObservabilityQuery):
            return ObservabilityReply(
                ok=True,
                allocator=dict(vars(self.allocator.stats)),
                registry=OBS.snapshot() if message.include_registry else {},
            )
        if isinstance(message, OperatingPointsMessage):
            session = self.sessions.get(message.pid)
            if session is None:
                return Ack(ok=False, error=f"unknown pid {message.pid}")
            for raw in message.points:
                session.table.add(OperatingPoint.from_wire(self.layout, raw))
            return Ack(ok=True)
        if isinstance(message, DeregisterRequest):
            self.sessions.pop(message.pid, None)
            return Ack(ok=True)
        return Ack(ok=False, error=f"unexpected request {message.TYPE!r}")

    # -- world events -----------------------------------------------------------------

    def _on_process_start(self, process: SimProcess) -> None:
        if not process.managed or process.daemon:
            return
        transport = InProcessTransport(self.handle_request)
        adapter = SimProcessAdapter(
            process,
            mode=self.config.adaptation,
            clock=lambda: self.world.time_s,
        )
        table = self.table_store.get(process.model.name)
        if table is None:
            table = OperatingPointTable(process.model.name, self.layout)
            self.table_store[process.model.name] = table
        session = AppSession(
            pid=process.pid,
            process=process,
            adapter=adapter,
            client=LibHarpClient(
                adapter,
                transport,
                description_points=self.offline_tables.get(process.model.name),
            ),
            transport=transport,
            table=table,
        )
        # Registration must exist before the points message arrives.
        session.last_seen_tick = self.world.tick_index
        self.sessions[process.pid] = session
        session.client.register()
        session.provides_utility = adapter.provides_utility
        if not self.config.explore:
            # Offline mode: the description table is authoritative.
            session.table.stage = MaturityStage.STABLE
        self._charge(COST_PER_MESSAGE_S * 2)
        # Urgent: the new session has no allocation yet, so the epoch
        # window must not delay its first activation.
        self._request_reallocation(urgent=True)

    def _on_process_exit(self, process: SimProcess) -> None:
        if self._drop_session(process.pid) is not None and self.sessions:
            self._request_reallocation()

    def _on_event(self, world: World) -> None:
        now = world.tick_index
        # Apply deferred activations (registration/communication latency).
        # A failed push reaps its session, so iterate over a copy.
        for session in list(self.sessions.values()):
            if (
                session.pending_activation is not None
                and session.activation_due_tick is not None
                and now >= session.activation_due_tick
            ):
                message = session.pending_activation
                session.pending_activation = None
                session.activation_due_tick = None
                if not self._push_activation(session, message):
                    self._reap_session(session.pid, reason="push-failure")
        if self._epoch_due_tick is not None and now >= self._epoch_due_tick:
            self.flush()
        if now >= self._next_sample_tick:
            self._next_sample_tick = now + world.ticks_in(MEASURE_INTERVAL_S)
            self._sample_all()
        self._check_leases(now)
        self._wake_deadlines()

    def _wake_deadlines(self) -> None:
        """Announce every pending deadline tick to an event-driven engine.

        Each wakeup lands on the tick its deadline test in :meth:`_on_event`
        first passes, so the event engine acts on exactly the tick the
        fixed-tick engine does.  The sampling chain is always announced,
        so an attached manager bounds leaps to one measure interval.
        """
        world = self.world
        if not world.event_driven or self._shut_down:
            return
        world.request_wakeup(self._next_sample_tick)
        if self._epoch_due_tick is not None:
            world.request_wakeup(self._epoch_due_tick)
        earliest_seen: int | None = None
        for session in self.sessions.values():
            if session.activation_due_tick is not None:
                world.request_wakeup(session.activation_due_tick)
            if earliest_seen is None or session.last_seen_tick < earliest_seen:
                earliest_seen = session.last_seen_tick
        if earliest_seen is not None:
            # The reap test is strict: it passes one tick after the lease.
            world.request_wakeup(earliest_seen + self._lease_ticks() + 1)

    # -- liveness (docs/robustness.md) ------------------------------------------------

    def _lease_ticks(self) -> int:
        """The lease in ticks: ``LEASE_S`` spans ten monitoring intervals,
        so a healthy session cannot expire between samples."""
        return self.world.ticks_in(LEASE_S)

    def _check_leases(self, now: int) -> None:
        lease = self._lease_ticks()
        for session in list(self.sessions.values()):
            if now - session.last_seen_tick > lease:
                self._reap_session(session.pid, reason="lease-expired")

    def _drop_session(self, pid: int) -> AppSession | None:
        """Forget a session that exited or was reaped; its cores return
        to the pool by its absence from the next epoch."""
        session = self.sessions.pop(pid, None)
        if session is not None:
            self.monitor.forget(pid)
            self._charge(COST_PER_MESSAGE_S)
        return session

    def _reap_session(self, pid: int, reason: str, replan: bool = True) -> None:
        """Tear down a dead/hung/unreachable session and reclaim its cores.

        With ``replan`` an epoch is requested here, so the remaining
        applications expand immediately; an epoch that reaps while it
        executes plans again itself (``reallocate``).
        """
        session = self._drop_session(pid)
        if session is None:
            return
        self.sessions_reaped += 1
        if OBS.enabled:
            OBS.counter("rm.sessions_reaped", reason=reason).inc()
            OBS.counter("rm.faults_detected", kind=reason).inc()
            OBS.event(
                "rm.reap", track="rm",
                pid=pid, app=session.table.app_name, reason=reason,
            )
        with contextlib.suppress(ProtocolError):
            session.transport.close()
        if replan and self.sessions:
            self._request_reallocation()

    # -- monitoring & exploration progress -------------------------------------------

    def _sample_all(self) -> None:
        sessions = [
            s
            for s in self.sessions.values()
            if not s.process.finished
        ]
        if not sessions:
            return
        self._charge(COST_PER_SAMPLE_S * len(sessions))
        utilities: dict[int, float | None] = {}
        starved: list[int] = []
        for session in sessions:
            if not session.provides_utility:
                continue
            try:
                reply = session.transport.push(
                    UtilityRequest(pid=session.pid)
                )
            except ProtocolError:
                reply = None
            self._charge(COST_PER_MESSAGE_S)
            if isinstance(reply, UtilityReply):
                utilities[session.pid] = reply.utility
                session.utility_misses = 0
            else:
                # Unanswered poll: the application is alive (it burns
                # CPU) but its feedback loop is starved — after a few
                # consecutive misses, treat it as hung.
                session.utility_misses += 1
                if OBS.enabled:
                    OBS.counter("rm.utility_misses").inc()
                if session.utility_misses >= UTILITY_MISS_LIMIT:
                    starved.append(session.pid)
        samples = self.monitor.sample(
            [s.pid for s in sessions], app_utilities=utilities
        )
        # A monitoring sample proves the process existed this interval,
        # and its attributed energy accrues to the session's cumulative
        # account regardless of whether the measurement is usable for the
        # operating-point table below.
        for session in sessions:
            if session.pid in samples:
                session.last_seen_tick = self.world.tick_index
                session.attributed_energy_j += samples[session.pid].energy_j
        if OBS.enabled:
            OBS.counter("rm.sample_rounds").inc()
        needs_reallocation = False
        for session in sessions:
            sample = samples.get(session.pid)
            if sample is None:
                continue
            # Co-allocated applications are not monitored (§4.2.2): the
            # interference would poison the operating-point table.
            if session.co_allocated or session.current_erv is None:
                continue
            if session.pending_activation is not None:
                continue  # allocation not applied yet
            if session.skip_next_sample:
                session.skip_next_sample = False
                continue
            session.table.record_measurement(
                session.current_erv,
                sample.utility,
                sample.power_w,
                alpha=self.config.ema_alpha,
            )
            session.samples_at_current += 1
            session.measurements_total += 1
            if OBS.enabled:
                OBS.counter(
                    "rm.measurements", app=session.table.app_name
                ).inc()
            self._on_measurement(session, sample)
            if not self.config.explore:
                continue
            stage = self.planner.stage_of(session.table)
            if stage is MaturityStage.STABLE:
                if session.stable_since_s is None:
                    session.stable_since_s = self.world.time_s
                self.stable_at_s.setdefault(
                    session.table.app_name, self.world.time_s
                )
                if (
                    session.measurements_total
                    % STABLE_REALLOC_MEASUREMENTS
                    == 0
                ):
                    needs_reallocation = True
            else:
                if session.samples_at_current >= self.config.measurements_per_point:
                    needs_reallocation = True
        for pid in starved:
            # Each reap already triggers a reallocation for the survivors.
            self._reap_session(pid, reason="utility-starvation")
        if needs_reallocation and not starved:
            self._request_reallocation()

    def _on_measurement(self, session: AppSession, sample) -> None:
        """Hook invoked after each recorded measurement (extension point,
        used by e.g. the phase-detection extension)."""

    # -- the allocation epoch -----------------------------------------------------------

    def _request_reallocation(self, urgent: bool = False) -> EpochDecision | None:
        """Ask for an allocation epoch, coalescing under the epoch window.

        With ``epoch_window_s == 0`` this *is* ``reallocate()`` — the
        epoch runs synchronously at the call site, exactly like the eager
        control plane.  With a window, the first trigger schedules an
        epoch ``window`` seconds out and later triggers fold into it
        (counted in ``epoch_coalesced_events``).  ``urgent`` triggers
        (a session that has never been allocated) pull the deadline to
        *now*, so the epoch runs on the next tick: a lone registration is
        activated immediately rather than waiting out the window.
        """
        window = self.config.epoch_window_s
        if window <= 0.0:
            return self.reallocate()
        now = self.world.tick_index
        due = now if urgent else now + self.world.ticks_in(window)
        if self._epoch_due_tick is None:
            self._epoch_due_tick = due
        else:
            self._epoch_due_tick = min(self._epoch_due_tick, due)
            self.epoch_coalesced_events += 1
            if OBS.enabled:
                OBS.counter("rm.epoch_coalesced_events").inc()
        self._wake_deadlines()
        return None

    def flush(self) -> EpochDecision | None:
        """Run any pending batched epoch now; no-op when none is pending.

        Tests (and shutdown paths) use this to drain the epoch window
        deterministically instead of stepping the world to the deadline.
        """
        if self._epoch_due_tick is None:
            return None
        return self.reallocate()

    def reallocate(self) -> EpochDecision | None:
        """Run the two-stage algorithm of §5.3: plan the epoch, execute it.

        Executing can reap a session (a failed push); the survivors are
        then planned again at once.  Returns the last executed decision,
        or None when no session is live.
        """
        decision = None
        while True:
            # A directly invoked epoch serves any pending batched triggers too.
            self._epoch_due_tick = None
            sessions = [
                s for s in self.sessions.values() if not s.process.finished
            ]
            if not sessions:
                break
            self.allocation_epochs += 1
            span = OBS.span(
                "rm.reallocate", track="rm",
                epoch=self.allocation_epochs, sessions=len(sessions),
            ) if OBS.enabled else contextlib.nullcontext()
            with span:
                decision, reaped = self._run_epoch(sessions)
            if not reaped:
                break
        if decision is not None:
            # An epoch can defer activations (reply latency); announce them.
            self._wake_deadlines()
        return decision

    def _run_epoch(
        self, sessions: list[AppSession]
    ) -> tuple[EpochDecision, bool]:
        """Plan and execute one epoch; True when a failed push reaped a
        session, which leaves its planned cores unused."""
        self._charge(COST_PER_ALLOCATION_S)
        decision = plan_epoch(
            sessions,
            self.planner,
            self.allocator,
            self.world.platform,
            self.config.background_reserve or {},
            explore=self.config.explore,
            measurements_per_point=self.config.measurements_per_point,
        )
        if decision.solver_error is not None:
            self.solver_fallbacks += 1
            if OBS.enabled:
                OBS.counter("rm.solver_fallbacks").inc()
                OBS.event(
                    "rm.solver_fallback", track="rm",
                    error=decision.solver_error, sessions=len(sessions),
                )
        reaped = False
        for app in decision.apps:
            session = self.sessions.get(app.pid)
            if session is None:
                continue  # reaped earlier in this epoch (push failure)
            session.co_allocated = app.co_allocated
            if app.erv is None:
                session.current_erv = None
                continue
            if app.new_point:
                session.samples_at_current = 0
                session.explored.add(app.erv)
            if not self._activate(session, app.erv, app.knobs, app.hw_threads):
                self._reap_session(app.pid, reason="push-failure", replan=False)
                reaped = True
        return decision, reaped

    # -- execution -----------------------------------------------------------------------

    def _activate(
        self,
        session: AppSession,
        erv: ExtendedResourceVector,
        knobs: dict,
        hw_threads: frozenset[int],
    ) -> bool:
        """Apply a decision to a session; False when its push failed."""
        if not hw_threads:
            return True
        changed = (
            erv != session.current_erv or hw_threads != session.current_hw
        )
        message = ActivateOperatingPoint(
            pid=session.pid,
            erv=erv.to_wire(),
            degree=erv.total_threads(),
            knobs=dict(knobs),
            hw_threads=sorted(hw_threads),
        )
        if erv != session.current_erv:
            session.samples_at_current = 0
        session.current_erv = erv
        session.current_knobs = dict(knobs)
        session.current_hw = hw_threads
        if not changed:
            return True
        # Initial activation is deferred by the registration/communication
        # latency; later pushes apply immediately (unless a fault-injected
        # reply delay is active on the session).
        if session.client.activations == 0:
            session.activation_due_tick = self.world.ticks_in(
                session.process.start_time_s
                + self.config.startup_delay_s
                + session.reply_delay_s
            )
            if self.world.tick_index >= session.activation_due_tick:
                session.pending_activation = None
                session.activation_due_tick = None
                return self._push_activation(session, message)
            session.pending_activation = message
        elif session.reply_delay_s > 0:
            session.pending_activation = message
            session.activation_due_tick = self.world.tick_index + self.world.ticks_in(
                session.reply_delay_s
            )
        else:
            return self._push_activation(session, message)
        return True

    def _push_activation(
        self, session: AppSession, message: ActivateOperatingPoint
    ) -> bool:
        """Push an activation; returns False when delivery failed.

        An application that cannot receive activations is unmanageable:
        the RM would keep accounting cores to a configuration the
        application never applied, so callers escalate a failed push to
        session teardown and the cores are reclaimed.
        """
        self._charge(COST_PER_MESSAGE_S)
        if OBS.enabled:
            app = session.table.app_name
            OBS.counter("rm.activations", app=app).inc()
            OBS.event(
                "rm.activate", track=f"app:{app}",
                pid=session.pid, erv=list(message.erv),
                degree=message.degree, hw_threads=len(message.hw_threads),
                co_allocated=session.co_allocated,
            )
        session.skip_next_sample = True
        try:
            reply = session.transport.push(message)
        except ProtocolError:
            reply = None
        delivered = reply is not None and not (
            isinstance(reply, Ack) and not reply.ok
        )
        if not delivered:
            self.push_failures += 1
            if OBS.enabled:
                OBS.counter(
                    "rm.push_failures", app=session.table.app_name
                ).inc()
        return delivered

    def _charge(self, seconds: float) -> None:
        self.world.set_demand(self._rm_process, self._rm_model.charge(seconds))

    # -- RM crash recovery (docs/robustness.md) ------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible durable state for RM crash recovery.

        Captures what a restarted RM cannot re-derive: the learned
        operating-point tables with their maturity stages, the learning
        timeline, and per-session exploration progress.  Live allocations
        are deliberately excluded — after a restart the new RM re-runs the
        allocator from the restored tables.
        """
        if OBS.enabled:
            OBS.counter("rm.snapshots").inc()
        return {
            "version": 1,
            "time_s": self.world.time_s,
            "allocation_epochs": self.allocation_epochs,
            "stable_at_s": dict(self.stable_at_s),
            "tables": {
                name: table.to_wire()
                for name, table in sorted(self.table_store.items())
            },
            "sessions": [
                {
                    "pid": session.pid,
                    "app": session.table.app_name,
                    "measurements_total": session.measurements_total,
                    "attributed_energy_j": session.attributed_energy_j,
                    "explored": [
                        erv.to_wire()
                        for erv in sorted(
                            session.explored, key=lambda e: tuple(e.counts)
                        )
                    ],
                }
                for _, session in sorted(self.sessions.items())
            ],
        }

    def restore(self, snapshot: dict) -> None:
        """Load a snapshot into this (fresh) manager instance.

        Call :meth:`adopt_running` afterwards to re-attach the managed
        processes that survived the RM outage.
        """
        if snapshot.get("version") != 1:
            raise ValueError(f"unknown snapshot version {snapshot.get('version')!r}")
        self.allocation_epochs = int(snapshot.get("allocation_epochs", 0))
        self.stable_at_s = dict(snapshot.get("stable_at_s", {}))
        self.table_store = {
            name: OperatingPointTable.from_wire(self.layout, data)
            for name, data in snapshot.get("tables", {}).items()
        }
        self._session_backlog = {
            int(entry["pid"]): entry for entry in snapshot.get("sessions", [])
        }
        if OBS.enabled:
            OBS.counter("rm.restores").inc()
            OBS.event(
                "rm.restore", track="rm",
                tables=len(self.table_store),
                sessions=len(self._session_backlog),
            )

    def adopt_running(self) -> int:
        """Re-register managed processes still running after an RM restart.

        Returns the number of adopted sessions.  Each adoption replays the
        registration handshake (the application side does the same through
        libharp's reconnect-and-reregister path) and re-attaches the
        exploration progress saved in the snapshot.
        """
        adopted = 0
        for pid in sorted(self.world.processes):
            process = self.world.processes[pid]
            if (
                not process.managed
                or process.daemon
                or process.finished
                or pid in self.sessions
            ):
                continue
            self._on_process_start(process)
            session = self.sessions.get(pid)
            if session is None:
                continue
            adopted += 1
            backlog = self._session_backlog.pop(pid, None)
            if backlog is not None:
                session.measurements_total = int(
                    backlog.get("measurements_total", 0)
                )
                session.attributed_energy_j = float(
                    backlog.get("attributed_energy_j", 0.0)
                )
                session.explored = {
                    ExtendedResourceVector.from_wire(self.layout, counts)
                    for counts in backlog.get("explored", [])
                }
        if OBS.enabled:
            OBS.counter("rm.sessions_adopted").inc(adopted)
        return adopted

    def shutdown(self) -> None:
        """Detach from the world, modelling an RM crash or orderly stop.

        Idempotent.  World callbacks are removed, all session transports
        are closed, and the RM overhead daemon is killed; the managed
        processes keep running with their last activation until a new
        manager (typically built from a :meth:`snapshot`) adopts them.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._epoch_due_tick = None
        for callbacks, cb in (
            (self.world.on_process_start, self._on_process_start),
            (self.world.on_process_exit, self._on_process_exit),
            (self.world.on_event, self._on_event),
        ):
            with contextlib.suppress(ValueError):
                callbacks.remove(cb)
        for session in list(self.sessions.values()):
            with contextlib.suppress(ProtocolError):
                session.transport.close()
        self.sessions.clear()
        self.world.kill(self._rm_process.pid, silent=True)
        if OBS.enabled:
            OBS.counter("rm.shutdowns").inc()
            OBS.event("rm.shutdown", track="rm")

    # -- introspection -------------------------------------------------------------------

    def allocator_stats(self):
        """Solver hot-path counters: solves, memoization hits/misses,
        pruned operating points, and repair give-ups (the observable
        precursor of co-allocation fallbacks)."""
        return self.allocator.stats

    def stages(self) -> dict[int, MaturityStage]:
        """Current maturity stage per managed application."""
        return {pid: s.table.stage for pid, s in self.sessions.items()}

    def all_stable(self) -> bool:
        """True when every managed application reached the stable stage."""
        return all(
            s.table.stage is MaturityStage.STABLE for s in self.sessions.values()
        )

    def export_tables(self) -> dict[str, dict]:
        """Snapshot of all operating-point tables (wire format)."""
        return {s.table.app_name: s.table.to_wire() for s in self.sessions.values()}
