"""The event-heap execution engine.

:class:`EventWorld` subclasses the fixed-tick :class:`~repro.sim.engine.World`
with a heap of typed future events (thread wakeups, process arrivals,
completions, quantum expiries, RT periods, monitor epochs, scheduled
reallocations, fault injections), keyed by integer tick.  Whenever nothing
is runnable the engine *leaps* directly to the next event's tick,
integrating idle power analytically over the whole interval instead of
stepping through it — idle sim time costs (almost) zero CPU.  Stable
busy stretches leap too; their probe evaluates its tick on ``World``'s
one path (placement and pattern memories, ``_evaluate_tick``), and a
tick it does not leap is applied by ``step()`` without a second
evaluation.

Bit-parity contract
-------------------
On tick-equivalent scenarios the event engine reproduces the tick engine
**bit for bit**: same ``tick_index`` and hence the same ``time_s`` (both
engines derive it as ``tick_index * tick_s``), same sensor energy (noise
draws are batched through ``default_rng``, which consumes the bitstream
identically to scalar draws), same PELT trajectories (per-tick decay
multiplies are replayed), same per-type energy accumulators (the leaps
replay the power kernel's accumulator adds in the tick's order), and
identical process completion order.  The parity suite in
``tests/test_eventsim.py`` asserts this across all four schedulers.

Listeners attach to ``world.on_event`` (fired at every advance boundary —
every tick while stepping, once per leap) and MUST route timed work
through :meth:`World.request_wakeup`, which takes the integer tick of the
deadline; a wakeup guarantees the engine visits exactly that tick.  A
listener converts a deadline given in seconds once, with
:meth:`World.ticks_in`, and tests it against ``tick_index``, so it is due
at the wakeup it asked for — on the same tick the tick engine fires it.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Callable

import numpy as np

from repro.obs import OBS
from repro.platform.dvfs import Governor
from repro.platform.topology import Platform
from repro.sim.engine import _PATTERN_HIT, TickStats, World
from repro.sim.process import (
    _PELT_HALFLIFE_S,
    _decay_for,
    SimThread,
    ticks_until_work_expiry,
    work_before_completion,
)


class EventKind(Enum):
    """Taxonomy of heap events (labels for tracing and debugging)."""

    TIMER = "timer"            # generic requested wakeup
    WAKEUP = "wakeup"          # a thread/session becomes runnable
    BLOCK = "block"            # a session stops consuming CPU
    SPAWN = "spawn"            # process arrival
    COMPLETION = "completion"  # process expected to finish its work
    QUANTUM = "quantum"        # scheduler quantum expiry
    RT_PERIOD = "rt_period"    # real-time period boundary
    MONITOR = "monitor"        # monitor / sample epoch
    REALLOC = "realloc"        # scheduled reallocation / epoch flush
    FAULT = "fault"            # fault-plan injection point


#: A busy leap must replace at least this many ticks to pay for its
#: commit (grouping the pattern's adds into arrays); a probe that finds
#: its pattern remembered evaluates nothing, so the commit is its cost.
_MIN_BUSY_LEAP_TICKS = 2

#: After a failed busy-leap probe, skip probing for this many ticks: the
#: conditions that break a probe (an RM daemon holding a slot, a governor
#: not yet at its fixpoint, a near phase flip) persist for a few ticks,
#: and re-probing every tick would cost more than stepping.  A probe
#: vetoed by a completion backs off only until the completion tick has
#: been stepped: that tick is known exactly, and after it the stretch
#: can leap again.
_BUSY_LEAP_BACKOFF_TICKS = 4

#: Bucket bounds of the ``sim.busy_leap_ticks`` leap-length histogram.
_BUSY_LEAP_TICKS_BUCKETS = (
    2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
)


class EventWorld(World):
    """Event-driven world: identical API, idle AND stable busy stretches
    leap for free."""

    event_driven = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap: list[tuple[int, int, EventKind, Callable | None]] = []
        self._seq = itertools.count()
        self._wakeup_ticks: set[int] = set()
        self._busy_backoff_until = 0
        # One idle tick of the power kernel: package power and per-type
        # busy/energy increments, exactly what step() adds with nothing busy.
        # Zero busy fractions zero the DVFS term, so any frequencies do.
        idle_freqs = {
            c.core_id: c.core_type.max_freq_mhz for c in self.platform.cores
        }
        self._idle_pkg_w, _, self._idle_busy, self._idle_energy, _ = (
            self._power_tick({}, {}, idle_freqs)
        )

    # -- event heap --------------------------------------------------------------

    def request_wakeup(self, tick: int, kind: object = EventKind.TIMER) -> None:
        """Guarantee the engine visits tick ``tick``.

        A tick at or before the current one is clamped to the next tick:
        the boundary being processed has already been reached.
        """
        tick = max(self.tick_index + 1, tick)
        if tick in self._wakeup_ticks:
            return
        self._wakeup_ticks.add(tick)
        kind = kind if isinstance(kind, EventKind) else EventKind.TIMER
        heapq.heappush(self._heap, (tick, next(self._seq), kind, None))

    def schedule(
        self,
        tick: int,
        callback: Callable[["EventWorld"], None],
        kind: EventKind = EventKind.TIMER,
    ) -> int:
        """Run ``callback(world)`` at the boundary of tick ``tick``.

        Callbacks fire after ``on_event`` listeners, in (tick, insertion)
        order; a past tick is clamped to the next one.  Returns the tick
        index the callback is scheduled for.
        """
        tick = max(self.tick_index + 1, tick)
        heapq.heappush(self._heap, (tick, next(self._seq), kind, callback))
        return tick

    def next_event_tick(self) -> int | None:
        """Tick of the earliest pending event, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def _drain_due(self) -> None:
        """Pop every event at or before the current tick; run callbacks."""
        while self._heap and self._heap[0][0] <= self.tick_index:
            tick, _, _, callback = heapq.heappop(self._heap)
            if callback is None:
                self._wakeup_ticks.discard(tick)
            else:
                callback(self)

    # -- advancing ---------------------------------------------------------------

    def _has_runnable(self) -> bool:
        # Fills the world's per-tick runnable snapshot, which the step
        # that follows (if any) reuses — probing costs nothing extra.
        return bool(self.runnable_pairs())

    def _advance_one(self, limit_tick: int) -> None:
        """Advance to the next boundary, never past ``limit_tick``.

        The tick budget to the next heap event (or the limit) is leapt:
        via the idle leap when nothing is runnable, via the busy-stretch
        fast-forward when the runnable set is in a stable stretch.  A
        failed busy probe steps normally and backs off (:meth:`_no_leap`).
        """
        runnable = self._has_runnable()
        next_tick = self._heap[0][0] if self._heap else None
        leap_to = limit_tick if next_tick is None else min(next_tick, limit_tick)
        budget = leap_to - self.tick_index
        if runnable:
            if (
                budget >= _MIN_BUSY_LEAP_TICKS
                and self.tick_index >= self._busy_backoff_until
            ):
                if self._try_busy_leap(budget):
                    for callback in self.on_event:
                        callback(self)
                    self._drain_due()
                    return
            self.step()
            self._drain_due()
            return
        if budget <= 1:
            self.step()
            self._drain_due()
            return
        self._leap(budget)
        for callback in self.on_event:
            callback(self)
        self._drain_due()

    def run_for(self, seconds: float) -> None:
        """Advance by a fixed duration (event-driven)."""
        target = self.tick_index + self.ticks_in(seconds)
        while self.tick_index < target:
            self._advance_one(target)

    def run_until_all_finished(self, max_seconds: float | None = 10_000.0) -> float:
        """Run until every process finished; returns the makespan.

        Hitting ``max_seconds`` raises rather than silently truncating
        the scenario; ``max_seconds=None`` opts into an unbounded run,
        advancing in hour-sized leap windows until the workload drains.
        """
        max_ticks = None if max_seconds is None else self.ticks_in(max_seconds)
        while any(not p.daemon for p in self.running_processes()):
            if max_ticks is None:
                self._advance_one(self.tick_index + 360_000)
            else:
                if self.tick_index > max_ticks:
                    raise RuntimeError(
                        f"simulation exceeded {max_seconds}s without finishing"
                    )
                self._advance_one(max_ticks + 1)
        finish_times = [
            p.finish_time_s
            for p in self.processes.values()
            if p.finish_time_s is not None
        ]
        return max(finish_times) if finish_times else self.time_s

    # -- the leap ----------------------------------------------------------------

    def _leap(self, n: int) -> None:
        """Replay ``n`` fully idle ticks in one analytic jump.

        Precondition (enforced by :meth:`_advance_one`): no runnable
        thread.  Everything a tick would have mutated is replayed
        bit-identically: the package sensor (batched noise draws), per-type energy
        accumulators in the power kernel's order, PELT decay of
        blocked threads, core-utilization state, the placement-signature
        cache, and the obs tick/placement counters.
        """
        dt = self.tick_s
        obs_on = OBS.enabled
        t0_wall = OBS.walltime() if obs_on else 0.0

        # Placement-cache bookkeeping: with live-but-blocked processes the
        # tick engine still consults the signature each tick (an empty
        # runnable set hashes to an empty signature); with no processes it
        # short-circuits before touching the cache.
        hits = misses = 0
        if self._running:
            sig = self.scheduler.placement_signature(self)
            if sig is None:
                misses = n
            elif self._remembered_placement(sig) is not None:
                hits = n
            else:
                self._remember_placement(sig, {})
                misses, hits = 1, n - 1

        # PELT decay for every blocked thread still holding a nonzero
        # average (the world's ``_decaying`` set — zero is an exact fixed
        # point, so the rest can be skipped bit-identically): u *= decay,
        # n times, with numpy broadcasting across threads (elementwise
        # IEEE multiply is bit-identical to the scalar loop).  Once every
        # tracked thread has decayed to exactly 0.0 the remaining
        # iterations are no-ops and the loop exits early.
        decaying = self._decaying
        if decaying:
            tids = list(decaying)
            utils = np.array(
                [decaying[tid].utilization for tid in tids], dtype=float
            )
            decay = 0.5 ** (dt / _PELT_HALFLIFE_S)
            remaining = n
            while remaining > 0:
                chunk = min(remaining, 256)
                for _ in range(chunk):
                    utils *= decay
                remaining -= chunk
                if not utils.any():
                    break
            for tid, u in zip(tids, utils.tolist()):
                decaying[tid].utilization = u
                if u == 0.0:  # harplint: disable=HL003 -- underflow to the exact fixed point
                    del decaying[tid]

        # Idle power: constant across the leap and freq-independent (zero
        # busy fractions short-circuit the DVFS scale), so the package
        # sensor integrates n equal deltas and the per-type accumulators
        # replay the per-tick adds.
        package_power = self._idle_pkg_w
        tick_energy = list(self._idle_energy.items())
        acc = self.energy_by_type_j
        for _ in range(n):
            for name, energy in tick_energy:
                acc[name] += energy
        self.package_sensor.accumulate_constant(package_power, dt, n)
        # busy_time accumulators gain exactly +0.0 per idle tick — a
        # bitwise no-op — so they are left untouched.
        self._core_util = {core_id: 0.0 for core_id in self._core_ids}
        # Stats describe the final leapt tick, as step() would leave them.
        self.last_stats = TickStats(
            (self.tick_index + n - 1) * dt,
            package_power,
            dict(self._idle_busy),
            dict(self._idle_energy),
        )
        self.tick_index += n

        if obs_on:
            handles = self._obs_hot()
            handles[1].inc(n)
            handles[2].observe(OBS.walltime() - t0_wall)
            if hits:
                handles[3].inc(hits)
            if misses:
                handles[4].inc(misses)
            OBS.counter("sim.leaps").inc()
            OBS.counter("sim.leap_ticks").inc(n)

    # -- the busy-stretch fast-forward -------------------------------------------

    def _try_busy_leap(self, budget_ticks: int) -> bool:
        """Fast-forward a *stable busy stretch* of up to ``budget_ticks``.

        A stable stretch is an interval over which the runnable set, the
        thread→hardware placement, and the core frequencies are provably
        unchanged, so one tick's scheduler/model/power evaluation (the
        *pattern*) holds for every tick in it.  The stretch ends at the
        earliest of: the caller's budget (next heap event / horizon), the
        scheduler's ``next_preemption_tick``, and each placed process's
        completion (the exact tick, from a scalar replay of its work
        adds, :func:`~repro.sim.process.work_before_completion`) or model
        phase-boundary expiry (with a guard margin against float drift).
        The leap stops on the tick before a completion, which the next
        step evaluates afresh.  A committed leap counts the first
        of these checks, in that order, that set its length in
        ``sim.busy_leap_bound{bound=budget|preemption|work_expiry|phase}``
        and its length in the ``sim.busy_leap_ticks`` histogram.

        The probe takes its placement and pattern exactly as ``step()``
        does, from the placement and pattern memories or, on a miss,
        from :meth:`World._evaluate_tick` — after screening out stateful
        models (the RM daemon), whose ``perf()`` must not be called.
        Preconditions (enforced by :meth:`_advance_one`): something is
        runnable, budget ≥ 2.  Returns ``False`` if the scheduler has no
        signature (EAS), nothing is placed, a placed model is stateful, a
        preemption, completion or work boundary is too close, or the
        frequencies are not a fixpoint of the pattern's utilization; what
        the probe evaluated is then applied by this tick's ``step()``.

        Everything the replaced ticks would have mutated is replayed
        bit-identically: per-tick float adds to every touched accumulator
        (work, CPU time, perf counters, per-type energy, ground-truth
        attribution) grouped into elementwise array adds — the pattern's
        per-process adds by its layout, the power kernel's by target — PELT
        accumulate/decay as elementwise per-tick updates, batched sensor
        noise draws, and the placement-cache and obs bookkeeping.
        """
        dt = self.tick_s
        obs_on = OBS.enabled
        t0_wall = OBS.walltime() if obs_on else 0.0
        sched = self.scheduler
        sig = sched.placement_signature(self)
        if sig is None:
            return self._no_leap("no_signature")
        # The leap's length, and the check that set it.
        n = budget_ticks
        bound = "budget"
        preempt_tick = sched.next_preemption_tick(self)
        if preempt_tick is not None and preempt_tick - self.tick_index < n:
            n = preempt_tick - self.tick_index
            bound = "preemption"
            if n < _MIN_BUSY_LEAP_TICKS:
                return self._no_leap("preemption")

        placement = self._placement_for(sig)
        freqs = self.governor.select_all(self._core_util)
        probed = (placement, freqs, None, None)
        if not placement:
            return self._no_leap("empty", probed)
        pattern = self._remembered_pattern(placement, freqs)
        outcome = _PATTERN_HIT
        if pattern is None:
            # A stateful model (horizon 0) must be screened *before* its
            # perf() is called — the call itself would mutate it.
            for pid in {tid.pid for tid in placement}:
                process = self.processes[pid]
                horizon = process.model.steady_work_horizon(process)
                if horizon is not None and horizon <= 0.0:
                    return self._no_leap("stateful", probed)
            pattern, outcome = self._evaluate_tick(placement, freqs)
        probed = (placement, freqs, pattern, outcome)
        procs, (package_power, core_util, stat_busy, stat_energy, acc_ops) = (
            pattern
        )
        # Frequency stability: the stretch utilization must reproduce the
        # stretch frequencies, else tick 2 would run at different clocks.
        # Exact dict equality is intended — any moved frequency breaks
        # bit parity.
        if self.governor.select_all(core_util) != freqs:
            return self._no_leap("governor", probed)

        # Every accumulator the replaced ticks add to, with its per-tick
        # increments in step()'s order: taken straight from the pattern's
        # per-process layout (work, CPU time per core type, instructions,
        # CPU time per pid), then the power kernel's ops, grouped by
        # target.  Multiple same-tick adds to one accumulator (one per
        # slot, one per core...) must not be pre-summed — float addition
        # does not re-associate.
        acc_meta: list[tuple] = []  # (is_attr, container, key)
        acc_incs: list[list[float]] = []
        instructions = self.perf._instructions
        cpu_time_of = self.perf._cpu_time
        pelt_threads: list[SimThread] = []
        pelt_gains: list[float] = []
        decay = _decay_for(dt)
        gain_scale = 1.0 - decay
        # (process, work_before, work_budget, rate_dt) overrun guards of
        # the guarded horizons, and (process, rate_dt, work_steps) of the
        # completions found exactly.
        guards: list[tuple] = []
        exact_guards: list[tuple] = []
        for process, rate_dt, finish_frac, ips, cpu_time, slots in procs:
            if finish_frac is not None:
                return self._no_leap("completion", probed, 1)
            work_budget = process.remaining_work()
            horizon = process.model.steady_work_horizon(process)
            phase = horizon is not None and horizon < work_budget
            if phase:
                work_budget = horizon
            k = ticks_until_work_expiry(work_budget, rate_dt)
            if k is not None and k < n and not phase:
                # The completion would bind: find its tick exactly.
                work_steps = work_before_completion(
                    process.work_done, process.model.total_work, rate_dt, n
                )
                if len(work_steps) < n:
                    n = len(work_steps)
                    bound = "work_expiry"
                    if n < _MIN_BUSY_LEAP_TICKS:
                        # Step up to and including the completion tick.
                        return self._no_leap("work_expiry", probed, n + 1)
                exact_guards.append((process, rate_dt, work_steps))
            elif k is not None:
                if k < n:  # only a phase boundary can bind here
                    n = k
                    bound = "phase"
                if n < _MIN_BUSY_LEAP_TICKS:
                    return self._no_leap("work_expiry", probed)
                guards.append((process, process.work_done, work_budget, rate_dt))
            acc_meta.append((True, process, "work_done"))
            acc_incs.append([rate_dt])
            slot_times: dict[str, list[float]] = {}
            for thread, act_share, core_type, slot_time in slots:
                pelt_threads.append(thread)
                pelt_gains.append(act_share * gain_scale)
                slot_times.setdefault(core_type, []).append(slot_time)
            cpu_by_type = process.cpu_time_by_type
            for core_type, times in slot_times.items():
                acc_meta.append((False, cpu_by_type, core_type))
                acc_incs.append(times)
            acc_meta.append((False, instructions, process.pid))
            acc_incs.append([ips * dt])
            acc_meta.append((False, cpu_time_of, process.pid))
            acc_incs.append([cpu_time])
        acc_index: dict[tuple[int, object], int] = {}
        for is_attr, container, key, inc in acc_ops:
            acc_key = (id(container), key)
            i = acc_index.get(acc_key)
            if i is None:
                acc_index[acc_key] = len(acc_meta)
                acc_meta.append((is_attr, container, key))
                acc_incs.append([inc])
            else:
                acc_incs[i].append(inc)

        # -- commit: replay n identical ticks ---------------------------------
        # Occurrence r of each accumulator's per-tick adds goes into round
        # r, and each round is one elementwise array add per tick
        # (IEEE-identical to the scalar sequence).  Round 0 holds every
        # accumulator; later rounds only those with more adds.
        vals = np.array(
            [
                getattr(container, key) if is_attr else container.get(key, 0.0)
                for is_attr, container, key in acc_meta
            ],
            dtype=float,
        )
        first_round = np.array([incs[0] for incs in acc_incs], dtype=float)
        later_rounds: list[tuple[np.ndarray, np.ndarray]] = []
        multi = [(i, incs) for i, incs in enumerate(acc_incs) if len(incs) > 1]
        r = 1
        while multi:
            later_rounds.append(
                (
                    np.array([i for i, _ in multi], dtype=int),
                    np.array([incs[r] for _, incs in multi], dtype=float),
                )
            )
            r += 1
            multi = [(i, incs) for i, incs in multi if len(incs) > r]
        # PELT: placed threads accumulate (u*decay + gain), everything
        # else in the decaying set just decays — both as elementwise
        # array updates replaying the scalar per-tick arithmetic.
        decaying = self._decaying
        placed_arr = np.array([t.utilization for t in pelt_threads], dtype=float)
        gains_arr = np.array(pelt_gains, dtype=float)
        idle_tids = [tid for tid in decaying if tid not in placement]
        idle_arr = (
            np.array([decaying[tid].utilization for tid in idle_tids], dtype=float)
            if idle_tids
            else None
        )
        for _ in range(n):
            vals += first_round
            for idx, inc in later_rounds:
                vals[idx] += inc
            placed_arr *= decay
            placed_arr += gains_arr
            if idle_arr is not None:
                idle_arr *= decay

        for (is_attr, container, key), value in zip(acc_meta, vals.tolist()):
            if is_attr:
                setattr(container, key, value)
            else:
                container[key] = value
        for thread, u in zip(pelt_threads, placed_arr.tolist()):
            thread.utilization = u
            if u != 0.0:  # harplint: disable=HL003 -- exact fixed point, not a tolerance check
                decaying[thread.tid] = thread
            else:
                decaying.pop(thread.tid, None)
        if idle_arr is not None:
            for tid, u in zip(idle_tids, idle_arr.tolist()):
                decaying[tid].utilization = u
                if u == 0.0:  # harplint: disable=HL003 -- underflow to the exact fixed point
                    del decaying[tid]

        for process, work_before, work_budget, rate_dt in guards:
            if process.work_done - work_before >= work_budget - 0.5 * rate_dt:
                raise RuntimeError(
                    "busy leap overran a work boundary for pid "
                    f"{process.pid} — expiry prediction bug"
                )
        # Exact: the leap committed the predicted work_done bit for bit,
        # and the last tick it replayed was not a completion tick.
        for process, rate_dt, work_steps in exact_guards:
            last_start = work_steps[n - 2]  # work_done before the last tick
            last_remaining = max(0.0, process.model.total_work - last_start)
            if (
                process.work_done != work_steps[n - 1]
                or rate_dt >= last_remaining
            ):
                raise RuntimeError(
                    "busy leap overran a completion for pid "
                    f"{process.pid} — completion prediction bug"
                )

        self.package_sensor.accumulate_constant(package_power, dt, n)
        self.last_stats = TickStats(
            (self.tick_index + n - 1) * dt, package_power, stat_busy, stat_energy
        )
        self.tick_index += n
        self._core_util = core_util

        if obs_on:
            handles = self._obs_hot()
            handles[1].inc(n)
            handles[2].observe(OBS.walltime() - t0_wall)
            if n > 1:  # the probe counted the first tick's placement
                handles[3].inc(n - 1)
            OBS.counter("sim.busy_leaps").inc()
            OBS.histogram(
                "sim.busy_leap_ticks", bounds=_BUSY_LEAP_TICKS_BUCKETS
            ).observe(n)
            OBS.counter("sim.busy_leap_bound", bound=bound).inc()
            OBS.counter("sim.busy_probe", result="leap").inc()
        return True

    def _no_leap(
        self,
        result: str,
        probed: tuple | None = None,
        backoff: int = _BUSY_LEAP_BACKOFF_TICKS,
    ) -> bool:
        """End a busy probe without leaping: count the vetoing check in
        ``sim.busy_probe{result}``, hand ``probed`` to the step, and skip
        probing for the next ``backoff`` ticks."""
        self._probed_tick = probed
        self._busy_backoff_until = self.tick_index + backoff
        if OBS.enabled:
            OBS.counter("sim.busy_probe", result=result).inc()
        return False


def make_world(
    platform: Platform,
    scheduler,
    engine: str = "tick",
    governor: Governor | None = None,
    tick_s: float = 0.01,
    seed: int | None = None,
    sensor_noise: float = 0.01,
    perf_noise: float = 0.02,
) -> World:
    """Build a world on the selected engine.

    ``engine="tick"`` is the fixed-tick reference implementation;
    ``engine="event"`` is the event-heap engine, bit-compatible on
    tick-equivalent scenarios and orders of magnitude faster when the
    machine has idle stretches.
    """
    if engine == "tick":
        cls: type[World] = World
    elif engine == "event":
        cls = EventWorld
    else:
        raise ValueError(f"unknown engine {engine!r} (want 'tick' or 'event')")
    return cls(
        platform,
        scheduler,
        governor=governor,
        tick_s=tick_s,
        seed=seed,
        sensor_noise=sensor_noise,
        perf_noise=perf_noise,
    )
