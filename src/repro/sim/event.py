"""The event-heap execution engine.

:class:`EventWorld` subclasses the fixed-tick :class:`~repro.sim.engine.World`
with a heap of wakeup ticks, the integer ticks its listeners asked to be
woken at (session wakeups, process arrivals, monitor samples, epoch
flushes, lease reaps, fault injections).  Whenever nothing is runnable
the engine *leaps* directly to the next wakeup's tick instead of
stepping through the interval — idle sim time costs (almost) zero
CPU.  Stable busy stretches leap too; their probe evaluates its tick on
``World``'s one path (placement and pattern memories,
``_evaluate_tick``), and a tick it does not leap is applied by
``step()`` without a second evaluation.  A leap is one bound and one
commit: its length is the earliest of the next wakeup, the
scheduler's next preemption and each placed process's next completion
or phase flip (both found exactly), and :meth:`EventWorld._commit`
applies ``n`` ticks of one tick pattern — a busy stretch's probed
pattern, or the idle pattern (no placed process, the power kernel with
nothing busy) for an idle leap.  Its ledger adds go through the same
apply as ``step()``'s: the tick's plan, tiled across the ``n`` ticks.

Bit-parity contract
-------------------
On tick-equivalent scenarios the event engine reproduces the tick engine
**bit for bit**: same ``tick_index`` and hence the same ``time_s`` (both
engines derive it as ``tick_index * tick_s``), same sensor energy (noise
draws are batched through ``default_rng``, which consumes the bitstream
identically to scalar draws), same accumulators (the commit applies
the tick's plan of ledger adds ``n`` times over, in order, never
pre-summed), and identical process completion order.  The scheduler
observes the same ticks too: the commit hands it its ``n`` ticks in one
:meth:`~repro.sim.schedulers.base.Scheduler.account` call, and EAS, the
one scheduler that keeps per-thread history (PELT), applies its update
once per tick.  The parity suite in ``tests/test_eventsim.py`` asserts
this across all four schedulers.

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
import math

import numpy as np

from repro.obs import OBS
from repro.platform.dvfs import Governor
from repro.platform.topology import Platform
from repro.sim.engine import (
    _PATTERN_HIT, _PATTERN_UNCACHEABLE, TickStats, World,
)
from repro.sim.process import (
    WORK_EXPIRY_GUARD_TICKS, ticks_until_work_expiry, work_before_completion,
)


#: A busy leap must replace at least this many ticks to pay for its
#: probe and commit; a probe that finds its pattern remembered evaluates
#: nothing, so the commit is its cost.
_MIN_BUSY_LEAP_TICKS = 2

#: A busy-leap probe screens a pattern of at least this many placed
#: processes for near completions with one array expression; below it,
#: building the arrays costs more than the scalar loop it saves.
_MIN_SCREENED_PROCS = 8

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
        # Pending wakeup ticks: a min-heap, and the same ticks as a set
        # so a repeated request costs no heap entry.
        self._heap: list[int] = []
        self._wakeup_ticks: set[int] = set()
        # The idle tick's pattern: no placed process, and the power kernel
        # with nothing busy — exactly what step() applies then.  Zero busy
        # fractions zero the DVFS term, so any frequencies do.
        idle_freqs = {
            c.core_id: c.core_type.max_freq_mhz for c in self.platform.cores
        }
        self._idle_pattern, _ = self._evaluate_tick({}, idle_freqs)

    # -- event heap --------------------------------------------------------------

    def request_wakeup(self, tick: int) -> None:
        """Guarantee the engine visits tick ``tick``.

        A tick at or before the current one is clamped to the next tick:
        the boundary being processed has already been reached.
        """
        tick = max(self.tick_index + 1, tick)
        if tick in self._wakeup_ticks:
            return
        self._wakeup_ticks.add(tick)
        heapq.heappush(self._heap, tick)

    def _drain_due(self) -> None:
        """Pop every wakeup at or before the current tick."""
        while self._heap and self._heap[0] <= self.tick_index:
            self._wakeup_ticks.discard(heapq.heappop(self._heap))

    # -- advancing ---------------------------------------------------------------

    def _advance_one(self, limit_tick: int) -> None:
        """Advance to the next boundary, never past ``limit_tick``.

        The tick budget to the next wakeup (or the limit) is leapt:
        via the idle leap when nothing is runnable, via the busy-stretch
        fast-forward when the runnable set is in a stable stretch.  A
        failed busy probe steps that tick, and the next boundary probes
        again (:meth:`_no_leap`).
        """
        runnable = self.runnable_pairs()
        next_tick = self._heap[0] if self._heap else None
        leap_to = limit_tick if next_tick is None else min(next_tick, limit_tick)
        budget = leap_to - self.tick_index
        if runnable:
            leapt = budget >= _MIN_BUSY_LEAP_TICKS and self._try_busy_leap(budget)
        elif budget > 1:
            self._leap(budget)
            leapt = True
        else:
            leapt = False
        if leapt:
            for callback in self.on_event:
                callback(self)
        else:
            self.step()
        self._drain_due()

    # perfbench/tracing.py looks entry points up with vars(owner)[attr].
    run_for = World.run_for
    run_until_all_finished = World.run_until_all_finished

    # -- the leaps ---------------------------------------------------------------

    def _leap(self, n: int) -> None:
        """Leap ``n`` fully idle ticks: commit the idle pattern.

        Precondition (enforced by :meth:`_advance_one`): no runnable
        thread, so each of the ``n`` ticks is the idle pattern taken at
        construction — no placed process, an empty placement — and
        :meth:`_commit` replays it as it replays a busy stretch.  The
        idle leap's own work is the placement-cache bookkeeping and the
        obs counters.
        """
        obs_on = OBS.enabled
        t0_wall = OBS.walltime() if obs_on else 0.0

        # Placement-cache bookkeeping: with live-but-sleeping processes the
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

        self._commit(n, self._idle_pattern)

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

    def _commit(self, n: int, pattern: tuple) -> None:
        """Apply ``n`` ticks of ``pattern`` at once.

        The one commit of both leaps.  Everything ``n`` calls of
        ``step()`` would have mutated is replayed bit-identically: the
        tick's plan of ledger adds (work, CPU time per core type,
        instructions, per-type busy time and energy, ground-truth
        attribution) through ``step()``'s apply, tiled across the ``n``
        ticks (:meth:`~repro.sim.engine.World._add_ticks`); the package
        sensor (batched noise draws), ``last_stats``, ``tick_index`` and
        the core utilization; and the scheduler observes the ``n`` ticks
        in one ``account`` call.  The caller guarantees that no replayed
        tick completes a process, flips its behaviour or burns a backlog.
        """
        dt = self.tick_s
        _, ran, plan, package_power, core_util, _ = pattern
        self._add_ticks(plan, n)
        self.scheduler.account(self, ran, n)

        self.package_sensor.accumulate_constant(package_power, dt, n)
        # Stats describe the final leapt tick, as step() would leave them.
        self.last_stats = TickStats(
            (self.tick_index + n - 1) * dt, package_power
        )
        self.tick_index += n
        self._core_util = core_util

    def _try_busy_leap(self, budget_ticks: int) -> bool:
        """Fast-forward a *stable busy stretch* of up to ``budget_ticks``.

        A stable stretch is an interval over which the runnable set, the
        thread→hardware placement, the core frequencies and every placed
        model's behaviour are provably unchanged, so one tick's
        scheduler/model/power evaluation (the *pattern*) holds for every
        tick in it, and :meth:`_commit` applies it.  The stretch ends at
        the earliest of: the caller's budget (next heap event / horizon),
        the scheduler's ``next_preemption_tick``, and each placed
        process's next completion or phase flip — the exact tick, from a
        scalar replay of its work adds
        (:func:`~repro.sim.process.work_before_completion`) that runs
        only when the guarded closed form
        (:func:`~repro.sim.process.ticks_until_work_expiry`) cannot rule
        the boundary out.  The leap stops on the tick before that
        boundary: the next probe leaps on in the new phase, or vetoes the
        completion tick, which is stepped.  On a remembered or cacheable
        pattern of at least :data:`_MIN_SCREENED_PROCS` processes, one
        array expression over the ledger applies the closed form to all
        of them first (:meth:`_expiry_candidates`), and only the
        processes it flags are scanned.  A committed leap counts the
        first of these checks, in that order, that set its length in
        ``sim.busy_leap_bound{bound=budget|preemption|work_expiry|phase}``
        (``work_expiry`` a completion, ``phase`` a phase flip) and its
        length in the ``sim.busy_leap_ticks`` histogram.

        The probe takes its placement and pattern exactly as ``step()``
        does (the memories, else :meth:`World._evaluate_tick`).
        Preconditions (enforced by :meth:`_advance_one`): something is
        runnable, budget ≥ 2.  Returns ``False`` if the scheduler has no
        signature (EAS), nothing is placed, the pattern burns a backlog
        (``stateful``: the RM daemon's demand moves on the next tick), a
        preemption, completion or phase flip is too close, or the
        frequencies are not a fixpoint of the pattern's utilization;
        what the probe evaluated is then applied by this tick's ``step()``,
        and the next tick is probed again — on a managed node, the tick
        after the daemon's burn or the governor's transient leaps.
        """
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
            pattern, outcome = self._evaluate_tick(placement, freqs)
        probed = (placement, freqs, pattern, outcome)
        procs, _, _, _, core_util, burns = pattern
        if burns:
            return self._no_leap("stateful", probed)
        # Frequency stability: the stretch utilization must reproduce the
        # stretch frequencies, else tick 2 would run at different clocks.
        # Exact dict equality is intended — any moved frequency breaks
        # bit parity.
        if self.governor.select_all(core_util) != freqs:
            return self._no_leap("governor", probed)

        # A remembered or cacheable pattern has no completion and no work
        # horizon; on a large one, one array screen finds the processes
        # whose completion might bind, and only those are scanned.
        candidates = procs
        if (
            outcome != _PATTERN_UNCACHEABLE
            and len(procs) >= _MIN_SCREENED_PROCS
        ):
            candidates = [procs[i] for i in self._expiry_candidates(procs, n)]
        # (process, rate_dt, horizon, work_steps) of every scanned process.
        scanned: list[tuple] = []
        for process, rate_dt, finish_frac in candidates:
            if finish_frac is not None:
                return self._no_leap("completion", probed)
            horizon = process.model.steady_work_horizon(process)
            if horizon is None:
                horizon = math.inf
            total_work = process.model.total_work
            k = ticks_until_work_expiry(
                min(total_work, horizon) - process.work_done, rate_dt
            )
            if k is None or k >= n:
                continue
            # The completion or the phase flip may bind: find its tick.
            work_steps = work_before_completion(
                process.work_done, total_work, horizon, rate_dt, n
            )
            if len(work_steps) < n:
                n = len(work_steps)
                if n < _MIN_BUSY_LEAP_TICKS:
                    # Step up to the boundary tick; its own probe steps a
                    # completion or leaps on in the new phase.
                    return self._no_leap("work_expiry", probed)
                bound = "phase" if work_steps[-1] >= horizon else "work_expiry"
            scanned.append((process, rate_dt, horizon, work_steps))

        self._commit(n, pattern)

        # Exact: the leap committed the scanned work_done bit for bit, and
        # the last tick it replayed neither completed the process nor
        # started in a new phase.
        for process, rate_dt, horizon, work_steps in scanned:
            last_start = work_steps[n - 2]  # work_done before the last tick
            if (
                process.work_done != work_steps[n - 1]
                or rate_dt >= max(0.0, process.model.total_work - last_start)
                or last_start >= horizon
            ):
                raise RuntimeError(
                    "busy leap overran a completion or phase flip for pid "
                    f"{process.pid} — work boundary prediction bug"
                )

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

    def _expiry_candidates(self, procs: list[tuple], n: int) -> list[int]:
        """Indices into ``procs`` (no completion, no work horizon) of the
        processes :func:`~repro.sim.process.ticks_until_work_expiry`
        does not clear for an ``n``-tick leap.

        The same test as the scalar loop's, on arrays: the budget
        ``total_work - work_done`` over ``rate·dt`` is one float division
        per process, and its whole ticks less the guard fall short of
        ``n`` exactly when the quotient itself is below ``n`` plus the
        guard.  A process without progress is never a candidate.
        """
        bases = np.array([p._base for p, _, _ in procs], dtype=np.intp)
        totals = np.array([p.model.total_work for p, _, _ in procs])
        rates = np.array([rate_dt for _, rate_dt, _ in procs])
        moving = rates > 0.0
        quotient = (totals - self._acc[bases]) / np.where(moving, rates, 1.0)
        return np.flatnonzero(
            moving & (quotient < n + WORK_EXPIRY_GUARD_TICKS)
        ).tolist()

    def _no_leap(self, result: str, probed: tuple | None = None) -> bool:
        """End a busy probe without leaping: count the vetoing check in
        ``sim.busy_probe{result}`` and hand ``probed`` to this tick's
        step.  The next boundary probes again: a failed probe costs that
        step nothing, since it applies what the probe evaluated."""
        self._probed_tick = probed
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
        platform, scheduler, governor=governor, tick_s=tick_s, seed=seed,
        sensor_noise=sensor_noise, perf_noise=perf_noise,
    )
