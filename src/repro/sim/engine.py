"""The discrete-time execution engine.

Advances a *world* — platform, governor, scheduler, sensors, and a set of
simulated processes — in fixed ticks (default 10 ms).  Each tick the
scheduler produces a thread→hardware-thread placement, application models
convert delivered core time into progress, and the power model integrates
package energy through the (noisy) sensors.

The engine computes ground truth; the HARP resource manager only ever
observes the same artifacts the paper's implementation gets from Linux:
perf instruction counters, RAPL-style package energy, and per-process CPU
time per core type.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.obs import OBS
from repro.platform.dvfs import Governor, PerformanceGovernor
from repro.platform.power import STATIC_FRACTION
from repro.platform.sensors import EnergySensor
from repro.platform.topology import Platform
from repro.sim.perf import PerfCounters
from repro.sim.process import SimProcess, SimThread, ThreadId, _decay_for


#: Indices of the ``sim.pattern_cache{result}`` counters in
#: :meth:`World._obs_hot`'s handle tuple.
_PATTERN_HIT, _PATTERN_MISS, _PATTERN_UNCACHEABLE = 5, 6, 7

#: The knobs snapshot of a process without knobs (shared, never mutated).
_NO_KNOBS: dict = {}


class ThreadSlot(NamedTuple):
    """What one application thread gets from the hardware this tick."""

    hw_thread_id: int
    core_id: int
    core_type: str
    speed: float
    share: float


class AppPerf(NamedTuple):
    """An application model's response to its thread slots.

    Attributes:
        rate: overall progress in work-units/s.
        activities: per-slot on-CPU fraction in [0, 1] (spinning counts as
            active; sleeping does not).
        ips: instructions/s the perf substrate should observe.
    """

    rate: float
    activities: list[float]
    ips: float


@dataclass
class TickStats:
    """Per-tick byproducts used by monitors and experiments."""

    time_s: float = 0.0
    package_power_w: float = 0.0
    busy_time_by_type: dict[str, float] = field(default_factory=dict)
    energy_by_type_j: dict[str, float] = field(default_factory=dict)


class World:
    """A complete simulated machine plus its workload.

    This is the fixed-tick reference engine: every tick costs one full
    pass of scheduler/app-model/power work regardless of whether anything
    is runnable.  :class:`repro.sim.event.EventWorld` subclasses it with
    an event heap that leaps over idle stretches; both present the same
    API (``spawn``/``kill``/``run_for``/callbacks) and are bit-compatible
    on tick-equivalent scenarios.
    """

    #: True on event-driven subclasses; listeners that need to be woken at
    #: a future tick must call :meth:`request_wakeup` when this is set.
    event_driven = False

    #: ``(placement, freqs, pattern or None, pattern_cache index)`` of a
    #: tick the event engine's busy-leap probe evaluated and did not leap;
    #: that tick's step uses it instead of evaluating the tick again.
    _probed_tick: tuple | None = None

    def __init__(
        self,
        platform: Platform,
        scheduler: "SchedulerProtocol",
        governor: Governor | None = None,
        tick_s: float = 0.01,
        seed: int | None = None,
        sensor_noise: float = 0.01,
        perf_noise: float = 0.02,
    ):
        if tick_s <= 0:
            raise ValueError("tick_s must be > 0")
        self.platform = platform
        self.scheduler = scheduler
        self.governor = governor or PerformanceGovernor(platform)
        self.tick_s = tick_s
        self.tick_index = 0  # the one sim clock; ``time_s`` derives from it
        self.package_sensor = EnergySensor(
            "package", noise_std=sensor_noise, seed=seed
        )
        self.perf = PerfCounters(noise_std=perf_noise, seed=None if seed is None else seed + 1)
        self.processes: dict[int, SimProcess] = {}
        self._running: dict[int, SimProcess] = {}
        self.on_process_start: list[Callable[[SimProcess], None]] = []
        self.on_process_exit: list[Callable[[SimProcess], None]] = []
        # Event listeners fire once per *advance* — every tick here, once
        # per leap boundary on the event engine.  Listeners with deadlines
        # (samples, epoch flushes, lease reaps, fault plans) must request
        # wakeups at their deadline ticks.
        self.on_event: list[Callable[["World"], None]] = []
        self.last_stats = TickStats()
        self.energy_by_type_j: dict[str, float] = {
            ct.name: 0.0 for ct in platform.core_types
        }
        self.busy_time_by_type_s: dict[str, float] = {
            ct.name: 0.0 for ct in platform.core_types
        }
        self._next_pid = 1
        self._core_util: dict[int, float] = {}
        # Per-tick runnable snapshot: one thread_demand call per live
        # process per tick, shared by the scheduler, the share computation
        # and the event engine's runnable probe.  Stamped by tick_index;
        # spawn/kill invalidate it explicitly.
        self._runnable_stamp = -1
        self._runnable_pairs: list[tuple[SimProcess, SimThread]] = []
        self._proc_demand: dict[int, float] = {}
        # Processes not declared sleeping via block(): only these are
        # probed for CPU demand each tick.  A caller who block()s a pid
        # asserts its thread_demand is (and stays) zero until unblock().
        self._awake: dict[int, SimProcess] = {}
        # Threads whose PELT average is nonzero and therefore still needs
        # per-tick decay.  Zero is an exact fixed point of the decay, so
        # threads outside this set can be skipped bit-identically — the
        # difference between O(live threads) and O(recently-active
        # threads) per tick at fleet scale.
        self._decaying: dict[ThreadId, SimThread] = {}
        self._hw_by_id = {t.thread_id: t for t in platform.hw_threads}
        self._hw_ids = [t.thread_id for t in platform.hw_threads]
        self._n_hw_threads = platform.n_hw_threads
        # Two-entry placement memory, keyed by the scheduler's signature:
        # ``_placement_sig``/``_placement_cache`` is the most recent entry,
        # ``_placement_prev`` the one before it.  And the matching tick-
        # pattern memory (:meth:`_remembered_pattern`), most recent first.
        # Both are cleared whenever a process exits or is killed.
        self._placement_sig: tuple | None = None
        self._placement_cache: dict[ThreadId, int] = {}
        self._placement_prev: tuple[tuple, dict[ThreadId, int]] | None = None
        self._patterns: list[tuple] = []
        # Static per-core arrays for the power kernel (:meth:`_power_tick`);
        # hw threads are grouped by core so per-core reductions are
        # reduceat segments.
        cores = platform.cores
        type_index = {ct.name: i for i, ct in enumerate(platform.core_types)}
        self._type_names = [ct.name for ct in platform.core_types]
        self._core_ids = [c.core_id for c in cores]
        self._core_row = {c.core_id: i for i, c in enumerate(cores)}
        self._core_type_idx = np.array(
            [type_index[c.core_type.name] for c in cores], dtype=int
        )
        self._core_idle_w = np.array(
            [c.core_type.idle_power_w for c in cores], dtype=float
        )
        self._core_active_w = np.array(
            [c.core_type.active_power_w for c in cores], dtype=float
        )
        self._core_smt_w = np.array(
            [c.core_type.smt_power_w for c in cores], dtype=float
        )
        self._core_max_freq = np.array(
            [c.core_type.max_freq_mhz for c in cores], dtype=float
        )
        self._core_nthreads = np.array(
            [len(c.hw_threads) for c in cores], dtype=float
        )
        self._hw_grouped = [
            t.thread_id for c in cores for t in c.hw_threads
        ]
        self._group_starts = np.concatenate(
            ([0], np.cumsum([len(c.hw_threads) for c in cores])[:-1])
        ).astype(int)
        # The most recently constructed world owns the telemetry clock:
        # event timestamps are its monotonic simulated time.
        OBS.set_clock(lambda: self.time_s)
        # Per-tick instrument handles, resolved lazily and invalidated by
        # registry resets — step() runs tens of thousands of times, so it
        # must not pay the name→instrument lookup on every tick.
        self._obs_handles: tuple | None = None

    @property
    def time_s(self) -> float:
        """Sim time at the current tick boundary: ``tick_index * tick_s``."""
        return self.tick_index * self.tick_s

    # -- workload management --------------------------------------------------

    def spawn(
        self,
        model,
        nthreads: int | None = None,
        affinity: frozenset[int] | None = None,
        managed: bool = False,
        daemon: bool = False,
    ) -> SimProcess:
        """Start a process running ``model`` and notify listeners."""
        if nthreads is None:
            nthreads = model.default_nthreads(self.platform)
        process = SimProcess(
            pid=self._next_pid,
            model=model,
            nthreads=nthreads,
            affinity=affinity,
            start_time_s=self.time_s,
            managed=managed,
            daemon=daemon,
        )
        self._next_pid += 1
        self.processes[process.pid] = process
        self._running[process.pid] = process
        self._awake[process.pid] = process
        self._runnable_stamp = -1
        if OBS.enabled:
            OBS.event(
                "process.start", track=f"app:{model.name}",
                pid=process.pid, name=model.name, nthreads=nthreads,
                daemon=daemon, managed=managed,
            )
        for callback in self.on_process_start:
            callback(process)
        return process

    def kill(self, pid: int, silent: bool = False) -> None:
        """Terminate a process immediately.

        ``silent=True`` models a crash: the process just stops consuming
        CPU and no exit notification reaches any listener — the RM has to
        discover the death through its liveness lease.  ``silent=False``
        is an orderly kill: exit callbacks fire exactly as they would on
        normal completion.
        """
        process = self.processes.get(pid)
        if process is None or process.finished:
            return
        process.finished = True
        process.crashed = silent
        process.finish_time_s = self.time_s
        self._running.pop(pid, None)
        self._awake.pop(pid, None)
        self._runnable_stamp = -1
        for thread in process.threads:
            self._decaying.pop(thread.tid, None)
        # A kill can race a placement-signature hit: a process whose demand
        # was already ~0 (a blocked daemon) leaves the signature unchanged,
        # so a remembered placement would be served without revalidation.
        self._clear_tick_memories()
        if OBS.enabled:
            OBS.event(
                "process.crash" if silent else "process.kill",
                track=f"app:{process.model.name}",
                pid=pid, name=process.model.name,
            )
        if not silent:
            for callback in process.on_finish:
                callback(process)
            for callback in self.on_process_exit:
                callback(process)

    def running_processes(self) -> list[SimProcess]:
        """Live processes, in spawn order.

        Backed by a dict that only ever holds unfinished processes, so the
        cost scales with the number of *live* apps, not every process ever
        spawned — the difference between O(fleet) and O(history) at tens
        of thousands of short-lived sessions.  The ``finished`` filter is
        kept for robustness against code flipping the flag directly.
        """
        return [p for p in self._running.values() if not p.finished]

    def runnable_pairs(self) -> list[tuple[SimProcess, SimThread]]:
        """This tick's runnable (process, thread) pairs, computed once.

        One pass over the live processes per boundary: each process's
        ``thread_demand`` is evaluated exactly once and the per-process
        values are kept for the share computation, so a tick costs one
        demand call per live app instead of one per consumer.  Pairs come
        out in spawn order, which is ascending-pid order (pids are never
        reused).  The snapshot is stamped with ``tick_index``;
        spawn/kill invalidate it immediately, and listener callbacks run
        after the tick index advances, so demand changes they make are
        picked up at the next boundary.
        """
        if self._runnable_stamp == self.tick_index:
            return self._runnable_pairs
        pairs: list[tuple[SimProcess, SimThread]] = []
        proc_demand: dict[int, float] = {}
        awake = self._awake
        for pid in sorted(awake) if len(awake) > 1 else awake:
            process = awake[pid]
            if process.finished:
                continue
            d = process.model.thread_demand(process)
            proc_demand[pid] = d
            if d <= 1e-6:
                continue
            for thread in process.threads:
                pairs.append((process, thread))
        self._proc_demand = proc_demand
        self._runnable_pairs = pairs
        self._runnable_stamp = self.tick_index
        return pairs

    def block(self, pid: int) -> None:
        """Declare a live process sleeping: skip its per-tick demand probe.

        This is a pure scan-skip hint for fleet-scale drivers — the
        caller asserts the process's ``thread_demand`` is zero and stays
        zero until :meth:`unblock`.  Identical on both engines, so it
        never affects tick/event parity.  Blocked processes still exist,
        still decay their PELT averages, and are still killable.
        """
        if pid in self._running:
            self._awake.pop(pid, None)
            self._runnable_stamp = -1

    def unblock(self, pid: int) -> None:
        """Undo :meth:`block`: the process is probed for demand again."""
        process = self._running.get(pid)
        if process is not None:
            self._awake[pid] = process
            self._runnable_stamp = -1

    def request_wakeup(self, tick: int, kind: object = None) -> None:
        """Ask to be advanced at tick ``tick`` (event engine only).

        The fixed-tick engine visits every tick anyway, so this is a
        no-op here; :class:`repro.sim.event.EventWorld` overrides it.
        Callbacks on :attr:`on_event` must route all timed work through
        wakeups so the same code runs unchanged on both engines; a
        deadline given in seconds is converted once with :meth:`ticks_in`.
        """

    def _obs_hot(self) -> tuple:
        """Cached handles for the per-tick instruments (hot path)."""
        handles = self._obs_handles
        if handles is None or handles[0] != OBS.generation:
            handles = self._obs_handles = (
                OBS.generation,
                OBS.counter("sim.ticks"),
                OBS.histogram("sim.tick_seconds"),
                OBS.counter("sim.placement_cache", result="hit"),
                OBS.counter("sim.placement_cache", result="miss"),
                OBS.counter("sim.pattern_cache", result="hit"),
                OBS.counter("sim.pattern_cache", result="miss"),
                OBS.counter("sim.pattern_cache", result="uncacheable"),
            )
        return handles

    # -- stepping ----------------------------------------------------------------

    def step(self) -> TickStats:
        """Advance the world by one tick.

        The tick's slot/perf/power evaluation (:meth:`_evaluate_tick`)
        yields a *pattern*: per placed process its ``rate·dt``, finish
        fraction, instructions, CPU time and per-slot
        ``(thread, activity·share, core_type, slot_time)``, plus the power
        kernel's outputs.  Applying a pattern performs every float op of
        the tick in one fixed order, so the world remembers its two most
        recent cacheable patterns and re-applies one — without calling
        ``perf()``, building slots or running the power kernel — while its
        key repeats.  The key (:meth:`_remembered_pattern`) is:

        * the placement, by identity: the placement memory hands out one
          dict per scheduler signature (runnable threads, affinities);
        * the frequency vector;
        * per placed process: its CPU demand, its ``threads_revision``
          (the identity of its ``SimThread`` objects) and a snapshot of
          its ``knobs``.

        A tick is evaluated afresh and not remembered when the scheduler
        has no placement signature (EAS), when a placed model's
        ``steady_work_horizon()`` is not ``None`` (phased models, the RM
        daemon), or when a placed process finishes on it (its exact
        ``finish_time_s`` comes from the fresh evaluation).  Both memories
        are cleared whenever a process exits or is killed, so they never
        retain finished processes.

        The event engine's busy-leap probe evaluates its tick the same
        way; when it does not leap, this step applies what the probe
        evaluated (:attr:`_probed_tick`) instead of evaluating it again.
        """
        obs_on = OBS.enabled
        t0_wall = OBS.walltime() if obs_on else 0.0
        dt = self.tick_s
        probed, self._probed_tick = self._probed_tick, None
        if probed is not None and self._runnable_stamp == self.tick_index:
            placement, freqs, pattern, outcome = probed
        else:
            self.runnable_pairs()  # refresh the per-tick demand snapshot
            placement = self._placement_for()
            freqs = self.governor.select_all(self._core_util)
            pattern = None
        if pattern is None:
            pattern = self._remembered_pattern(placement, freqs)
            outcome = _PATTERN_HIT
        if pattern is None:
            pattern, outcome = self._evaluate_tick(placement, freqs)
        procs, (package_power, core_util, stat_busy, stat_energy, acc_ops) = (
            pattern
        )

        decaying = self._decaying
        just_finished: list[SimProcess] = []
        for process, rate_dt, finish_frac, ips, cpu_time, slots in procs:
            if finish_frac is None:
                process.work_done += rate_dt
            else:
                process.work_done = process.model.total_work
                process.finished = True
                process.finish_time_s = self.time_s + dt * finish_frac
            cpu_by_type = process.cpu_time_by_type
            for thread, act_share, core_type, slot_time in slots:
                thread.update_utilization(act_share, dt)
                if thread.utilization != 0.0:  # harplint: disable=HL003 -- exact fixed point, not a tolerance check
                    decaying[thread.tid] = thread
                else:
                    decaying.pop(thread.tid, None)
                cpu_by_type[core_type] = (
                    cpu_by_type.get(core_type, 0.0) + slot_time
                )
            self.perf.accumulate(process.pid, ips, dt, cpu_time)
            if process.finished:
                just_finished.append(process)
                # A finished process's active_threads is empty: its PELT
                # averages freeze at their current values, exactly as the
                # full scan left them.
                for thread in process.threads:
                    decaying.pop(thread.tid, None)

        # Idle threads decay their PELT utilization.  Only threads whose
        # average is still nonzero need the update — zero is an exact
        # fixed point, and with zero activity the full update
        # ``u*decay + 0.0*(1-decay)`` is bitwise ``u*decay`` — so the
        # loop is one multiply per recently-active thread.  Exit events
        # (finish above, kill) prune their threads' entries; a thread
        # detached by ``set_nthreads`` keeps decaying its orphaned
        # ``SimThread`` object, which no observable state references.
        if decaying:
            decay = _decay_for(dt)
            drained: list[ThreadId] | None = None
            for tid, thread in decaying.items():
                if tid in placement:
                    continue  # updated in the slot loop above
                u = thread.utilization * decay
                thread.utilization = u
                if u == 0.0:  # harplint: disable=HL003 -- underflow to the exact fixed point
                    if drained is None:
                        drained = []
                    drained.append(tid)
            if drained:
                for tid in drained:
                    del decaying[tid]

        self._core_util = core_util
        for is_attr, container, key, inc in acc_ops:
            if is_attr:
                setattr(container, key, getattr(container, key) + inc)
            else:
                container[key] += inc
        stats = TickStats(
            self.time_s, package_power, dict(stat_busy), dict(stat_energy)
        )
        self.package_sensor.accumulate(package_power, dt)
        self.last_stats = stats

        # Completion notifications happen after accounting for the tick.
        self.tick_index += 1
        if just_finished:
            self._clear_tick_memories()
        for process in just_finished:
            self._running.pop(process.pid, None)
            self._awake.pop(process.pid, None)
        for process in just_finished:
            if obs_on:
                OBS.event(
                    "process.exit", track=f"app:{process.model.name}",
                    pid=process.pid, name=process.model.name,
                )
            for callback in process.on_finish:
                callback(process)
            for callback in self.on_process_exit:
                callback(process)
        for callback in self.on_event:
            callback(self)
        if obs_on:
            handles = self._obs_hot()
            handles[1].inc()
            handles[2].observe(OBS.walltime() - t0_wall)
            handles[outcome].inc()
        return stats

    def _evaluate_tick(
        self, placement: dict[ThreadId, int], freqs: dict[int, float]
    ) -> tuple[tuple, int]:
        """This tick's pattern, computed afresh; remembered when cacheable.

        The simulator's one slot loop, shared by :meth:`step` and the
        event engine's busy-leap probe.  Shares are demand-weighted: a
        thread that wants a sliver of CPU (the RM daemon) leaves the rest
        of the slice to its queue mates.  A slot's speed is the core
        type's per-thread speed at the core's frequency and busy-sibling
        count, scaled by the share.  Each placed process's ``perf()``
        response, in ascending pid order, becomes its accumulator
        increments; the per-slot busy fractions feed the power kernel.
        Nothing is mutated except what ``perf()`` itself mutates (a
        stateful model).  Returns the pattern and its
        ``sim.pattern_cache`` handle index; see :meth:`step` for the
        pattern layout and for which ticks are not remembered.
        """
        dt = self.tick_s
        proc_demand = self._proc_demand
        threads_on_hw: dict[int, list[ThreadId]] = {}
        for tid, hw_id in placement.items():
            threads_on_hw.setdefault(hw_id, []).append(tid)
        shares: dict[ThreadId, float] = {}
        busy_hw_per_core: dict[int, int] = {}
        for hw_id, tids in threads_on_hw.items():
            total = sum(proc_demand[tid.pid] for tid in tids)
            for tid in tids:
                d = proc_demand[tid.pid]
                if total <= 1.0:
                    shares[tid] = d if d > 0 else 0.0
                else:
                    shares[tid] = d / total
            core_id = self._hw_by_id[hw_id].core_id
            busy_hw_per_core[core_id] = busy_hw_per_core.get(core_id, 0) + 1

        busy_fraction: dict[int, float] = {}
        app_busy_on_core: dict[int, dict[int, float]] = {}
        procs: list[tuple] = []
        # Only a placement held by the placement memory can key a pattern.
        keys: list[tuple] | None = (
            [] if placement is self._placement_cache else None
        )
        for pid in sorted({tid.pid for tid in placement}):
            process = self.processes[pid]
            slots: list[ThreadSlot] = []
            slot_threads: list[SimThread] = []
            for thread in process.active_threads:
                hw_id = placement.get(thread.tid)
                if hw_id is None:
                    continue
                hw = self._hw_by_id[hw_id]
                share = shares[thread.tid]
                siblings = busy_hw_per_core[hw.core_id]
                speed = hw.core_type.thread_speed(
                    siblings, freqs.get(hw.core_id)
                ) * share
                slots.append(
                    ThreadSlot(hw_id, hw.core_id, hw.core_type.name, speed, share)
                )
                slot_threads.append(thread)
            if not slots:
                continue
            if (
                keys is not None
                and process.model.steady_work_horizon(process) is not None
            ):
                keys = None
            perf = process.model.perf(slots, process)
            rate_dt = perf.rate * dt
            remaining = process.remaining_work()
            frac = 1.0
            finish_frac = None
            if perf.rate > 0 and rate_dt >= remaining:
                frac = finish_frac = (
                    remaining / rate_dt if remaining > 0 else 0.0
                )
                keys = None
            cpu_time = 0.0
            slot_ops: list[tuple] = []
            for slot, thread, activity in zip(
                slots, slot_threads, perf.activities
            ):
                act_share = activity * slot.share
                used = act_share * frac
                busy_fraction[slot.hw_thread_id] = (
                    busy_fraction.get(slot.hw_thread_id, 0.0) + used
                )
                core_mix = app_busy_on_core.setdefault(slot.core_id, {})
                core_mix[pid] = core_mix.get(pid, 0.0) + used
                slot_time = used * dt
                cpu_time += slot_time
                slot_ops.append((thread, act_share, slot.core_type, slot_time))
            procs.append(
                (process, rate_dt, finish_frac, perf.ips * frac, cpu_time,
                 slot_ops)
            )
            if keys is not None:
                knobs = process.knobs
                keys.append(
                    (
                        process,
                        proc_demand[pid],
                        process.threads_revision,
                        copy.deepcopy(knobs) if knobs else _NO_KNOBS,
                        rate_dt if perf.rate > 0 else None,
                    )
                )
        power = self._power_tick(busy_fraction, app_busy_on_core, freqs)
        pattern = (procs, power)
        if keys is None:
            return pattern, _PATTERN_UNCACHEABLE
        entry = (placement, freqs, keys, pattern)
        self._patterns = [entry] + self._patterns[:1]
        return pattern, _PATTERN_MISS

    def _remembered_pattern(
        self, placement: dict[ThreadId, int], freqs: dict[int, float]
    ) -> tuple | None:
        """A remembered pattern whose key this tick repeats, or ``None``.

        A hit also requires that every placed model still reports no
        work horizon and that no placed process would finish this tick.
        The entry found becomes the most recent one.
        """
        patterns = self._patterns
        proc_demand = self._proc_demand
        for i, (e_placement, e_freqs, keys, pattern) in enumerate(patterns):
            if e_placement is not placement or e_freqs != freqs:
                continue
            for process, demand, revision, knobs, work_step in keys:
                if (
                    proc_demand.get(process.pid) != demand
                    or process.threads_revision != revision
                    or process.knobs != knobs
                ):
                    break
                if process.model.steady_work_horizon(process) is not None or (
                    work_step is not None
                    and work_step >= process.remaining_work()
                ):
                    return None
            else:
                if i:
                    patterns.insert(0, patterns.pop(i))
                return pattern
        return None

    def _clear_tick_memories(self) -> None:
        """Drop the placement and pattern memories (a process exited)."""
        self._placement_sig = None
        self._placement_cache = {}
        self._placement_prev = None
        self._patterns = []
        self._probed_tick = None

    def ticks_in(self, seconds: float) -> int:
        """Number of ticks covering ``seconds`` of sim time.

        The one seconds→tick conversion: a duration gives a tick count,
        an absolute sim time gives the first tick at or after it.  Every
        deadline is converted once, where it enters in seconds, and then
        compared against :attr:`tick_index` as an integer.  The ``1e-9``
        tick tolerance absorbs the rounding of ``seconds / tick_s`` for
        seconds that are a whole number of ticks (``0.07 / 0.01`` is
        ``7.000000000000001`` in floats).
        """
        if seconds <= 0:
            return 0
        return max(1, math.ceil(seconds / self.tick_s - 1e-9))

    def run_for(self, seconds: float) -> None:
        """Advance by a fixed duration."""
        for _ in range(self.ticks_in(seconds)):
            self.step()

    def run_until_all_finished(self, max_seconds: float | None = 10_000.0) -> float:
        """Run until every process finished; returns the makespan.

        The makespan is the latest finish time across processes, measured
        from time zero of the world.  Hitting ``max_seconds`` raises
        rather than silently truncating the scenario; pass
        ``max_seconds=None`` to opt into an unbounded run (e.g. a
        simulated hour of a 10k-session fleet).
        """
        max_ticks = None if max_seconds is None else self.ticks_in(max_seconds)
        while any(not p.daemon for p in self.running_processes()):
            if max_ticks is not None and self.tick_index > max_ticks:
                raise RuntimeError(
                    f"simulation exceeded {max_seconds}s without finishing"
                )
            self.step()
        finish_times = [
            p.finish_time_s
            for p in self.processes.values()
            if p.finish_time_s is not None
        ]
        return max(finish_times) if finish_times else self.time_s

    # -- helpers -----------------------------------------------------------------

    def _placement_for(self, sig: tuple | None = None) -> dict[ThreadId, int]:
        """This tick's placement, reusing a remembered one when possible.

        Schedulers exposing a placement signature (a pure function of
        runnable threads and affinity masks) are only invoked when the
        signature matches neither of the two remembered placements — so a
        world alternating between two thread sets (the RM daemon's
        one-tick burns) stops re-placing.  Remembered placements were
        validated when first computed.  ``sig`` is the signature when the
        caller already holds it (the busy-leap probe).
        """
        if not self._running:
            return {}
        if sig is None:
            sig = self.scheduler.placement_signature(self)
        if sig is not None:
            placement = self._remembered_placement(sig)
            if placement is not None:
                if OBS.enabled:
                    self._obs_hot()[3].inc()
                return placement
        placement = self.scheduler.place(self)
        self._validate_placement(placement)
        if sig is not None:
            self._remember_placement(sig, placement)
        if OBS.enabled:
            self._obs_hot()[4].inc()
        return placement

    def _remembered_placement(self, sig: tuple) -> dict[ThreadId, int] | None:
        """The remembered placement for ``sig`` (made most recent), or None."""
        if sig == self._placement_sig:
            return self._placement_cache
        prev = self._placement_prev
        if prev is None or prev[0] != sig:
            return None
        self._placement_prev = (self._placement_sig, self._placement_cache)
        self._placement_sig, self._placement_cache = prev
        return self._placement_cache

    def _remember_placement(
        self, sig: tuple, placement: dict[ThreadId, int]
    ) -> None:
        """Make ``(sig, placement)`` the most recent placement entry."""
        if self._placement_sig is not None:
            self._placement_prev = (self._placement_sig, self._placement_cache)
        self._placement_sig = sig
        self._placement_cache = placement

    def _power_tick(
        self,
        busy_fraction: dict[int, float],
        app_busy_on_core: dict[int, dict[int, float]],
        freqs: dict[int, float],
    ) -> tuple[float, dict[int, float], dict[str, float], dict[str, float], list]:
        """One tick of package power and energy, without mutating anything.

        The one power kernel of the simulator: :meth:`step` applies the
        returned accumulator ops once, the event engine's busy leap
        replays them once per leapt tick, and its idle leap derives its
        constants from a call with nothing busy.  Returns
        ``(package_power, core_util, stat_busy, stat_energy, acc_ops)``;
        each accumulator op is ``(is_attr, container, key, increment)``,
        one float add to ``container[key]`` (or the attribute), in the
        order the adds must happen for bit-identical accumulators.

        The formulas are those of :meth:`CorePowerModel.power_fractional`
        over arrays of cores: per-core busy fractions reduce to segment
        max/sum, and the cubic DVFS scale and the SMT increment apply
        elementwise.  Per-type sums come from one ``bincount`` each.  The
        sparse instruction-mix and energy-attribution corrections stay
        dict-driven; they touch only the cores that ran application work.
        Package-level superlinearity: VRM losses and current-dependent
        leakage make per-core active power rise slightly with total load,
        so package power is not a purely linear function of the
        allocation.
        """
        dt = self.tick_s
        load_ratio = (
            sum(busy_fraction.values()) / self._n_hw_threads
            if busy_fraction
            else 0.0
        )
        superlinear = 0.92 + 0.16 * load_ratio
        busy = np.zeros(len(self._hw_grouped))
        if busy_fraction:
            for pos, hw_id in enumerate(self._hw_grouped):
                frac = busy_fraction.get(hw_id)
                if frac is not None:
                    busy[pos] = frac if frac < 1.0 else 1.0
        fsum = np.add.reduceat(busy, self._group_starts)
        fmax = np.maximum.reduceat(busy, self._group_starts)
        freq = np.array([freqs[cid] for cid in self._core_ids], dtype=float)
        ratio = freq / self._core_max_freq
        scale = STATIC_FRACTION + (1.0 - STATIC_FRACTION) * ratio**3
        power = (
            self._core_idle_w
            + self._core_active_w * scale * fmax
            + self._core_smt_w * scale * (fsum - fmax)
        )
        # Instruction-mix effect: scale the active (above-idle) power by
        # the weighted power intensity of the applications on each core.
        intensity = np.ones(len(self._core_ids))
        for core_id, mix in app_busy_on_core.items():
            total_busy = sum(mix.values())
            if total_busy > 0:
                intensity[self._core_row[core_id]] = sum(
                    used * self.processes[pid].model.power_intensity
                    for pid, used in mix.items()
                ) / total_busy
        power = (
            self._core_idle_w
            + (power - self._core_idle_w) * intensity * superlinear
        )
        package_power = self.platform.uncore_power_w + float(power.sum())
        core_util = dict(
            zip(self._core_ids, (fsum / self._core_nthreads).tolist())
        )
        n_types = len(self._type_names)
        busy_by_type = np.bincount(
            self._core_type_idx, weights=fsum, minlength=n_types
        )
        energy_by_type = np.bincount(
            self._core_type_idx, weights=power, minlength=n_types
        )
        acc_ops: list[tuple] = []
        stat_busy: dict[str, float] = {}
        stat_energy: dict[str, float] = {}
        for name, b, e in zip(self._type_names, busy_by_type, energy_by_type):
            stat_busy[name] = stat_busy.get(name, 0.0) + b * dt
            acc_ops.append((False, self.busy_time_by_type_s, name, b * dt))
            stat_energy[name] = stat_energy.get(name, 0.0) + e * dt
            acc_ops.append((False, self.energy_by_type_j, name, e * dt))
        # Ground-truth dynamic-energy attribution for validation: weighted
        # by each application's actual power intensity, which the γ-based
        # attribution of Eq. 3 cannot observe.
        for core_id, contributions in app_busy_on_core.items():
            row = self._core_row[core_id]
            dynamic = float(power[row] - self._core_idle_w[row])
            if dynamic <= 0 or not contributions:
                continue
            weights = {
                pid: used * self.processes[pid].model.power_intensity
                for pid, used in contributions.items()
            }
            total_weight = sum(weights.values())
            if total_weight > 0:
                for pid, weight in weights.items():
                    acc_ops.append(
                        (
                            True,
                            self.processes[pid],
                            "energy_true_j",
                            dynamic * dt * weight / total_weight,
                        )
                    )
        return package_power, core_util, stat_busy, stat_energy, acc_ops

    def _validate_placement(self, placement: dict[ThreadId, int]) -> None:
        for tid, hw_id in placement.items():
            process = self.processes.get(tid.pid)
            if process is None or process.finished:
                raise ValueError(f"placement for unknown/finished process {tid}")
            if hw_id not in self._hw_by_id:
                raise ValueError(f"unknown hardware thread {hw_id}")
            if process.affinity is not None and hw_id not in process.affinity:
                raise ValueError(
                    f"thread {tid} placed outside its affinity mask"
                )

    def total_energy_j(self) -> float:
        """Noisy package energy since start (what RAPL would report)."""
        return self.package_sensor.read_energy_j()


class SchedulerProtocol:
    """Structural interface of schedulers (see sim.schedulers.base)."""

    def place(self, world: World) -> dict[ThreadId, int]:  # pragma: no cover
        raise NotImplementedError
