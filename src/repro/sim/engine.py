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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.obs import OBS
from repro.platform.dvfs import Governor, PerformanceGovernor
from repro.platform.power import STATIC_FRACTION
from repro.platform.sensors import EnergySensor
from repro.platform.topology import Platform
from repro.sim.perf import PerfCounters
from repro.sim.process import (
    CPU_TIME, ENERGY_TRUE_J, INSTRUCTIONS, SimProcess, SimThread, ThreadId,
)
from repro.sim.schedulers.base import Scheduler


#: Indices of the ``sim.pattern_cache{result}`` counters in
#: :meth:`World._obs_hot`'s handle tuple.
_PATTERN_HIT, _PATTERN_MISS, _PATTERN_UNCACHEABLE = 5, 6, 7

#: Tick patterns remembered: steady, RM daemon burn, governor transient.
_PATTERN_ENTRIES = 3

#: The knobs snapshot of a process without knobs (shared, never mutated).
_NO_KNOBS: dict = {}

#: Ledger adds per ``np.add.at`` call when a plan is applied for many
#: ticks at once (:meth:`World._add_ticks`): bounds the tiled index and
#: increment arrays to a megabyte.
_ADDS_PER_CHUNK = 1 << 16

#: Fewer ticks than this are applied one ``np.add.at`` per tick: tiling
#: a plan costs about as much as seven such calls.
_MIN_TILED_TICKS = 8

#: Process blocks the ledger holds before its first growth.
_LEDGER_BLOCKS = 8


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


class _Fragment(NamedTuple):
    """One placed process's part of a fresh tick evaluation.

    :meth:`World._evaluate_tick` keeps each slot-pure process's last
    fragment and reuses it whole while the process is clean.  Its inputs
    and ``perf()`` response (the first five fields) also serve as the
    process's ``perf()`` memory.  A fragment built on a tick the process
    finished has its adds scaled by the finish fraction and ``key``
    ``None``, and is never reused.
    """

    demand: float
    revision: int
    knobs: dict | None
    slots: tuple[ThreadSlot, ...]
    perf: AppPerf
    #: The tick's ledger adds (work, CPU time per slot, instructions).
    idx: list[int]
    inc: list[float]
    #: ``(hw thread, activity·share)`` per slot, for the busy fractions.
    busy: list[tuple[int, float]]
    #: Core → summed activity·share, in first-use order, for the power
    #: kernel's per-core application mix.
    core_busy: dict[int, float]
    ran: list[tuple[SimThread, float]]
    #: The process's pattern entries: ``procs`` and the pattern key.
    proc: tuple
    key: tuple | None


@dataclass
class TickStats:
    """The last tick's start time and package power (traces read them)."""

    time_s: float = 0.0
    package_power_w: float = 0.0


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
        scheduler: Scheduler,
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
        self.perf.processes = self.processes
        self._running: dict[int, SimProcess] = {}
        self.on_process_start: list[Callable[[SimProcess], None]] = []
        self.on_process_exit: list[Callable[[SimProcess], None]] = []
        # Event listeners fire once per *advance* — every tick here, once
        # per leap boundary on the event engine.  Listeners with deadlines
        # (samples, epoch flushes, lease reaps, fault plans) must request
        # wakeups at their deadline ticks.
        self.on_event: list[Callable[["World"], None]] = []
        self.last_stats = TickStats()
        # The accumulator ledger: busy seconds and then energy per core
        # type, then one block per spawned process (layout in
        # repro.sim.process), allocated by spawn().  It grows by doubling,
        # so it is only ever read through ``self._acc``.
        self._type_names = [ct.name for ct in platform.core_types]
        n_types = len(self._type_names)
        self._block = CPU_TIME + n_types
        self._acc_used = 2 * n_types
        self._acc = np.zeros(self._acc_used + _LEDGER_BLOCKS * self._block)
        self._cpu_offset = {n: CPU_TIME + i for i, n in enumerate(self._type_names)}
        self._next_pid = 1
        self._core_util: dict[int, float] = {}
        # The runnable set: live processes whose published demand
        # (set_demand) is above 1e-6.  Its (process, thread) pairs are
        # rebuilt on first use after the set or a member's thread list
        # changes (``None`` until then).
        self._runnable: dict[int, SimProcess] = {}
        self._runnable_pairs: list[tuple[SimProcess, SimThread]] | None = []
        self._hw_by_id = {t.thread_id: t for t in platform.hw_threads}
        self._hw_core = {t.thread_id: t.core_id for t in platform.hw_threads}
        self._hw_ids = [t.thread_id for t in platform.hw_threads]
        self._n_hw_threads = platform.n_hw_threads
        # Two-entry placement memory, keyed by the scheduler's signature:
        # ``_placement_sig``/``_placement_cache`` is the most recent entry,
        # ``_placement_prev`` the one before it.  And the tick-pattern
        # memory (:meth:`_remembered_pattern`), most recent first.
        # Both are cleared whenever a process exits or is killed.
        self._placement_sig: tuple | None = None
        self._placement_cache: dict[ThreadId, int] = {}
        self._placement_prev: tuple[tuple, dict[ThreadId, int]] | None = None
        self._patterns: list[tuple] = []
        # Per-process memory of fresh evaluations (:meth:`_evaluate_tick`):
        # pid → the _Fragment of its last evaluation as a slot-pure model.
        # A process's entry is dropped when it finishes or is killed.
        self._perf_memo: dict[int, _Fragment] = {}
        # The inputs of the last fresh evaluation, which the next one
        # diffs to find its dirty processes: (placement, demand per hw
        # thread, busy siblings per core, frequencies, pids whose
        # fragment they produced).
        self._last_eval: tuple = ({}, {}, {}, {}, frozenset())
        # Static per-core arrays for the power kernel (:meth:`_power_tick`);
        # hw threads are grouped by core so per-core reductions are
        # reduceat segments.
        cores = platform.cores
        type_index = {ct.name: i for i, ct in enumerate(platform.core_types)}
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
        # The DVFS power scale of the last frequencies dict the kernel got.
        self._freq_scale: tuple | None = None
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

    @property
    def busy_time_by_type_s(self) -> dict[str, float]:
        """Busy CPU seconds per core type since start (a fresh dict)."""
        n = len(self._type_names)
        return dict(zip(self._type_names, self._acc[:n].tolist()))

    @property
    def energy_by_type_j(self) -> dict[str, float]:
        """Ground-truth energy per core type since start (a fresh dict)."""
        n = len(self._type_names)
        return dict(zip(self._type_names, self._acc[n:2 * n].tolist()))

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
        process._owner, process._base = self, self._acc_used
        self._acc_used += self._block
        if self._acc_used > len(self._acc):
            self._acc = np.concatenate((self._acc, np.zeros_like(self._acc)))
        self.processes[process.pid] = process
        self._running[process.pid] = process
        self._runnable[process.pid] = process
        self._runnable_pairs = self._probed_tick = None
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
        self._retire(process)
        # A kill can race a placement-signature hit: a process whose demand
        # was already ~0 (an idle daemon) leaves the signature unchanged,
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
        """The runnable (process, thread) pairs, in ascending pid order.

        Rebuilt from the runnable set only after spawn, kill, finish or a
        demand write changed the set, or ``set_nthreads`` a thread list;
        otherwise the same list is returned, so no boundary loops over
        the live processes.  Pids are never reused, so pid order is
        spawn order.
        """
        pairs = self._runnable_pairs
        if pairs is None:
            pairs = self._runnable_pairs = [
                (process, thread)
                for _, process in sorted(self._runnable.items())
                for thread in process.threads
            ]
        return pairs

    def set_demand(self, process: SimProcess, demand: float) -> None:
        """Publish ``process``'s CPU demand per thread, in [0, 1].

        The one write of ``SimProcess.demand``, made at the event that
        changes it (a phase flip, an RM charge, a daemon burn).  A live
        process is runnable while its demand is above 1e-6; a finished
        or killed one never is.  A write also drops the busy-leap
        probe's hand-off, which was evaluated with the old demand.
        """
        process.demand = demand
        self._probed_tick = None
        pid = process.pid
        runnable = demand > 1e-6 and pid in self._running
        if runnable != (pid in self._runnable):
            if runnable:
                self._runnable[pid] = process
            else:
                del self._runnable[pid]
            self._runnable_pairs = None

    def _retire(self, process: SimProcess) -> None:
        """Drop a finished or killed process from the live bookkeeping."""
        self._running.pop(process.pid, None)
        self._perf_memo.pop(process.pid, None)
        if self._runnable.pop(process.pid, None) is not None:
            self._runnable_pairs = None

    def request_wakeup(self, tick: int) -> None:
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
        yields a *pattern* ``(procs, ran, plan, package_power,
        core_util, burns)``: per placed process ``(process, rate·dt,
        finish fraction or None)``; every placed thread's
        ``(thread, activity·share)``, which the scheduler's
        :meth:`~repro.sim.schedulers.base.Scheduler.account` observes;
        the *plan* ``(indices, increments)``, the tick's float adds to
        the ledger ``_acc`` in order, applied by one ``np.add.at``
        (:meth:`_add_ticks`; a finishing process's ``work_done`` is
        assigned instead); the power kernel's outputs; and the placed
        processes that burn a backlog (``ApplicationModel.burn``, the RM
        daemon), burned right after the apply.  Applying a pattern
        performs every float op of the tick in one fixed order, so the
        world remembers its :data:`_PATTERN_ENTRIES` most recent
        cacheable patterns and re-applies one — without calling
        ``perf()``, building slots or running the power kernel — while
        its key repeats.  The key (:meth:`_remembered_pattern`) is:

        * the placement, by identity: the placement memory hands out one
          dict per scheduler signature (runnable threads, affinities);
        * the frequency vector;
        * per placed process: its CPU demand, its ``threads_revision``
          (the identity of its ``SimThread`` objects) and a snapshot of
          its ``knobs``.

        A tick is evaluated afresh and not remembered when the scheduler
        has no placement signature (EAS), a placed model reports a work
        horizon (phased models), or a placed process finishes on it (its
        exact ``finish_time_s`` comes from the fresh evaluation).  Both
        memories are cleared whenever a process exits or is killed.  A
        fresh evaluation re-evaluates only the processes a state change
        touched (:meth:`_evaluate_tick`), and the governor answers a
        repeated utilization from its last choice (``select_all``).

        The event engine's busy-leap probe evaluates its tick the same
        way; when it does not leap, this step applies what the probe
        evaluated (:attr:`_probed_tick`) instead of evaluating it again.
        """
        obs_on = OBS.enabled
        t0_wall = OBS.walltime() if obs_on else 0.0
        dt = self.tick_s
        probed, self._probed_tick = self._probed_tick, None
        if probed is not None:
            placement, freqs, pattern, outcome = probed
        else:
            placement = self._placement_for()
            freqs = self.governor.select_all(self._core_util)
            pattern = None
        if pattern is None:
            pattern = self._remembered_pattern(placement, freqs)
            outcome = _PATTERN_HIT
        if pattern is None:
            pattern, outcome = self._evaluate_tick(placement, freqs)
        procs, ran, plan, package_power, core_util, burns = pattern

        self._add_ticks(plan, 1)
        for process in burns:
            self.set_demand(process, process.model.burn(process))
        just_finished: list[SimProcess] = []
        for process, _, finish_frac in procs:
            if finish_frac is not None:
                process.work_done = process.model.total_work
                process.finished = True
                process.finish_time_s = self.time_s + dt * finish_frac
                just_finished.append(process)
        self.scheduler.account(self, ran, 1)

        self._core_util = core_util
        stats = TickStats(self.time_s, package_power)
        self.package_sensor.accumulate(package_power, dt)
        self.last_stats = stats

        # Completion notifications happen after accounting for the tick.
        self.tick_index += 1
        if just_finished:
            self._clear_tick_memories()
        for process in just_finished:
            self._retire(process)
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
        response, in ascending pid order, becomes its ledger adds — work
        (none if it finishes), CPU time per slot, instructions — and the
        per-slot busy fractions feed the power kernel, which appends the
        per-type and attribution adds.  A fresh response reporting
        negative ``ips`` raises ``ValueError``.

        A state change re-evaluates only the processes it touched.  Each
        slot-pure process (no work horizon, see
        ``ApplicationModel.steady_work_horizon``) keeps the
        :class:`_Fragment` of its last evaluation in ``_perf_memo``: its
        slots, ``AppPerf``, the ledger adds of a tick it does not finish,
        its busy contributions and ``ran`` entries.  Against the inputs
        of the last fresh evaluation (``_last_eval``) a process is
        *dirty* when one of its threads moved, a hardware thread it runs
        on changed its total demand, one of its cores changed its
        busy-sibling count or frequency, its own demand,
        ``threads_revision`` or knobs changed, it reports a work horizon,
        or its fragment did not come from that evaluation.  A clean
        process that does not finish on the tick reuses its fragment
        without building slots.  Any other process builds its slots and
        a new fragment, and reuses its last ``perf()`` response while
        the slots, demand, revision and knobs equal the fragment's, so
        ``perf()`` runs exactly when they change.  Contributions are
        summed in pid order, so every float add keeps its order.  Only
        these memories are mutated.  Returns the pattern and its
        ``sim.pattern_cache`` handle index; see :meth:`step` for the
        pattern layout and for which ticks are not remembered.
        """
        dt = self.tick_s
        processes = self.processes
        hw_core = self._hw_core
        threads_on_hw: dict[int, list[ThreadId]] = {}
        for tid, hw_id in placement.items():
            threads_on_hw.setdefault(hw_id, []).append(tid)
        load: dict[int, float] = {}
        siblings: dict[int, int] = {}
        for hw_id, tids in threads_on_hw.items():
            load[hw_id] = sum([processes[tid.pid].demand for tid in tids])
            core_id = hw_core[hw_id]
            siblings[core_id] = siblings.get(core_id, 0) + 1

        # The dirty set: processes whose slot inputs moved since the last
        # fresh evaluation.
        last_placement, last_load, last_siblings, last_freqs, last_pids = (
            self._last_eval
        )
        dirty: set[int] = set()
        if placement is not last_placement:
            for tid, hw_id in placement.items():
                if last_placement.get(tid) != hw_id:
                    dirty.add(tid.pid)
            for tid in last_placement:
                if tid not in placement:
                    dirty.add(tid.pid)
        freqs_moved = freqs is not last_freqs
        for hw_id, tids in threads_on_hw.items():
            core_id = hw_core[hw_id]
            if (
                load[hw_id] != last_load.get(hw_id)
                or siblings[core_id] != last_siblings.get(core_id)
                or freqs_moved
                and freqs.get(core_id) != last_freqs.get(core_id)
            ):
                for tid in tids:
                    dirty.add(tid.pid)

        busy_fraction: dict[int, float] = {}
        app_busy_on_core: dict[int, dict[int, float]] = {}
        procs: list[tuple] = []
        ran: list[tuple[SimThread, float]] = []
        idx: list[int] = []
        inc: list[float] = []
        # Only a placement held by the placement memory can key a pattern.
        keys: list[tuple] | None = (
            [] if placement is self._placement_cache else None
        )
        perf_memo = self._perf_memo
        acc = self._acc  # perf() spawns nothing, so the ledger stays put
        cpu_offset = self._cpu_offset
        fresh_pids: set[int] = set()
        for pid in sorted({tid.pid for tid in placement}):
            process = processes[pid]
            model = process.model
            demand = process.demand
            horizon = model.steady_work_horizon(process)
            frag = perf_memo.get(pid)
            if (
                pid not in dirty
                and pid in last_pids
                and frag is not None
                and horizon is None
                and frag.demand == demand
                and frag.revision == process.threads_revision
                and frag.knobs == process.knobs
                and not (
                    frag.perf.rate > 0
                    and frag.proc[1] >= max(
                        0.0, model.total_work - acc.item(process._base)
                    )
                )
            ):
                # Clean, and not finishing: the fragment is this tick's part.
                fresh_pids.add(pid)
                for hw_id, used in frag.busy:
                    busy_fraction[hw_id] = busy_fraction.get(hw_id, 0.0) + used
            else:
                # Dirty, or finishing: build the fragment afresh.
                slots: list[ThreadSlot] = []
                slot_threads: list[SimThread] = []
                for thread in process.active_threads:
                    hw_id = placement.get(thread.tid)
                    if hw_id is None:
                        continue
                    hw = self._hw_by_id[hw_id]
                    total = load[hw_id]
                    if total <= 1.0:
                        share = demand if demand > 0 else 0.0
                    else:
                        share = demand / total
                    speed = hw.core_type.thread_speed(
                        siblings[hw.core_id], freqs.get(hw.core_id)
                    ) * share
                    slots.append(
                        ThreadSlot(hw_id, hw.core_id, hw.core_type.name, speed, share)
                    )
                    slot_threads.append(thread)
                if not slots:
                    continue
                slots_key = tuple(slots)
                revision = process.threads_revision
                if horizon is not None:
                    knobs = None
                    perf = model.perf(slots, process)
                elif (
                    # Slot-pure: perf() repeats while its slots, demand
                    # (shares alone can collide), threads and knobs repeat.
                    frag is not None
                    and frag.slots == slots_key
                    and frag.demand == demand
                    and frag.revision == revision
                    and frag.knobs == process.knobs
                ):
                    knobs, perf = frag.knobs, frag.perf
                else:
                    knobs = process.knobs
                    knobs = copy.deepcopy(knobs) if knobs else _NO_KNOBS
                    perf = model.perf(slots, process)
                if perf.ips < 0:
                    raise ValueError(f"negative instruction rate for pid {pid}")
                # The ledger adds: work (none on a finishing tick), CPU
                # time per slot, instructions; a finishing tick scales the
                # slots' busy time and the instructions by its fraction.
                base = process._base
                rate_dt = perf.rate * dt
                remaining = process.remaining_work()
                if perf.rate > 0 and rate_dt >= remaining:
                    finish_frac = remaining / rate_dt if remaining > 0 else 0.0
                    frac, f_idx, f_inc, key = finish_frac, [], [], None
                else:
                    finish_frac = None
                    frac, f_idx, f_inc = 1.0, [base], [rate_dt]
                    key = (
                        process, demand, revision, knobs,
                        rate_dt if perf.rate > 0 else None,
                    )
                busy: list[tuple[int, float]] = []
                core_busy: dict[int, float] = {}
                f_ran: list[tuple[SimThread, float]] = []
                for slot, thread, activity in zip(
                    slots, slot_threads, perf.activities
                ):
                    act_share = activity * slot.share
                    used = act_share * frac
                    hw_id = slot.hw_thread_id
                    busy.append((hw_id, used))
                    busy_fraction[hw_id] = busy_fraction.get(hw_id, 0.0) + used
                    core_busy[slot.core_id] = (
                        core_busy.get(slot.core_id, 0.0) + used
                    )
                    f_idx.append(base + cpu_offset[slot.core_type])
                    f_inc.append(used * dt)
                    f_ran.append((thread, act_share))
                f_idx.append(base + INSTRUCTIONS)
                f_inc.append(perf.ips * frac * dt)
                frag = _Fragment(
                    demand, revision, knobs, slots_key, perf, f_idx, f_inc,
                    busy, core_busy, f_ran, (process, rate_dt, finish_frac), key,
                )
                if horizon is None:
                    perf_memo[pid] = frag
                    if finish_frac is None:
                        fresh_pids.add(pid)
                else:
                    keys = None
            idx += frag.idx
            inc += frag.inc
            for core_id, used in frag.core_busy.items():
                core_mix = app_busy_on_core.get(core_id)
                if core_mix is None:
                    app_busy_on_core[core_id] = {pid: used}
                else:
                    core_mix[pid] = used
            ran += frag.ran
            procs.append(frag.proc)
            if keys is not None:
                if frag.key is None:
                    keys = None  # a completion
                else:
                    keys.append(frag.key)
        self._last_eval = (placement, load, siblings, freqs, fresh_pids)
        package_power, core_util = self._power_tick(
            busy_fraction, app_busy_on_core, freqs, idx, inc
        )
        plan = (np.array(idx, dtype=np.intp), np.array(inc, dtype=float))
        burns = [p for p, _, _ in procs if p.model.burns_backlog]
        pattern = (procs, ran, plan, package_power, core_util, burns)
        if keys is None:
            return pattern, _PATTERN_UNCACHEABLE
        entry = (placement, freqs, keys, pattern)
        self._patterns = [entry] + self._patterns[:_PATTERN_ENTRIES - 1]
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
        for i, (e_placement, e_freqs, keys, pattern) in enumerate(patterns):
            if e_placement is not placement or (
                e_freqs is not freqs and e_freqs != freqs
            ):
                continue
            for process, demand, revision, knobs, work_step in keys:
                if (
                    process.demand != demand
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

    def _add_ticks(self, plan: tuple[np.ndarray, np.ndarray], n: int) -> None:
        """Apply ``n`` ticks of ``plan`` to the ledger, in tick order.

        The one apply path of :meth:`step` (``n == 1``) and the event
        engine's leap commit.  ``np.add.at`` performs repeated indices one
        by one in order, so the plan, tiled across the ticks, adds exactly
        what ``n`` sequential ticks add; chunks of at most
        :data:`_ADDS_PER_CHUNK` adds bound the tiled arrays, and fewer
        than :data:`_MIN_TILED_TICKS` ticks are applied one by one.
        """
        idx, inc = plan
        if n < _MIN_TILED_TICKS:
            for _ in range(n):
                np.add.at(self._acc, idx, inc)
            return
        k = min(n, max(1, _ADDS_PER_CHUNK // max(1, len(idx))))
        tiled_idx, tiled_inc = np.tile(idx, k), np.tile(inc, k)
        for done in range(0, n, k):
            m = min(k, n - done) * len(idx)
            np.add.at(self._acc, tiled_idx[:m], tiled_inc[:m])

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

    def _advance_one(self, limit_tick: int) -> None:
        """Advance to the next boundary, never past ``limit_tick``: here
        one :meth:`step`; the event engine may leap several ticks."""
        self.step()

    def run_for(self, seconds: float) -> None:
        """Advance by a fixed duration."""
        target = self.tick_index + self.ticks_in(seconds)
        while self.tick_index < target:
            self._advance_one(target)

    def run_until_all_finished(self, max_seconds: float | None = 10_000.0) -> float:
        """Run until every process finished; returns the makespan.

        The makespan is the latest finish time across processes, measured
        from time zero of the world.  Hitting ``max_seconds`` raises
        rather than silently truncating the scenario; pass
        ``max_seconds=None`` to opt into an unbounded run (e.g. a
        simulated hour of a 10k-session fleet), which advances in
        hour-sized windows until the workload drains.
        """
        max_ticks = None if max_seconds is None else self.ticks_in(max_seconds)
        while any(not p.daemon for p in self.running_processes()):
            if max_ticks is not None and self.tick_index > max_ticks:
                raise RuntimeError(
                    f"simulation exceeded {max_seconds}s without finishing"
                )
            self._advance_one(
                self.tick_index + 360_000 if max_ticks is None else max_ticks + 1
            )
        return max(
            (p.finish_time_s for p in self.processes.values()
             if p.finish_time_s is not None),
            default=self.time_s,
        )

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
        idx: list[int],
        inc: list[float],
    ) -> tuple[float, dict[int, float]]:
        """One tick of package power and energy, without mutating the world.

        The one power kernel of the simulator.  Appends the tick's ledger
        adds to ``idx`` (ledger index) and ``inc`` (increment): busy
        seconds and energy per core type, then each process's
        ground-truth energy share, in the order the adds must happen for
        bit-identical accumulators.  :meth:`step` applies them once as
        part of the tick's plan, and the event engine's leaps once per
        leapt tick (an idle leap those of a call with nothing busy).
        Returns ``(package_power, core_util)``.

        The formulas are those of :meth:`CorePowerModel.power_fractional`
        over arrays of cores: per-core busy fractions reduce to segment
        max/sum, and the cubic DVFS scale and the SMT increment apply
        elementwise, and the DVFS scale is kept for the frequencies dict
        it was computed from (the governor hands out one dict while its
        choice repeats).  Per-type sums come from one ``bincount`` each.
        The sparse instruction-mix and energy-attribution corrections stay
        dict-driven and touch only the cores that ran application work:
        one pass over ``app_busy_on_core`` computes each process's
        weight, which sets the core's intensity and later splits its
        dynamic energy.
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
        remembered = self._freq_scale
        if remembered is not None and remembered[0] is freqs:
            scale = remembered[1]
        else:
            freq = np.array([freqs[cid] for cid in self._core_ids], dtype=float)
            ratio = freq / self._core_max_freq
            scale = STATIC_FRACTION + (1.0 - STATIC_FRACTION) * ratio**3
            self._freq_scale = (freqs, scale)
        power = (
            self._core_idle_w
            + self._core_active_w * scale * fmax
            + self._core_smt_w * scale * (fsum - fmax)
        )
        # Instruction-mix effect: scale the active (above-idle) power by
        # the weighted power intensity of the applications on each core.
        # The same weights split each core's dynamic energy below.
        intensity = np.ones(len(self._core_ids))
        mixes: list[tuple[int, list[SimProcess], list[float], float]] = []
        processes = self.processes
        for core_id, mix in app_busy_on_core.items():
            row = self._core_row[core_id]
            owners = [processes[pid] for pid in mix]
            weights = [
                used * p.model.power_intensity
                for p, used in zip(owners, mix.values())
            ]
            total_weight = sum(weights)
            total_busy = sum(mix.values())
            if total_busy > 0:
                intensity[row] = total_weight / total_busy
            mixes.append((row, owners, weights, total_weight))
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
        idx.extend(range(2 * n_types))
        inc.extend((busy_by_type * dt).tolist())
        inc.extend((energy_by_type * dt).tolist())
        # Ground-truth dynamic-energy attribution for validation: weighted
        # by each application's actual power intensity, which the γ-based
        # attribution of Eq. 3 cannot observe.
        if mixes:
            dynamic = (power - self._core_idle_w).tolist()
            for row, owners, weights, total_weight in mixes:
                if dynamic[row] > 0 and total_weight > 0:
                    dynamic_dt = dynamic[row] * dt
                    for process, weight in zip(owners, weights):
                        idx.append(process._base + ENERGY_TRUE_J)
                        inc.append(dynamic_dt * weight / total_weight)
        return package_power, core_util

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
