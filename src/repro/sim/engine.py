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
    """One placed process's part of a fresh tick evaluation, reused
    whole while the process is clean; its first five fields are its
    ``perf()`` memory.  One built on a tick the process finished, or
    for a model reporting a work horizon, has ``key`` ``None``."""

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
    #: Core → summed activity·share, for the per-core application mix.
    core_busy: dict[int, float]
    ran: list[tuple[SimThread, float]]
    #: The process's pattern entries: ``procs`` and the pattern key.
    proc: tuple
    key: tuple | None


class _Assembly:
    """The assembled state of a world's last fresh tick evaluation.

    :meth:`World._evaluate_tick` updates it where something changed: its
    placement and frequencies; per hw thread its threads in placement
    order (``on_hw``), total demand (``load``), busy fraction (``busy``)
    and least thread (``first``, whose order is the order of first use);
    busy siblings per core; placed pid → process and → fragment, in pid
    order, and the placed pids whose model may report a work horizon; each placed thread's activity·share (``used``); per core that
    ran application work its :meth:`World._mix_term` and least thread;
    the hw threads and cores in order of first use; and the busy
    fractions in ``_hw_grouped`` order, clamped at 1, and the mix
    intensities per core.  A new one is
    empty, and the next evaluation builds everything.
    """

    def __init__(self, n_hw_threads: int, n_cores: int) -> None:
        self.placement: dict[ThreadId, int] = {}
        self.freqs: dict[int, float] = {}
        self.on_hw: dict[int, list[ThreadId]] = {}
        self.load, self.busy, self.first, self.siblings = {}, {}, {}, {}
        self.placed: dict[int, SimProcess] = {}
        self.frags: dict[int, _Fragment] = {}
        self.used, self.terms, self.core_first = {}, {}, {}
        self.horizons: set[int] = set()
        self.hw_order, self.core_order = [], []
        self.busy_arr, self.intensity = np.zeros(n_hw_threads), np.ones(n_cores)


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

    Memories, each with the one set of events that invalidates it:
    the runnable pairs and the CFS/ITD signatures kept per pairs list —
    spawn, kill, finish, a demand write crossing 1e-6, ``set_nthreads``,
    ``set_affinity``; the placement memory — any exit or kill (else keyed
    by signature); the tick-pattern memory — any exit or kill (else keyed
    by placement, frequencies and each placed process's demand, thread
    list and knobs, and never served across a horizon or completion);
    the probed tick — spawn, kill, exit, a demand write; the fragments
    and the :class:`_Assembly` — the placement diff, the demand and
    thread-list writes since the last evaluation (``_dirty``), moved
    frequencies, knob changes, horizons and completions; the governor's
    choice — a new utilization dict, ``set_cap``, ``clear_caps``; CFS's
    fill order — another platform.
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
        # Pids whose demand or thread list was written since the last
        # fresh evaluation, and that evaluation's assembly.
        self._dirty: set[int] = set()
        self._asm = _Assembly(platform.n_hw_threads, len(platform.cores))
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
        self._hw_pos = {hw_id: i for i, hw_id in enumerate(self._hw_grouped)}
        self._core_hws = {
            c.core_id: [t.thread_id for t in c.hw_threads] for c in cores
        }
        # The DVFS-scaled active and SMT powers of the last frequencies
        # dict the kernel got.
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
        self._dirty.add(pid)
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
        exact ``finish_time_s`` comes from the fresh evaluation).  A
        fresh evaluation rebuilds only what a state change touched
        (:meth:`_evaluate_tick`).

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
        response becomes its :class:`_Fragment`: its ledger adds — work
        (none if it finishes), CPU time per slot, instructions — its
        per-slot busy fractions and its per-core mix, which the power
        kernel turns into the per-type and attribution adds.  A fresh
        response reporting negative ``ips`` raises ``ValueError``.

        The evaluation updates the :class:`_Assembly` of the last one
        where something changed.  A process is *dirty* when one of its
        threads moved, joined or left (found on the hw threads whose
        thread list changed), a hw thread it runs on changed its total
        demand, one of its cores changed its busy-sibling count or
        frequency, its demand or thread list was written, its knobs
        differ from its fragment's, it reports a work horizon, its
        fragment is not from the last evaluation, or it finishes on this
        tick (:meth:`_finishing`).  Only dirty processes build a new
        fragment, reusing their last ``perf()`` response while the slots,
        demand, revision and knobs repeat.  Only the hw threads and cores
        whose threads moved or whose busy fractions a new fragment
        changed are re-summed, each in pid order, and the kernel takes
        them in order of first use, as a pass over all processes in pid
        order would: every float add keeps its order.  Returns the
        pattern and its ``sim.pattern_cache`` handle index (see
        :meth:`step`).
        """
        dt = self.tick_s
        processes, hw_core, core_hws = self.processes, self._hw_core, self._core_hws
        asm, memo = self._asm, self._perf_memo
        on_hw, load, siblings = asm.on_hw, asm.load, asm.siblings
        used, frags = asm.used, asm.frags
        marked, self._dirty = self._dirty, set()
        dirty = set(marked)

        def on_cores(cores) -> list[int]:
            return [t.pid for c in cores for h in core_hws[c] for t in on_hw.get(h, ())]

        # The hw threads whose thread list changed, and whose threads moved.
        moved: set[int] = set()
        last = asm.placement
        if placement is not last:
            new_on_hw: dict[int, list[ThreadId]] = {}
            for tid, hw_id in placement.items():
                new_on_hw.setdefault(hw_id, []).append(tid)
            moved = {
                h for h in new_on_hw.keys() | on_hw.keys()
                if new_on_hw.get(h) != on_hw.get(h)
            }
            for hw_id in moved:
                dirty.update([
                    t.pid for t in new_on_hw.get(hw_id, ()) if last.get(t) != hw_id
                ])
                for tid in on_hw.get(hw_id, ()):
                    if tid not in placement:
                        dirty.add(tid.pid)
                        used.pop(tid, None)
            asm.on_hw = on_hw = new_on_hw
            if placement.keys() != last.keys():
                from repro.apps.base import ApplicationModel  # import cycle
                asm.placed = {
                    pid: processes[pid]
                    for pid in sorted({tid.pid for tid in placement})
                }
                asm.horizons = {
                    pid for pid, p in asm.placed.items()
                    if type(p.model).steady_work_horizon
                    is not ApplicationModel.steady_work_horizon
                }
            asm.placement = placement
        placed, horizons = asm.placed, asm.horizons
        # Total demand per hw thread, busy siblings per core, frequencies.
        resum = set(moved)
        for pid in marked & placed.keys():
            resum.update([
                placement[t.tid] for t in placed[pid].threads if t.tid in placement
            ])
        for hw_id in resum:
            tids = on_hw.get(hw_id)
            if tids is None:
                load.pop(hw_id, None)
                continue
            total = sum([processes[tid.pid].demand for tid in tids])
            if total != load.get(hw_id):
                load[hw_id] = total
                dirty.update([tid.pid for tid in tids])
        for core_id in {hw_core[h] for h in moved}:
            count = len([h for h in core_hws[core_id] if h in on_hw])
            if count != siblings.get(core_id, 0):
                siblings[core_id] = count
                dirty.update(on_cores((core_id,)))
        if freqs is not asm.freqs:
            dirty.update(on_cores([
                c for c in siblings if freqs.get(c) != asm.freqs.get(c)
            ]))
            asm.freqs = freqs
        # The clean processes, unless they finish on this tick.  Knob
        # writes and work horizons reach no event: the same pass checks
        # them.
        reuse = {
            pid: frag for pid, p in placed.items()
            if pid not in dirty and (frag := memo.get(pid)) is not None
            and frag is frags.get(pid) and frag.key is not None
            and frag.knobs == p.knobs
            and (pid not in horizons or p.model.steady_work_horizon(p) is None)
        }
        for process in self._finishing([frag.key for frag in reuse.values()]):
            del reuse[process.pid]

        hws, cores = set(moved), {hw_core[h] for h in moved}
        cacheable = placement is self._placement_cache
        cpu_offset = self._cpu_offset
        for pid in sorted(placed.keys() - reuse.keys()):
            process = placed[pid]
            model, demand = process.model, process.demand
            horizon = model.steady_work_horizon(process)
            frag = memo.get(pid)
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
                key = None if horizon is not None else (
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
                used[thread.tid] = u = act_share * frac
                busy.append((slot.hw_thread_id, u))
                core_busy[slot.core_id] = core_busy.get(slot.core_id, 0.0) + u
                f_idx.append(base + cpu_offset[slot.core_type])
                f_inc.append(u * dt)
                f_ran.append((thread, act_share))
            f_idx.append(base + INSTRUCTIONS)
            f_inc.append(perf.ips * frac * dt)
            # A hw thread or core whose threads did not move changes its
            # sums only where this fragment's busy fractions changed.
            old = frags.get(pid)
            if old is None or old.busy != busy:
                hws.update([hw_id for hw_id, _ in busy])
            if old is None or old.core_busy != core_busy:
                cores.update(core_busy)
            reuse[pid] = frag = _Fragment(
                demand, revision, knobs, slots_key, perf, f_idx, f_inc, busy,
                core_busy, f_ran, (process, rate_dt, finish_frac), key,
            )
            if horizon is None:
                memo[pid] = frag
            cacheable = cacheable and key is not None
        asm.frags = frags = {pid: reuse[pid] for pid in placed}

        # Re-sum the touched hw threads' busy fractions and cores' mixes.
        busy_of, first, arr = asm.busy, asm.first, asm.busy_arr
        for hw_id in hws:
            tids = on_hw.get(hw_id)
            if tids is None:
                del busy_of[hw_id], first[hw_id]
                arr[self._hw_pos[hw_id]] = 0.0
                continue
            tids = sorted(tids)
            total = 0.0
            for tid in tids:
                total += used[tid]
            busy_of[hw_id], first[hw_id] = total, tids[0]
            arr[self._hw_pos[hw_id]] = total if total < 1.0 else 1.0
        for core_id in cores:
            tids = [t for h in core_hws[core_id] for t in on_hw.get(h, ())]
            if not tids:
                del asm.terms[core_id], asm.core_first[core_id]
                asm.intensity[self._core_row[core_id]] = 1.0
                continue
            pids = sorted({t.pid for t in tids})
            asm.core_first[core_id] = min(tids)
            asm.terms[core_id] = term = self._mix_term(
                core_id, [placed[pid] for pid in pids],
                [frags[pid].core_busy[core_id] for pid in pids],
            )
            asm.intensity[term[0]] = term[4]
        if moved:
            asm.hw_order = sorted(busy_of, key=first.__getitem__)
            asm.core_order = sorted(asm.terms, key=asm.core_first.__getitem__)

        fragments = frags.values()
        procs = [frag.proc for frag in fragments]
        ran = [entry for frag in fragments for entry in frag.ran]
        idx = [i for frag in fragments for i in frag.idx]
        inc = [x for frag in fragments for x in frag.inc]
        package_power, core_util = self._power_tick(
            arr, sum([busy_of[h] for h in asm.hw_order]), asm.intensity,
            [asm.terms[c] for c in asm.core_order], freqs, idx, inc,
        )
        plan = (np.array(idx, dtype=np.intp), np.array(inc, dtype=float))
        burns = [p for p in placed.values() if p.model.burns_backlog]
        pattern = (procs, ran, plan, package_power, core_util, burns)
        if not cacheable:
            return pattern, _PATTERN_UNCACHEABLE
        keys = [frag.key for frag in fragments]
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
            for process, demand, revision, knobs, _ in keys:
                if (
                    process.demand != demand
                    or process.threads_revision != revision
                    or process.knobs != knobs
                ):
                    break
                if process.model.steady_work_horizon(process) is not None:
                    return None
            else:
                if self._finishing(keys):
                    return None
                if i:
                    patterns.insert(0, patterns.pop(i))
                return pattern
        return None

    def _finishing(self, keys: list[tuple]) -> list[SimProcess]:
        """Processes of these pattern-key entries whose work step reaches
        their remaining work (the one completion test of remembered work)."""
        item = self._acc.item
        return [
            key[0] for key in keys if key[4] is not None
            and key[4] >= key[0].model.total_work - item(key[0]._base)
        ]

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

    def _mix_term(
        self, core_id: int, owners: list[SimProcess], used: list[float]
    ) -> tuple:
        """``(row, ledger indices, weights, total weight, intensity)`` of a
        core whose ``owners`` ran ``used`` on it: weight = used × intensity."""
        weights = [u * p.model.power_intensity for p, u in zip(owners, used)]
        total_weight = sum(weights)
        total_busy = sum(used)
        return (
            self._core_row[core_id],
            [p._base + ENERGY_TRUE_J for p in owners],
            weights,
            total_weight,
            total_weight / total_busy if total_busy > 0 else 1.0,
        )

    def _power_tick(
        self,
        busy: np.ndarray,
        total_busy: float,
        intensity: np.ndarray,
        mixes: list[tuple],
        freqs: dict[int, float],
        idx: list[int],
        inc: list[float],
    ) -> tuple[float, dict[int, float]]:
        """One tick of package power and energy, without mutating the world.

        The one power kernel of the simulator.  ``busy`` holds each hw
        thread's busy fraction in ``_hw_grouped`` order, clamped at 1,
        and ``total_busy`` their unclamped sum in order of first use;
        ``mixes`` holds the :meth:`_mix_term` of each core that ran
        application work, in order of first use, and ``intensity`` their
        intensities per core (1 elsewhere).  Appends the tick's ledger
        adds to ``idx`` and ``inc``: busy seconds and energy per core
        type, then each process's ground-truth energy share, in the order
        bit-identical accumulators need.  Returns ``(package_power,
        core_util)``.

        The formulas are those of :meth:`CorePowerModel.power_fractional`
        over arrays of cores: segment max/sum per core, the cubic DVFS
        scale (kept, with the active and SMT powers it scales, for the
        frequencies dict it came from) and the SMT increment elementwise,
        one ``bincount`` per per-type sum.  A core's intensity scales its
        active power, and its mix term splits its dynamic energy.  VRM
        losses and current-dependent leakage make active power rise
        slightly with total load (the superlinear factor).
        """
        dt = self.tick_s
        superlinear = 0.92 + 0.16 * (total_busy / self._n_hw_threads)
        fsum = np.add.reduceat(busy, self._group_starts)
        fmax = np.maximum.reduceat(busy, self._group_starts)
        remembered = self._freq_scale
        if remembered is None or remembered[0] is not freqs:
            freq = np.array([freqs[cid] for cid in self._core_ids], dtype=float)
            ratio = freq / self._core_max_freq
            scale = STATIC_FRACTION + (1.0 - STATIC_FRACTION) * ratio**3
            remembered = self._freq_scale = (
                freqs, self._core_active_w * scale, self._core_smt_w * scale
            )
        power = (
            self._core_idle_w
            + remembered[1] * fmax
            + remembered[2] * (fsum - fmax)
        )
        # Instruction-mix effect: scale the active (above-idle) power by
        # the weighted power intensity of the applications on each core.
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
            for row, bases, weights, total_weight, _ in mixes:
                if dynamic[row] > 0 and total_weight > 0:
                    dynamic_dt = dynamic[row] * dt
                    idx += bases
                    inc += [dynamic_dt * w / total_weight for w in weights]
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
