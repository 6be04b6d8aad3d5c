"""Tick-vs-event engine bit parity and event-heap behaviour.

The event engine (:class:`repro.sim.event.EventWorld`) claims *bit*
compatibility with the fixed-tick reference engine on tick-equivalent
scenarios: identical sensor energy, identical per-type accumulators,
identical PELT trajectories, identical completion order, identical
clock.  This module holds that claim to ``==`` (no tolerances) across a
seeded 200-instance property suite covering all four schedulers, both
platforms, managed (HARP) runs, fault-plan replay, and obs-on/off runs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.scenarios import make_platform, resolve_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.fault import Fault, FaultKind, FaultPlan, SimFaultInjector
from repro.obs import OBS
from repro.platform.dvfs import make_governor
from repro.sim import (
    CfsScheduler,
    EasScheduler,
    EventWorld,
    ItdScheduler,
    PinnedScheduler,
    SimThread,
    ThreadId,
    World,
    make_world,
)
from repro.sim.engine import _PATTERN_UNCACHEABLE
from repro.sim.schedulers import eas as eas_module
from repro.sim.schedulers.eas import _catch_up, _pelt_decay

SCHEDULERS = {
    "cfs": CfsScheduler,
    "eas": EasScheduler,
    "itd": ItdScheduler,
    "pinned": PinnedScheduler,
}

_APPS = ["ep.C", "is.C", "cg.C"]


def _fingerprint(world: World, exit_order: list[int]) -> dict:
    """Everything the parity contract covers, exact values."""
    return {
        "time_s": world.time_s,
        "tick_index": world.tick_index,
        "energy_j": world.total_energy_j(),
        "energy_by_type": dict(world.energy_by_type_j),
        "busy_by_type": dict(world.busy_time_by_type_s),
        "last_power": world.last_stats.package_power_w,
        "last_time": world.last_stats.time_s,
        "exit_order": tuple(exit_order),
        "finish": sorted(
            (p.pid, p.finish_time_s, p.work_done, p.energy_true_j)
            for p in world.processes.values()
        ),
        "pelt": sorted(
            (t.tid, t.utilization, t.pelt_tick)
            for p in world.processes.values()
            for t in p.threads
        ),
        "cpu": sorted(
            (p.pid, tuple(sorted(p.cpu_time_by_type.items())))
            for p in world.processes.values()
        ),
    }


def _build_world(seed: int, engine: str) -> tuple:
    sched_name = ("cfs", "eas", "itd", "pinned")[seed % 4]
    platform = make_platform("intel" if seed % 2 == 0 else "odroid")
    world = make_world(
        platform,
        SCHEDULERS[sched_name](),
        engine=engine,
        seed=seed,
    )
    exit_order: list[int] = []
    world.on_process_exit.append(lambda p: exit_order.append(p.pid))
    return world, exit_order


def _spawn_mix(world: World, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for i in range(1 + seed % 3):
        model = replace(resolve_model(_APPS[(seed + i) % len(_APPS)]))
        # Small work units so some processes finish mid-run (exercising
        # completion ticks and the idle leap path after the last exit).
        model.total_work = float(rng.uniform(0.3, 2.5))
        world.spawn(model, nthreads=int(rng.integers(1, 5)))


def _run_instance(seed: int, engine: str) -> dict:
    world, exit_order = _build_world(seed, engine)
    _spawn_mix(world, seed)
    world.run_for(0.8 + (seed % 5) * 0.3)
    return _fingerprint(world, exit_order)


class TestParityPropertySuite:
    """Seeded tick-vs-event equivalence, 200 instances."""

    @pytest.mark.parametrize("seed", range(200))
    def test_bit_parity(self, seed: int) -> None:
        tick = _run_instance(seed, engine="tick")
        event = _run_instance(seed, engine="event")
        assert tick == event

    def test_make_world_dispatch(self) -> None:
        platform = make_platform("intel")
        assert not isinstance(
            make_world(platform, CfsScheduler(), engine="tick"), EventWorld
        )
        assert isinstance(
            make_world(platform, CfsScheduler(), engine="event"), EventWorld
        )
        with pytest.raises(ValueError, match="unknown engine"):
            make_world(platform, CfsScheduler(), engine="warp")


class TestManagedParity:
    """The HARP manager's epoch/lease machinery rides wakeups on the
    event engine and must reproduce the tick engine exactly."""

    def _run(self, engine: str) -> tuple[dict, int]:
        world, exit_order = _build_world(4, engine)  # cfs / intel
        manager = HarpManager(
            world, config=ManagerConfig(epoch_window_s=0.02)
        )
        for i, app in enumerate(["ep.C", "is.C"]):
            model = replace(resolve_model(app))
            model.total_work = 1.0 + i
            world.spawn(model, nthreads=2, managed=True)
        world.run_for(6.0)
        fp = _fingerprint(world, exit_order)
        epochs = manager.allocation_epochs
        manager.shutdown()
        return fp, epochs

    def test_managed_bit_parity(self) -> None:
        tick, tick_epochs = self._run("tick")
        event, event_epochs = self._run("event")
        assert tick == event
        assert tick_epochs == event_epochs
        assert tick_epochs > 0


class TestFaultReplayParity:
    """A fault plan fires on the same ticks under both engines."""

    @pytest.mark.parametrize(
        "kind,params",
        [
            (FaultKind.APP_CRASH, {}),
            (FaultKind.SOLVER_FAILURE, {"count": 1}),
        ],
    )
    def test_fault_plan_replay(self, kind: FaultKind, params: dict) -> None:
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(4, engine)
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            plan = FaultPlan(
                [Fault(at_s=0.5, kind=kind, target="ep.C", params=params)]
            )
            injector = SimFaultInjector(world, manager, plan)
            for app in ("ep.C", "is.C"):
                model = replace(resolve_model(app))
                model.total_work = 1.5
                world.spawn(model, nthreads=2, managed=True)
            world.run_for(4.0)
            assert injector.done()
            fp = _fingerprint(world, exit_order)
            fp["fault_log"] = [
                (rec["at_s"], rec["kind"], rec["applied"])
                for rec in injector.log
            ]
            manager.shutdown()
            results.append(fp)
        assert results[0] == results[1]


class TestObsBitIdentity:
    """Telemetry must be a pure observer: enabling it cannot move a
    single bit of simulation state, on either engine."""

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_obs_on_off(self, engine: str) -> None:
        baseline = _run_instance(3, engine)
        OBS.reset()
        OBS.enable()
        try:
            observed = _run_instance(3, engine)
        finally:
            OBS.disable()
            OBS.reset()
        assert observed == baseline

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_obs_on_off_managed_with_pattern_memory(self, engine: str) -> None:
        """The managed scenario, where ``step()`` serves most ticks from
        its tick-pattern memory: obs on and off stay ``==``."""
        baseline, _ = TestManagedParity()._run(engine)
        OBS.reset()
        OBS.enable()
        try:
            observed, _ = TestManagedParity()._run(engine)
            hits = OBS.counter("sim.pattern_cache", result="hit").value
            misses = OBS.counter("sim.pattern_cache", result="miss").value
        finally:
            OBS.disable()
            OBS.reset()
        assert observed == baseline
        assert hits > 0 and misses > 0

    def test_obs_on_off_managed_busy_probes(self) -> None:
        """A managed event-engine run under ``powersave``: busy probes
        both leap and fail the governor fixpoint, obs on and off stay
        ``==``, and each cache counter still counts once per tick —
        ``sim.placement_cache`` per simulated tick, ``sim.pattern_cache``
        per stepped one — also when a step takes over a vetoed probe."""

        def run() -> tuple[dict, int]:
            platform = make_platform("odroid")
            world = make_world(
                platform, CfsScheduler(),
                governor=make_governor("powersave", platform),
                engine="event", seed=4,
            )
            exit_order: list[int] = []
            world.on_process_exit.append(lambda p: exit_order.append(p.pid))
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            for i, app in enumerate(["ep.C", "is.C"]):
                model = replace(resolve_model(app))
                model.total_work = 3.0 + i
                world.spawn(model, nthreads=2, managed=True)
            world.run_for(6.0)
            manager.shutdown()
            return _fingerprint(world, exit_order), world.tick_index

        baseline = run()
        OBS.reset()
        OBS.enable()
        try:
            observed = run()
            counts: dict[tuple, float] = {}
            for counter in OBS.counters():
                key = (counter.name, counter.labels.get("result"))
                counts[key] = counter.value
            bounds = {
                counter.labels["bound"]: counter.value
                for counter in OBS.counters()
                if counter.name == "sim.busy_leap_bound"
            }
            leap_lengths = OBS.histogram("sim.busy_leap_ticks")
            busy_leapt = leap_lengths.sum
        finally:
            OBS.disable()
            OBS.reset()
        assert observed == baseline
        assert counts[("sim.busy_probe", "leap")] > 0
        assert counts[("sim.busy_probe", "governor")] > 0
        # Each committed leap counts what bounded it and its length once.
        assert set(bounds) <= {"budget", "preemption", "work_expiry", "phase"}
        assert sum(bounds.values()) == counts[("sim.busy_probe", "leap")]
        assert leap_lengths.count == counts[("sim.busy_probe", "leap")]
        assert leap_lengths.min >= 2
        ticks = observed[1]
        assert sum(
            counts.get(("sim.placement_cache", result), 0.0)
            for result in ("hit", "miss")
        ) == ticks
        leapt = counts.get(("sim.leap_ticks", None), 0.0) + busy_leapt
        assert sum(
            counts.get(("sim.pattern_cache", result), 0.0)
            for result in ("hit", "miss", "uncacheable")
        ) == ticks - leapt

    def test_obs_handles_survive_registry_reset(self) -> None:
        world, _ = _build_world(0, "tick")
        _spawn_mix(world, 0)
        OBS.reset()
        OBS.enable()
        try:
            world.step()
            # A registry reset bumps the generation; the engine's cached
            # per-tick instrument handles must be re-resolved, not used
            # stale.
            OBS.reset()
            world.step()
            assert OBS.counter("sim.ticks").value == 1.0
        finally:
            OBS.disable()
            OBS.reset()


class TestIntegerTickHorizons:
    """run_for horizons are integer tick counts: no float-clock drift."""

    def test_chunked_equals_single(self) -> None:
        platform = make_platform("intel")
        chunked = make_world(platform, CfsScheduler(), engine="tick", seed=0)
        for _ in range(300):
            chunked.run_for(0.03)
        single = make_world(platform, CfsScheduler(), engine="tick", seed=0)
        single.run_for(9.0)
        assert chunked.tick_index == single.tick_index == 900

    def test_ticks_in_rounding(self) -> None:
        world, _ = _build_world(0, "tick")
        assert world.ticks_in(0.0) == 0
        assert world.ticks_in(-1.0) == 0
        assert world.ticks_in(1e-9) == 1
        assert world.ticks_in(0.07) == 7  # 0.07/0.01 = 7.000000000000001 in floats
        assert world.ticks_in(3600.0) == 360_000

    def test_long_horizon_exact_tick_count(self) -> None:
        # Empty event world: a 10-simulated-hour horizon leaps instantly
        # and lands on the exact tick; time_s is derived from the tick
        # index, so it sits exactly on the grid too.
        world, _ = _build_world(0, "event")
        world.run_for(36_000.0)
        assert world.tick_index == 3_600_000
        assert world.time_s == 36_000.0
        world.run_for(0.07)
        assert world.tick_index == 3_600_007

    def test_off_grid_wakeups_land_on_their_exact_tick(self) -> None:
        # Deadlines in seconds, off the tick grid, across a 10-simulated-
        # hour event world: each wakeup fires at exactly ticks_in(at_s),
        # and the listener finds its deadline due at every boundary it
        # is woken for (no early wakeups to re-request from).
        world, _ = _build_world(0, "event")
        deadlines_s = [0.07, 1.2300000005, 3599.995, 35_999.985, 36_000.0]
        due_ticks = [world.ticks_in(at_s) for at_s in deadlines_s]
        assert due_ticks == [7, 124, 360_000, 3_599_999, 3_600_000]
        pending = list(due_ticks)
        woken: list[tuple[int, bool]] = []

        def listener(w) -> None:
            woken.append((w.tick_index, w.tick_index >= pending[0]))
            pending.pop(0)
            if pending:
                w.request_wakeup(pending[0])

        world.on_event.append(listener)
        world.request_wakeup(pending[0])
        world.run_for(36_000.0)
        assert woken == [(tick, True) for tick in due_ticks]
        assert world.time_s == 36_000.0


class TestEventHeap:
    def test_leap_to_wakeup_boundary(self) -> None:
        world, _ = _build_world(0, "event")
        boundaries: list[int] = []
        world.on_event.append(lambda w: boundaries.append(w.tick_index))
        world.request_wakeup(50)
        world.run_for(1.0)
        assert world.tick_index == 100
        # One leap to the wakeup tick, one to the horizon.
        assert boundaries == [50, 100]

    def test_request_wakeup_deduplicates(self) -> None:
        world, _ = _build_world(0, "event")
        for _ in range(5):
            world.request_wakeup(25)
        assert len(world._heap) == 1

    def test_listener_fires_once_at_its_wakeup(self) -> None:
        world, _ = _build_world(0, "event")
        fired: list[float] = []

        def listener(w) -> None:
            if w.tick_index == 30:
                fired.append(w.time_s)

        world.on_event.append(listener)
        world.request_wakeup(30)
        world.run_for(1.0)
        assert fired == [0.3]

    def test_wakeup_never_in_past(self) -> None:
        world, _ = _build_world(0, "event")
        world.run_for(0.5)
        boundaries: list[int] = []
        world.on_event.append(lambda w: boundaries.append(w.tick_index))
        world.request_wakeup(10)  # long past: clamped to the next tick
        world.run_for(0.5)
        assert boundaries == [51, 100]


class TestRunnableScan:
    """set_demand(): the one write that keeps the runnable set current."""

    def test_zero_demand_leaves_runnable_set(self) -> None:
        world, _ = _build_world(0, "tick")
        model = replace(resolve_model("ep.C"))
        model.total_work = 50.0
        process = world.spawn(model, nthreads=2)
        assert len(world.runnable_pairs()) == 2
        world.step()
        world.set_demand(process, 0.0)
        assert world.runnable_pairs() == []
        world.step()  # sleeping: no progress
        work_asleep = process.work_done
        world.set_demand(process, 1.0)
        assert len(world.runnable_pairs()) == 2
        world.step()
        assert process.work_done > work_asleep

    def test_kill_cleans_blocked_process(self) -> None:
        world, _ = _build_world(0, "tick")
        model = replace(resolve_model("ep.C"))
        model.total_work = 50.0
        process = world.spawn(model, nthreads=1)
        world.set_demand(process, 0.0)
        world.kill(process.pid)
        world.set_demand(process, 1.0)  # dead: must stay out of the set
        assert world.runnable_pairs() == []
        running = world.spawn(model, nthreads=1)
        world.kill(running.pid)  # killed while runnable
        world.set_demand(running, 0.5)
        assert world.runnable_pairs() == []


class TestPlacementCacheInvalidation:
    """kill(silent=True) must drop a cached placement that still maps the
    dead process — the signature alone cannot be trusted to move."""

    def test_silent_kill_drops_cache_entry(self) -> None:
        platform = make_platform("intel")
        world = make_world(platform, CfsScheduler(), engine="tick", seed=0)
        model = replace(resolve_model("ep.C"))
        model.total_work = 50.0
        victim = world.spawn(model, nthreads=2)
        survivor = world.spawn(replace(model), nthreads=2)
        world.step()
        world.step()  # second tick serves the cached placement
        assert any(tid.pid == victim.pid for tid in world._placement_cache)
        world.kill(victim.pid, silent=True)
        assert world._placement_sig is None
        assert world._placement_cache == {}
        world.step()
        assert all(
            tid.pid == survivor.pid for tid in world._placement_cache
        )
        assert world._placement_cache  # survivor still placed

    def test_silent_kill_parity_across_engines(self) -> None:
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(0, engine)
            _spawn_mix(world, 0)
            victim = world.spawn(replace(resolve_model("ep.C")), nthreads=2)
            world.run_for(0.2)
            world.kill(victim.pid, silent=True)
            world.run_for(1.0)
            results.append(_fingerprint(world, exit_order))
        assert results[0] == results[1]


def _spawn_dense(world: World, n: int = 3, work: float = 500.0) -> list:
    """Long-running processes: the world stays busy for the whole run."""
    procs = []
    for i in range(n):
        model = replace(resolve_model(_APPS[i % len(_APPS)]))
        model.total_work = work
        procs.append(world.spawn(model, nthreads=1 + i % 2))
    return procs


def _busy_leap_count(run) -> float:
    """Run a callable under obs; return the busy-leap counter it drove."""
    OBS.reset()
    OBS.enable()
    try:
        run()
        return OBS.counter("sim.busy_leaps").value
    finally:
        OBS.disable()
        OBS.reset()


def _busy_leap_bounds(run) -> dict[str, float]:
    """Run a callable under obs; return ``sim.busy_leap_bound`` by bound."""
    OBS.reset()
    OBS.enable()
    try:
        run()
        return {
            counter.labels["bound"]: counter.value
            for counter in OBS.counters()
            if counter.name == "sim.busy_leap_bound"
        }
    finally:
        OBS.disable()
        OBS.reset()


class _QuantumScheduler(CfsScheduler):
    """CFS plus a round-robin quantum: every ``quantum_ticks`` the placed
    threads rotate across their hardware threads.  Exercises the
    time-dependent-scheduler contract — the placement is a pure function
    of (signature, quantum index), and ``next_preemption_tick`` reports
    the next rotation so busy leaps never cross one."""

    def __init__(self, quantum_ticks: int = 25):
        super().__init__()
        self.quantum_ticks = quantum_ticks

    def placement_signature(self, world):
        base = super().placement_signature(world)
        if base is None:
            return None
        return (base, world.tick_index // self.quantum_ticks)

    def next_preemption_tick(self, world):
        q = self.quantum_ticks
        return (world.tick_index // q + 1) * q

    def place(self, world):
        placement = super().place(world)
        if (world.tick_index // self.quantum_ticks) % 2 == 1 and placement:
            tids = sorted(placement)
            hw_ids = [placement[tid] for tid in tids]
            placement = dict(zip(tids, hw_ids[1:] + hw_ids[:1]))
        return placement


def _run_with_finish_ticks(
    engine: str, seed: int, spawn, seconds: float
) -> tuple[dict, list[int]]:
    """Run ``spawn(world)`` on a CFS Intel world; return the fingerprint
    and the tick each process finished on, in exit order."""
    platform = make_platform("intel")
    world = make_world(platform, CfsScheduler(), engine=engine, seed=seed)
    exit_order: list[int] = []
    finish_ticks: list[int] = []

    def on_exit(process) -> None:
        exit_order.append(process.pid)
        finish_ticks.append(world.tick_index - 1)

    world.on_process_exit.append(on_exit)
    spawn(world)
    world.run_for(seconds)
    return _fingerprint(world, exit_order), finish_ticks


def _record_steps(monkeypatch) -> list[int]:
    """Patch ``World.step`` to record the tick index of every step."""
    stepped: list[int] = []
    step = World.step

    def counted(self):
        stepped.append(self.tick_index)
        return step(self)

    monkeypatch.setattr(World, "step", counted)
    return stepped


def _scan_one_tick_too_long(monkeypatch) -> None:
    """Make the busy leap's work-boundary scan return one tick too many
    whenever a boundary binds it."""
    import repro.sim.event as event_module

    scan = event_module.work_before_completion

    def one_tick_too_long(work_done, total_work, horizon, work_per_tick, limit):
        steps = scan(work_done, total_work, horizon, work_per_tick, limit)
        if len(steps) < limit:
            steps.append(steps[-1] + work_per_tick)
        return steps

    monkeypatch.setattr(
        event_module, "work_before_completion", one_tick_too_long
    )


def _phased_model():
    """A three-phase application whose phases each last many ticks."""
    from repro.ext.phases import Phase, PhasedApplicationModel

    base = resolve_model("ep.C")
    return PhasedApplicationModel(
        name="phased",
        total_work=2.0,
        serial_fraction=base.serial_fraction,
        ips_per_work=base.ips_per_work,
        phases=[
            Phase(0.3, power_intensity=0.7, ips_per_work=8e8),
            Phase(0.5, power_intensity=1.4, ips_per_work=1.2e9),
            Phase(0.2, power_intensity=1.0),
        ],
    )


class TestBusyStretchFastForward:
    """The tentpole: dense stretches leap analytically, bit-identically."""

    def _run_dense(
        self,
        engine: str,
        scheduler,
        governor=None,
        platform_name: str = "intel",
        seconds: float = 3.0,
    ) -> dict:
        platform = make_platform(platform_name)
        world = make_world(
            platform, scheduler, engine=engine, governor=governor, seed=7
        )
        exit_order: list[int] = []
        world.on_process_exit.append(lambda p: exit_order.append(p.pid))
        _spawn_dense(world)
        world.run_for(seconds)
        return _fingerprint(world, exit_order)

    @pytest.mark.parametrize("sched_name", ["cfs", "itd", "pinned"])
    def test_dense_parity_and_leaps(self, sched_name: str) -> None:
        tick = self._run_dense("tick", SCHEDULERS[sched_name]())
        event_fp = {}

        def run_event() -> None:
            event_fp.update(self._run_dense("event", SCHEDULERS[sched_name]()))

        leaps = _busy_leap_count(run_event)
        assert event_fp == tick
        # With nothing runnable changing for 3 simulated seconds, the
        # event engine must actually have leapt, not stepped through.
        assert leaps > 0

    def test_multi_add_accumulators_parity(self) -> None:
        """Leapt processes with several same-type slots on several cores:
        each tick adds to their per-type CPU time once per slot and to
        their ground-truth energy once per core, and a leap must replay
        every add in order rather than one pre-summed increment."""

        def run(engine: str) -> tuple[dict, dict, list]:
            platform = make_platform("intel")
            world = make_world(platform, CfsScheduler(), engine=engine, seed=11)
            exit_order: list[int] = []
            world.on_process_exit.append(lambda p: exit_order.append(p.pid))
            procs = []
            for app in ("cg.C", "ep.C"):
                model = replace(resolve_model(app))
                model.total_work = 500.0
                procs.append(world.spawn(model, nthreads=6))
            world.run_for(3.0)
            placement = world.scheduler.place(world)
            return _fingerprint(world, exit_order), placement, procs

        tick, placement, procs = run("tick")
        hw_by_id = {t.thread_id: t for t in make_platform("intel").hw_threads}
        for process in procs:
            slots = [hw_by_id[hw] for tid, hw in placement.items()
                     if tid.pid == process.pid]
            types = [hw.core_type.name for hw in slots]
            assert max(types.count(name) for name in set(types)) >= 2
            assert len({hw.core_id for hw in slots}) >= 2
        event_fp: dict = {}

        def run_event() -> None:
            event_fp.update(run("event")[0])

        assert _busy_leap_count(run_event) > 0
        assert event_fp == tick

    def test_eas_dense_never_busy_leaps(self) -> None:
        # EAS placements depend on per-tick PELT state: no signature, no
        # stable stretch.  Parity holds (the property suite covers it);
        # here we pin down that the engine never *claims* a stretch.
        fp = {}

        def run_event() -> None:
            fp.update(self._run_dense("event", EasScheduler()))

        assert _busy_leap_count(run_event) == 0
        assert fp == self._run_dense("tick", EasScheduler())

    @pytest.mark.parametrize("gov_name", ["schedutil", "powersave"])
    def test_util_driven_governor_parity(self, gov_name: str) -> None:
        # Utilization-driven governors move frequencies while PELT ramps;
        # the probe's fixpoint check must refuse those stretches and leap
        # only once frequencies stabilize — bit parity either way.
        from repro.platform.dvfs import PowersaveGovernor, SchedutilGovernor

        cls = {"schedutil": SchedutilGovernor, "powersave": PowersaveGovernor}[
            gov_name
        ]
        platform = make_platform("odroid")
        tick = self._run_dense(
            "tick", CfsScheduler(), governor=cls(platform), platform_name="odroid"
        )
        platform2 = make_platform("odroid")
        event = self._run_dense(
            "event",
            CfsScheduler(),
            governor=cls(platform2),
            platform_name="odroid",
        )
        assert event == tick

    def test_phase_boundary_splits_leap(self) -> None:
        # A phased application flips behaviour at work boundaries the
        # heap cannot see; steady_work_horizon hands the leap the exact
        # work level of the flip, so every leap stops on the tick before
        # it and the tick engine's phase arithmetic is replayed exactly.
        def build(engine: str):
            platform = make_platform("intel")
            world = make_world(platform, CfsScheduler(), engine=engine, seed=3)
            exit_order: list[int] = []
            world.on_process_exit.append(lambda p: exit_order.append(p.pid))
            world.spawn(_phased_model(), nthreads=2)
            return world, exit_order

        world_t, exits_t = build("tick")
        world_t.run_for(4.0)
        tick = _fingerprint(world_t, exits_t)

        world_e, exits_e = build("event")
        bounds = _busy_leap_bounds(lambda: world_e.run_for(4.0))
        assert _fingerprint(world_e, exits_e) == tick
        assert bounds.get("phase", 0) > 0

    def test_quantum_scheduler_splits_leap(self) -> None:
        tick = self._run_dense("tick", _QuantumScheduler())
        fp = {}

        def run_event() -> None:
            fp.update(self._run_dense("event", _QuantumScheduler()))

        bounds = _busy_leap_bounds(run_event)
        assert fp == tick
        assert bounds.get("preemption", 0) > 0

    def test_each_completion_costs_one_step(self, monkeypatch) -> None:
        """Staggered completions in a dense stretch: the leaps run up to
        the tick before each completion, and the completion tick is the
        only tick stepped for it — no guard ticks, no backoff ticks."""

        def spawn(world: World) -> None:
            for i, work in enumerate((0.7, 1.6, 2.9, 4.1)):
                model = replace(resolve_model(_APPS[i % len(_APPS)]))
                model.total_work = work
                world.spawn(model, nthreads=2)

        tick, tick_finish = _run_with_finish_ticks("tick", 5, spawn, 5.0)
        stepped = _record_steps(monkeypatch)
        event, finish_ticks = _run_with_finish_ticks("event", 5, spawn, 5.0)
        assert event == tick
        assert len(finish_ticks) == 4 and finish_ticks == tick_finish
        assert stepped == finish_ticks

    def test_completion_overrun_raises(self, monkeypatch) -> None:
        """The exact overrun check: a completion scan one tick too long
        lets the leap replay the completion tick, which must raise."""
        _scan_one_tick_too_long(monkeypatch)
        platform = make_platform("intel")
        world = make_world(platform, CfsScheduler(), engine="event", seed=0)
        model = replace(resolve_model("ep.C"))
        model.total_work = 1.0
        world.spawn(model, nthreads=2)
        with pytest.raises(RuntimeError, match="overran a completion"):
            world.run_for(3.0)

    def test_each_phase_flip_costs_no_step(self, monkeypatch) -> None:
        """A phased application in a dense stretch: each leap runs up to
        the tick before a phase flip and the next leap starts on the flip
        tick, so no tick is stepped for a flip — only the completion tick
        is."""

        def spawn(world: World) -> None:
            world.spawn(_phased_model(), nthreads=2)

        tick, tick_finish = _run_with_finish_ticks("tick", 3, spawn, 4.0)
        stepped = _record_steps(monkeypatch)
        event: dict = {}
        finish_ticks: list[int] = []

        def run_event() -> None:
            fp, ticks = _run_with_finish_ticks("event", 3, spawn, 4.0)
            event.update(fp)
            finish_ticks.extend(ticks)

        bounds = _busy_leap_bounds(run_event)
        assert event == tick
        assert len(finish_ticks) == 1 and finish_ticks == tick_finish
        assert bounds.get("phase", 0) == 2  # both flips ended a leap
        assert stepped == finish_ticks

    def test_phase_overrun_raises(self, monkeypatch) -> None:
        """The exact overrun check covers phase flips: a scan one tick
        too long lets the leap replay the flip tick under the old
        phase's pattern, which must raise."""
        _scan_one_tick_too_long(monkeypatch)
        platform = make_platform("intel")
        world = make_world(platform, CfsScheduler(), engine="event", seed=3)
        model = _phased_model()
        model.total_work = 20.0  # a flip at ~3 s, the completion at ~10 s
        world.spawn(model, nthreads=2)
        with pytest.raises(RuntimeError, match="overran a completion or phase"):
            world.run_for(4.0)

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_energy_counter_stays_float(self, engine: str) -> None:
        """The package sensor's batched noise draws are added as Python
        floats: after an idle leap and a busy leap the counter is a
        ``float`` on both engines, as scalar accumulation leaves it."""
        platform = make_platform("intel")
        world = make_world(platform, CfsScheduler(), engine=engine, seed=0)
        readings = []
        world.run_for(0.5)  # nothing spawned: an idle leap
        readings.append(world.total_energy_j())
        _spawn_dense(world)
        world.run_for(1.0)  # a busy leap
        readings.append(world.total_energy_j())
        assert [type(r) for r in readings] == [float, float]
        assert readings[0] > 0.0 and readings[1] > readings[0]


class TestLazyPelt:
    """EAS keeps PELT lazily: a blocked thread costs nothing while it
    sleeps and is caught up, one ``u * decay`` per slept tick, when
    ``place()`` next reads it.  At the default 0.01 s tick the factor
    0.5^(0.01/0.032) ≈ 0.805 maps two subnormal ulps (1e-323) to
    themselves, so a long sleep ends there and the catch-up stops at
    that fixed point instead of multiplying through every slept tick."""

    def test_blocked_thread_catches_up_after_idle_leap(
        self, monkeypatch
    ) -> None:
        sleep_ticks = 4_000
        leaps: list[int] = []
        leap = EventWorld._leap

        def recorded(self, n):
            leaps.append(n)
            leap(self, n)

        monkeypatch.setattr(EventWorld, "_leap", recorded)

        def run(engine: str) -> dict:
            leaps.clear()
            reads: list[list[float]] = []

            class Reading(EasScheduler):
                """EAS that records the averages ``place()`` read."""

                def place(self, world):
                    placement = super().place(world)
                    reads.append([t.utilization for t in threads])
                    return placement

            world = make_world(
                make_platform("intel"), Reading(), engine=engine, seed=2
            )
            exit_order: list[int] = []
            world.on_process_exit.append(lambda p: exit_order.append(p.pid))
            model = replace(resolve_model("cg.C"))
            model.total_work = 1.0e6
            process = world.spawn(model, nthreads=2)
            threads = process.threads
            world.run_for(1.0)
            awake = [t.utilization for t in threads]
            world.set_demand(process, 0.0)
            world.run_for(sleep_ticks * world.tick_s)
            slept = [t.pelt_tick for t in threads]
            world.set_demand(process, 1.0)
            world.run_for(world.tick_s)  # one tick: place() reads them
            return {
                "awake": awake,
                "slept": slept,
                "woken": reads[-1],
                "leaps": list(leaps),
                "world": _fingerprint(world, exit_order),
            }

        tick = run("tick")
        event = run("event")
        assert tick["leaps"] == [] and event.pop("leaps") == [sleep_ticks]
        del tick["leaps"]
        assert event == tick
        assert all(u > 0.5 for u in event["awake"])
        # Asleep, the threads were never touched...
        assert event["slept"] == [100, 100]
        # ...and their first read after the leap is the eager per-tick
        # decay, bit for bit: the subnormal fixed point.
        decay = 0.5 ** (0.01 / 0.032)
        eager = event["awake"]
        for _ in range(sleep_ticks):
            eager = [u * decay for u in eager]
        assert event["woken"] == eager == [2 * math.ulp(0.0)] * 2

    def test_catch_up_stops_at_the_fixed_point(self) -> None:
        # Over a million slept ticks the catch-up multiplies only until
        # the average stops moving (~3,400 ticks from 1.0), not once per
        # slept tick.
        multiplies = [0]

        class Counted(float):
            def __mul__(self, other):
                multiplies[0] += 1
                return Counted(float(self) * other)

        thread = SimThread(tid=ThreadId(1, 0), utilization=Counted(1.0))
        _catch_up(thread, 10**6, _pelt_decay(0.01))
        assert thread.utilization == 2 * math.ulp(0.0)
        assert thread.pelt_tick == 10**6
        assert multiplies[0] < 3_500


class _PeltCfs(CfsScheduler):
    """CFS placement that keeps EAS's PELT through ``account``.  EAS
    itself never leaps a busy stretch; this scheduler does, so both leap
    kinds carry PELT state across one commit."""

    def account(self, world, ran, n_ticks):
        EasScheduler.account(self, world, ran, n_ticks)


class TestPeltUnderflowInLeaps:
    """A blocked thread's PELT average decays geometrically and, with a
    per-tick decay factor at or below 0.5, underflows to exactly 0.0
    (at 0.01 s ticks the factor is ~0.805 and the average instead sticks
    at two subnormal ulps, 1e-323).  With 0.05 s ticks (factor ~0.339)
    the underflow takes ~690 ticks.  Both leap kinds cross the whole
    sleep in one commit without touching the blocked thread, and its
    catch-up on waking reaches 0.0, bit-identically to the tick engine."""

    @pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
    def test_underflow_inside_one_leap(self, busy: bool, monkeypatch) -> None:
        sleep_ticks = 1_200
        watched: list = []
        # (tid, slept ticks, average before, after) per watched catch-up.
        catch_ups: list[tuple] = []
        catch_up = eas_module._catch_up

        def recorded_catch_up(thread, tick, decay):
            before, since = thread.utilization, thread.pelt_tick
            catch_up(thread, tick, decay)
            if thread in watched and tick > since:
                catch_ups.append(
                    (thread.tid, tick - since, before, thread.utilization)
                )

        monkeypatch.setattr(eas_module, "_catch_up", recorded_catch_up)

        def run(engine: str) -> dict:
            watched.clear()
            catch_ups.clear()
            platform = make_platform("intel")
            world = make_world(
                platform, _PeltCfs(), engine=engine, tick_s=0.05, seed=2
            )
            exit_order: list[int] = []
            world.on_process_exit.append(lambda p: exit_order.append(p.pid))
            model = replace(resolve_model("cg.C"))
            model.total_work = 1.0e6
            blocked = world.spawn(model, nthreads=2)
            if busy:  # a second process keeps the machine busy throughout
                _spawn_dense(world, n=1, work=1.0e6)
            world.run_for(1.0)
            watched[:] = blocked.threads
            awake = [(t.utilization, t.pelt_tick) for t in blocked.threads]
            world.set_demand(blocked, 0.0)
            world.run_for(sleep_ticks * world.tick_s)
            # Asleep, the threads were never touched.
            assert [(t.utilization, t.pelt_tick) for t in blocked.threads] == awake
            assert all(u > 0.5 for u, _ in awake)
            world.set_demand(blocked, 1.0)
            world.run_for(world.tick_s)  # one tick: account() catches up
            assert not exit_order
            return {
                "catch_ups": list(catch_ups),
                "world": _fingerprint(world, exit_order),
            }

        tick = run("tick")
        # (leap length, busy, watched (average, tick) before, after).
        commits: list[tuple[int, bool, list, list]] = []
        commit = EventWorld._commit

        def recorded(self, n, pattern):
            before = [(t.utilization, t.pelt_tick) for t in watched]
            commit(self, n, pattern)
            after = [(t.utilization, t.pelt_tick) for t in watched]
            commits.append((n, bool(pattern[0]), before, after))

        monkeypatch.setattr(EventWorld, "_commit", recorded)
        event = run("event")
        assert event == tick
        # The one catch-up per woken thread spans the whole sleep and
        # lands on exactly 0.0.
        assert len(event["catch_ups"]) == 2
        for _, slept, before, after in event["catch_ups"]:
            assert slept >= sleep_ticks and before != 0.0 and after == 0.0
        # The sleep was one leap of the parametrized kind, which left the
        # blocked threads as they were.
        sleep_leaps = [
            (n, leap_busy)
            for n, leap_busy, before, after in commits
            if before and before == after and n > 700
        ]
        assert sleep_leaps == [(sleep_ticks, busy)]


class TestExpiryPredictionApi:
    """Unit contracts of the new expiry sources."""

    def test_next_preemption_tick_defaults(self) -> None:
        world, _ = _build_world(0, "tick")
        assert CfsScheduler().next_preemption_tick(world) is None
        assert ItdScheduler().next_preemption_tick(world) is None
        assert PinnedScheduler().next_preemption_tick(world) is None
        assert EasScheduler().next_preemption_tick(world) == world.tick_index + 1

    def test_steady_work_horizon_base(self) -> None:
        model = resolve_model("ep.C")
        world, _ = _build_world(0, "tick")
        process = world.spawn(replace(model), nthreads=1)
        assert process.model.steady_work_horizon(process) is None

    def test_steady_work_horizon_phased(self) -> None:
        from repro.ext.phases import Phase, PhasedApplicationModel

        model = PhasedApplicationModel(
            name="p",
            total_work=10.0,
            phases=[Phase(0.4), Phase(0.6)],
        )
        world, _ = _build_world(0, "tick")
        process = world.spawn(model, nthreads=1)
        # An absolute work level: exactly phase_at's threshold, so the
        # last work_done below it is in the first phase and the level
        # itself is in the second.
        h = model.steady_work_horizon(process)
        assert h == 4.0 - 1e-12
        assert model.phase_at(np.nextafter(h, 0.0)) is model.phases[0]
        assert model.phase_at(h) is model.phases[1]
        process.work_done = 6.0  # the last phase ends at completion
        assert model.steady_work_horizon(process) == float("inf")

    def test_rm_daemon_never_leaps(self, monkeypatch) -> None:
        """The daemon is slot-pure (no work horizon) but burns a backlog,
        so its demand moves on the tick after it runs: no busy leap
        commits a pattern that places it."""
        placed: list[bool] = []
        commit = EventWorld._commit

        def recorded(self, n, pattern):
            placed.append(any(p.daemon for p, _, _ in pattern[0]))
            commit(self, n, pattern)

        monkeypatch.setattr(EventWorld, "_commit", recorded)
        world, _ = _build_world(4, "event")
        manager = HarpManager(world, config=ManagerConfig(epoch_window_s=0.02))
        daemon = next(p for p in world.processes.values() if p.daemon)
        assert daemon.model.steady_work_horizon(daemon) is None
        assert daemon.model.burns_backlog
        model = replace(resolve_model("ep.C"))
        model.total_work = 2.0
        world.spawn(model, nthreads=2, managed=True)
        world.run_for(2.0)
        manager.shutdown()
        assert sum(daemon.cpu_time_by_type.values()) > 0.0
        assert placed and not any(placed)

    def test_ticks_until_work_expiry(self) -> None:
        from repro.sim.process import (
            WORK_EXPIRY_GUARD_TICKS,
            ticks_until_work_expiry,
        )

        assert ticks_until_work_expiry(1.0, 0.0) is None
        assert ticks_until_work_expiry(float("inf"), 0.1) is None
        assert (
            ticks_until_work_expiry(1.0, 0.01)
            == 100 - WORK_EXPIRY_GUARD_TICKS
        )
        # Budgets tighter than the guard force normal stepping.
        assert ticks_until_work_expiry(0.01, 0.01) <= 0

    def test_work_before_completion(self) -> None:
        from repro.sim.process import work_before_completion

        # Ten float adds of 0.1 reach 0.9999999999999999, not 1.0: the
        # engine completes the process on the eleventh tick, where the
        # guarded closed form would have stopped after eight.
        inf = float("inf")
        steps = work_before_completion(0.0, 1.0, inf, 0.1, 100)
        w = 0.0
        expected = []
        for _ in range(10):
            w += 0.1
            expected.append(w)
        assert steps == expected
        assert 0.1 >= max(0.0, 1.0 - steps[-1])
        assert work_before_completion(0.0, 1.0, inf, 0.1, 4) == expected[:4]
        # A process completing on the next tick leaves nothing to leap.
        assert work_before_completion(0.95, 1.0, inf, 0.1, 100) == []
        # A phase flip: the scan stops before the first tick that starts
        # at or above the horizon, here the one starting at expected[4].
        assert work_before_completion(0.0, 1.0, expected[4], 0.1, 100) == (
            expected[:5]
        )
        above = float(np.nextafter(expected[4], 1.0))
        assert work_before_completion(0.0, 1.0, above, 0.1, 100) == expected[:6]


class TestMidStretchInvalidation:
    """State changes landing inside a predicted stretch must re-split the
    leap bit-identically: the event that fires mid-stretch is itself a
    heap boundary, so the leap simply never covers it."""

    def _managed_dense(self, engine: str, fault_kind=None) -> dict:
        world, exit_order = _build_world(4, engine)  # cfs / intel
        manager = HarpManager(world, config=ManagerConfig(epoch_window_s=0.02))
        injector = None
        if fault_kind is not None:
            plan = FaultPlan(
                [Fault(at_s=0.5, kind=fault_kind, target="ep.C", params={})]
            )
            injector = SimFaultInjector(world, manager, plan)
        for i, app in enumerate(["ep.C", "is.C"]):
            model = replace(resolve_model(app))
            model.total_work = 300.0  # dense: never finishes in-run
            world.spawn(model, nthreads=2, managed=True)
        world.run_for(2.0)
        fp = _fingerprint(world, exit_order)
        if injector is not None:
            assert injector.done()
            fp["fault_log"] = [
                (rec["at_s"], rec["kind"], rec["applied"])
                for rec in injector.log
            ]
        manager.shutdown()
        return fp

    def test_fault_fires_inside_dense_stretch(self) -> None:
        tick = self._managed_dense("tick", FaultKind.APP_CRASH)
        event = self._managed_dense("event", FaultKind.APP_CRASH)
        assert tick == event

    def test_silent_kill_inside_dense_stretch(self) -> None:
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(0, engine)
            victims = _spawn_dense(world)

            def _kill_at_40(w, pid=victims[0].pid):
                if w.tick_index == 40:
                    w.kill(pid)

            world.on_event.append(_kill_at_40)
            if world.event_driven:
                # The wakeup bounds the leap, so the stretch re-splits at
                # tick 40.
                world.request_wakeup(40)
            world.run_for(2.0)
            results.append(_fingerprint(world, exit_order))
        assert results[0] == results[1]

    def test_urgent_reallocation_pull_forward(self) -> None:
        # An RM deciding to reallocate *between* its own epochs (an urgent
        # pull-forward) lands mid-stretch on the event engine; the wakeup
        # it requests splits the leap at exactly the tick the tick engine
        # reallocates on.
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(4, engine)
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            for app in ("ep.C", "is.C"):
                model = replace(resolve_model(app))
                model.total_work = 300.0
                world.spawn(model, nthreads=2, managed=True)
            fired = [False]

            def pull_forward(w) -> None:
                if not fired[0] and w.tick_index >= 40:
                    fired[0] = True
                    manager.reallocate()

            world.on_event.append(pull_forward)
            if world.event_driven:
                world.request_wakeup(40)
            world.run_for(2.0)
            assert fired[0]
            fp = _fingerprint(world, exit_order)
            fp["epochs"] = manager.allocation_epochs
            manager.shutdown()
            results.append(fp)
        assert results[0] == results[1]


class TestRunUntilCap:
    """run_until_all_finished: bounded by default, unbounded by opt-in."""

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_cap_raises(self, engine: str) -> None:
        world, _ = _build_world(0, engine)
        model = replace(resolve_model("ep.C"))
        model.total_work = 1e9  # will not finish in the cap
        world.spawn(model, nthreads=1)
        with pytest.raises(RuntimeError, match="exceeded"):
            world.run_until_all_finished(max_seconds=1.0)

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_unbounded_opt_in(self, engine: str) -> None:
        world, _ = _build_world(0, engine)
        model = replace(resolve_model("ep.C"))
        model.total_work = 0.5
        world.spawn(model, nthreads=2)
        makespan = world.run_until_all_finished(max_seconds=None)
        assert makespan > 0.0
        assert all(p.finished for p in world.processes.values())

    def test_makespans_agree(self) -> None:
        spans = []
        for engine in ("tick", "event"):
            world, _ = _build_world(0, engine)
            model = replace(resolve_model("ep.C"))
            model.total_work = 0.8
            world.spawn(model, nthreads=2)
            spans.append(world.run_until_all_finished(max_seconds=30.0))
        assert spans[0] == spans[1]


class TestLedger:
    """Every accumulator lives in the world's ledger, and ``step()`` and
    the leap commit apply a tick's plan of adds through one path."""

    # One accumulator's adds whose float sum depends on their order:
    # from 1.0, the sequential adds give 0.0 after every tick, one
    # pre-summed add per tick keeps 1.0, and a fancy-index ``+=`` (which
    # keeps only the last add of a repeated index) reaches -9e16.
    START, INCS, TICKS = 1.0, (1e16, 1.0, -1e16), 9

    def _scalar(self) -> float:
        value = self.START
        for _ in range(self.TICKS):
            for add in self.INCS:
                value += add
        return value

    def _order_pattern(self, world: World) -> tuple:
        """The idle pattern with its plan swapped for the three adds to
        ledger index 0 (busy seconds of the first core type)."""
        procs, ran, _, package_power, core_util, burns = world._idle_pattern
        plan = (np.zeros(3, dtype=np.intp), np.array(self.INCS))
        return procs, ran, plan, package_power, core_util, burns

    def test_order_data_discriminates(self) -> None:
        presummed = self.START
        fancy = np.array([self.START])
        for _ in range(self.TICKS):
            presummed += sum(self.INCS)
            fancy[np.zeros(3, dtype=np.intp)] += np.array(self.INCS)
        assert len({self._scalar(), presummed, float(fancy[0])}) == 3

    def test_step_applies_adds_in_order(self, monkeypatch) -> None:
        world = make_world(make_platform("intel"), CfsScheduler(),
                           engine="event", seed=0)
        pattern = self._order_pattern(world)
        monkeypatch.setattr(
            world, "_evaluate_tick", lambda placement, freqs: (pattern, _PATTERN_UNCACHEABLE)
        )
        world._acc[0] = self.START
        for _ in range(self.TICKS):
            world.step()
        assert world._acc[0] == self._scalar()

    def test_commit_applies_adds_in_order_across_chunks(
        self, monkeypatch
    ) -> None:
        import repro.sim.engine as engine_module

        # Two ticks per chunk: four tiled chunks and a one-tick rest.
        monkeypatch.setattr(engine_module, "_ADDS_PER_CHUNK", 2 * len(self.INCS))
        world = make_world(make_platform("intel"), CfsScheduler(),
                           engine="event", seed=0)
        world._acc[0] = self.START
        world._commit(self.TICKS, self._order_pattern(world))
        assert world.tick_index == self.TICKS
        assert world._acc[0] == self._scalar()

    def _run_growing(self, engine: str) -> tuple[dict, tuple, int, int]:
        """Spawn a process every 0.2 s until the ledger has grown; return
        the fingerprint, the first process's accumulators, and the
        ledger's first and final capacity."""
        world, exit_order = _build_world(0, engine)  # cfs / intel
        first = world.spawn(replace(resolve_model("cg.C"), total_work=500.0),
                            nthreads=2)
        capacity = len(world._acc)
        rng = np.random.default_rng(3)
        for i in range(12):
            world.run_for(0.2)
            before = (first.work_done, first.energy_true_j,
                      first.cpu_time_by_type)
            model = replace(resolve_model(_APPS[i % len(_APPS)]))
            model.total_work = float(rng.uniform(0.2, 1.5))
            world.spawn(model, nthreads=int(rng.integers(1, 4)))
            # A growth copies every block: the first process reads on.
            assert (first.work_done, first.energy_true_j,
                    first.cpu_time_by_type) == before
        world.run_for(1.0)
        reads = (
            first.work_done,
            first.energy_true_j,
            first.cpu_time_by_type,
            world.perf.read_instructions(first.pid),
        )
        return _fingerprint(world, exit_order), reads, capacity, len(world._acc)

    def test_growth_parity(self) -> None:
        tick, tick_reads, capacity, grown = self._run_growing("tick")
        assert grown > capacity
        event: list = []
        leaps = _busy_leap_count(
            lambda: event.extend(self._run_growing("event"))
        )
        assert leaps > 0
        assert event[0] == tick
        assert event[1] == tick_reads
        assert all(tick_reads[:2]) and tick_reads[2] and tick_reads[3]
