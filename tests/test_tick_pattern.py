"""The tick-pattern and placement memories of ``World.step()``.

``step()`` remembers its three most recent cacheable tick patterns and
two placements and re-applies one while its key repeats; a fresh
evaluation reuses a clean process's fragment of the last one, and a
dirty slot-pure process's ``perf()`` response while its slots, demand,
thread list and knobs repeat; and the governor returns its last
frequencies for the same utilization dict.  The claim is that this is
invisible: every run here is compared with ``==`` against the same run
with all of these memories forced to miss (the oracle), and each
targeted case also checks that the memory was actually used, so a
passing comparison is not vacuous.  Each targeted case guards one part of the pattern key
or one bypass rule; dropping that part from
``World._remembered_pattern`` makes the case fail.  ``TestDirtySet``
does the same for each rule that makes a process dirty.

The event engine's busy-leap probe evaluates its tick through the same
memories and hands a tick it does not leap to that tick's step; the
oracle also turns that hand-off off, and ``TestBusyProbe`` checks that
the probe evaluates each tick at most once.  ``TestRmDaemon`` covers the
RM daemon, whose ticks are served like any other while ``step()`` burns
its pending time after each tick that places it.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.analysis.scenarios import make_platform, resolve_model
from repro.apps.base import AdaptivityType, ApplicationModel
from repro.apps.kpn import REPLICAS_KNOB, KpnApplicationModel, KpnStage
from repro.apps.npb import npb_model
from repro.core.manager import HarpManager, ManagerConfig, RmDaemonModel
from repro.ext.dvfs import FREQ_SCALE_KNOB, CappedGovernor, DvfsAwareManager
from repro.ext.phases import Phase, PhasedApplicationModel
from repro.fault import Fault, FaultKind, FaultPlan, SimFaultInjector
from repro.fleet import FleetAppSpec, FleetSim
from repro.libharp.adaptivity import SimProcessAdapter
from repro.obs import OBS
from repro.platform.dvfs import Governor, make_governor
from repro.scenario.driver import TraceDriver
from repro.scenario.generator import SessionPlan
from repro.sim import CfsScheduler, PinnedScheduler, World, make_world
import repro.sim.engine as engine_module
from repro.sim.engine import _Assembly
from repro.sim.process import SimProcess, ThreadId

from test_eventsim import (
    _build_world, _fingerprint, _record_steps, _run_instance,
)

ENGINES = ("tick", "event")


def _run(monkeypatch, scenario, cache: bool = True):
    """Run ``scenario()`` with the memories on, or forced to miss.

    Forced to miss, the busy-leap probe also evaluates afresh and hands
    nothing to the step, which evaluates the tick again, every
    evaluation builds every process's slots and calls its ``perf()``
    (the fragment memory is bypassed) and assembles the tick from an
    empty assembly (every hw thread and core re-summed, every mix term
    rebuilt), the governor chooses the
    frequencies on every call, and the runnable pairs come from a poll
    of every live process's published demand.  Returns
    ``(result, served)``: ``served`` lists, for every tick served from
    the pattern memory (by a step or a probe), its tick index and the
    processes whose increments it applied.
    """
    served: list[tuple[int, list[SimProcess]]] = []
    lookup = World._remembered_pattern

    def remembered(self, placement, freqs):
        if not cache:
            return None
        pattern = lookup(self, placement, freqs)
        if pattern is not None:
            served.append((self.tick_index, [proc[0] for proc in pattern[0]]))
        return pattern

    with monkeypatch.context() as m:
        m.setattr(World, "_remembered_pattern", remembered)
        if not cache:
            m.setattr(World, "_remembered_placement", lambda self, sig: None)
            m.setattr(World, "_probed_tick", property(
                lambda self: None, lambda self, probed: None
            ))
            m.setattr(World, "_perf_memo", property(
                lambda self: {}, lambda self, memo: None
            ), raising=False)
            m.setattr(World, "_asm", property(
                lambda self: _Assembly(self._n_hw_threads, len(self._core_ids)),
                lambda self, asm: None,
            ), raising=False)
            m.setattr(Governor, "_last_choice", property(
                lambda self: None, lambda self, choice: None
            ))
            m.setattr(World, "runnable_pairs", _polled_pairs)
        result = scenario()
    return result, served


def _polled_pairs(world: World) -> list:
    """The runnable pairs by a poll of every live process's demand."""
    return [
        (process, thread)
        for _, process in sorted(world._running.items())
        if process.demand > 1e-6
        for thread in process.threads
    ]


def _assert_oracle(monkeypatch, scenario) -> list[tuple[int, list[SimProcess]]]:
    """Cache-on result ``==`` cache-off result; returns the served ticks."""
    on, served = _run(monkeypatch, scenario)
    off, _ = _run(monkeypatch, scenario, cache=False)
    assert on == off
    return served


# -- cache-off oracle over the parity scenarios ----------------------------------


class TestCacheOffOracle:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(20))
    def test_property_suite(self, monkeypatch, seed: int, engine: str) -> None:
        _assert_oracle(monkeypatch, lambda: _run_instance(seed, engine))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_managed_scenario(self, monkeypatch, engine: str) -> None:
        def scenario():
            world, exit_order = _build_world(4, engine)  # cfs / intel
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            for i, app in enumerate(["ep.C", "is.C"]):
                model = replace(resolve_model(app))
                model.total_work = 1.0 + i
                world.spawn(model, nthreads=2, managed=True)
            world.run_for(6.0)
            epochs = manager.allocation_epochs
            manager.shutdown()
            return _fingerprint(world, exit_order), epochs

        served = _assert_oracle(monkeypatch, scenario)
        assert served

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fault_replay(self, monkeypatch, engine: str) -> None:
        def scenario():
            world, exit_order = _build_world(4, engine)
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            plan = FaultPlan(
                [Fault(at_s=0.5, kind=FaultKind.APP_CRASH, target="ep.C")]
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
                (rec["at_s"], rec["kind"], rec["applied"]) for rec in injector.log
            ]
            manager.shutdown()
            return fp

        assert _assert_oracle(monkeypatch, scenario)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fleet_8_nodes(self, monkeypatch, engine: str) -> None:
        def scenario():
            apps = [
                FleetAppSpec(
                    app_id=f"app-{i}",
                    model="npb:ep.C" if i % 2 == 0 else "npb:is.C",
                    nthreads=1 + i % 3,
                    work_scale=0.05,
                )
                for i in range(12)
            ]
            fleet = FleetSim(
                n_nodes=8,
                apps=apps,
                engine=engine,
                seed=13,
                manager_config=ManagerConfig(epoch_window_s=0.05),
            )
            fleet.run_until_done(max_epochs=300)
            assert fleet.coordinator.all_finished()
            worlds = {
                node_id: (
                    node.world.total_energy_j(),
                    dict(node.world.energy_by_type_j),
                    node.world.tick_index,
                )
                for node_id, node in fleet.nodes.items()
            }
            return json.dumps(fleet.results(), sort_keys=True), worlds

        assert _assert_oracle(monkeypatch, scenario)


# -- targeted key and bypass cases (tick engine: every tick is a step) -------------


def _intel_world(scheduler=None, governor=None, engine="tick") -> World:
    platform = make_platform("intel")
    return make_world(
        platform, scheduler or PinnedScheduler(), engine=engine,
        governor=governor, seed=3,
    )


def _ep(total_work: float = 50.0) -> ApplicationModel:
    model = replace(resolve_model("ep.C"))
    model.total_work = total_work
    return model


def _hw_of_type(world: World, core_type: str) -> list[int]:
    return [
        t.thread_id
        for c in world.platform.cores_of_type(core_type)
        for t in c.hw_threads
    ]


class TestPatternKey:
    def test_kpn_replicas_knob_change(self, monkeypatch) -> None:
        """Guards the knobs: same threads, placement and frequencies,
        but the replicas knob moves the slot→stage mapping."""

        def scenario():
            world = _intel_world()
            model = KpnApplicationModel(
                name="two-stage",
                total_work=1e4,
                serial_fraction=0.0,
                stages=[
                    KpnStage("source", weight=0.05),
                    KpnStage("a", weight=1.0, parallel=True, replicas=2),
                    KpnStage("b", weight=0.2, parallel=True, replicas=2),
                    KpnStage("sink", weight=0.05),
                ],
            )
            process = world.spawn(model, nthreads=model.topology_size())
            adapter = SimProcessAdapter(process)
            hw = _hw_of_type(world, "P")[:6]
            adapter.apply_allocation(6, {REPLICAS_KNOB: {"a": 2, "b": 2}}, hw)
            world.run_for(0.3)
            adapter.apply_allocation(6, {REPLICAS_KNOB: {"a": 3, "b": 1}}, hw)
            assert process.nthreads == 6
            world.run_for(0.3)
            return _fingerprint(world, [])

        assert _assert_oracle(monkeypatch, scenario)

    def test_set_nthreads_shrink_then_regrow(self, monkeypatch) -> None:
        """Guards the thread identity: the regrown list reuses thread ids
        (and so the placement) but holds new ``SimThread`` objects."""

        def scenario():
            world = _intel_world(CfsScheduler())
            process = world.spawn(_ep(), nthreads=4)
            world.run_for(0.2)
            process.set_nthreads(2)
            world.run_for(0.1)
            process.set_nthreads(4)
            world.run_for(0.2)
            return _fingerprint(world, [])

        served = _assert_oracle(monkeypatch, scenario)
        assert len(served) > 20

    def test_affinity_change(self, monkeypatch) -> None:
        """Guards the placement: same threads, demands and frequencies,
        but the process moves from P-cores to E-cores and back."""

        def scenario():
            world = _intel_world()
            process = world.spawn(_ep(), nthreads=4)
            p_cores = frozenset(_hw_of_type(world, "P")[:4])
            e_cores = frozenset(_hw_of_type(world, "E")[:4])
            for affinity in (p_cores, e_cores, p_cores, e_cores):
                process.set_affinity(affinity)
                world.run_for(0.15)
            return _fingerprint(world, [])

        assert _assert_oracle(monkeypatch, scenario)

    def test_demand_change(self, monkeypatch) -> None:
        """Guards the demands: two processes share one hardware thread,
        and one's demand drops without changing the runnable set."""

        def scenario():
            world = _intel_world()
            shared = frozenset({0})
            throttled = ApplicationModel(name="throttled", total_work=1e4)
            process = world.spawn(throttled, nthreads=1, affinity=shared)
            world.spawn(_ep(), nthreads=1, affinity=shared)
            world.run_for(0.2)
            world.set_demand(process, 0.5)
            world.run_for(0.2)
            return _fingerprint(world, [])

        assert _assert_oracle(monkeypatch, scenario)

    def test_dvfs_frequency_cap(self, monkeypatch) -> None:
        """Guards the frequency vector: ``DvfsAwareManager`` caps the
        allocated cores through a ``CappedGovernor`` on activation, and
        the cap then moves mid-stretch with the placement unchanged."""

        def scenario():
            platform = make_platform("intel")
            governor = CappedGovernor(make_governor("performance", platform))
            world = World(platform, PinnedScheduler(), governor=governor, seed=0)
            points = [
                {"erv": [0, 0, 16], "utility": 6.0, "power": 40.0,
                 "knobs": {FREQ_SCALE_KNOB: 0.7}, "measured": True,
                 "samples": 1},
            ]
            config = ManagerConfig(explore=False, startup_delay_s=0.02)
            manager = DvfsAwareManager(
                world, config, offline_tables={"mg.C": points}
            )
            model = npb_model("mg.C")
            model.total_work = 20.0
            world.spawn(model, managed=True)
            world.run_for(1.0)
            capped = sorted(
                c.core_id for c in platform.cores
                if governor.cap_of(c.core_id) < 1.0
            )
            assert capped
            for core_id in capped:
                governor.set_cap(core_id, 0.85)
            world.run_for(0.5)
            manager.shutdown()
            return _fingerprint(world, []), capped

        assert _assert_oracle(monkeypatch, scenario)


class TestPatternBypass:
    def test_phased_model_never_served(self, monkeypatch) -> None:
        def scenario():
            world = _intel_world(CfsScheduler())
            phased = PhasedApplicationModel(
                name="phased",
                total_work=6.0,
                phases=[
                    Phase(0.3, power_intensity=0.7, ips_per_work=8e8),
                    Phase(0.5, power_intensity=1.4, mem_bw_cap=5.0),
                    Phase(0.2, power_intensity=1.0),
                ],
            )
            world.spawn(phased, nthreads=4)
            world.spawn(_ep(), nthreads=2)
            world.run_for(1.5)
            return _fingerprint(world, [])

        served = _assert_oracle(monkeypatch, scenario)
        assert not any(
            p.model.name == "phased" for _, procs in served for p in procs
        )

    def test_completion_inside_repeated_stretch(self, monkeypatch) -> None:
        def scenario():
            world = _intel_world(CfsScheduler())
            short = world.spawn(_ep(total_work=1.3), nthreads=2)
            world.spawn(_ep(), nthreads=2)
            finish_ticks: list[int] = []
            short.on_finish.append(
                lambda p: finish_ticks.append(world.tick_index - 1)
            )
            world.run_for(1.0)
            return _fingerprint(world, []), finish_ticks

        on, served = _run(monkeypatch, scenario)
        off, _ = _run(monkeypatch, scenario, cache=False)
        assert on == off
        fingerprint, (finish_tick,) = on
        served_ticks = {tick for tick, _ in served}
        # The stretch repeated right up to the completion tick, which was
        # evaluated afresh for its fractional finish time.
        assert {finish_tick - 2, finish_tick - 1} <= served_ticks
        assert finish_tick not in served_ticks
        finish_time = next(
            finish for pid, finish, _, _ in fingerprint["finish"] if pid == 1
        )
        assert finish_tick * 0.01 < finish_time < (finish_tick + 1) * 0.01

    def test_trace_driver_activity_flip(self, monkeypatch) -> None:
        def scenario():
            world = _intel_world(CfsScheduler())
            trace = [
                SessionPlan(0.0, "ep.C", 2, 0.5, phases=[(0.07, 0.05)]),
                SessionPlan(0.02, "is.C", 2, 0.5, phases=[(0.11, 0.03)]),
                SessionPlan(0.05, "cg.C", 1, 0.5),
            ]
            driver = TraceDriver(world, trace)
            world.run_for(1.5)
            return _fingerprint(world, []), driver.summary()

        served = _assert_oracle(monkeypatch, scenario)
        assert served


class TestMemoryHygiene:
    def test_exit_and_kill_clear_both_memories(self) -> None:
        world = _intel_world(CfsScheduler())
        short = world.spawn(_ep(total_work=0.5), nthreads=2)
        victim = world.spawn(_ep(), nthreads=2)
        world.spawn(_ep(), nthreads=2)
        at_exit = []
        short.on_finish.append(
            lambda p: at_exit.append(
                (world._patterns, world._placement_sig, world._placement_prev)
            )
        )
        world.run_for(0.1)
        assert world._patterns and world._placement_sig is not None
        world.run_for(1.0)
        assert short.finished and not victim.finished
        assert at_exit == [([], None, None)]
        assert world._patterns
        world.kill(victim.pid)
        assert world._patterns == [] and world._placement_sig is None
        assert world._placement_prev is None

    def test_perf_memo_drops_finished_and_killed(self) -> None:
        world = _intel_world(CfsScheduler())
        short = world.spawn(_ep(total_work=0.5), nthreads=2)
        victim = world.spawn(_ep(), nthreads=2)
        survivor = world.spawn(_ep(), nthreads=2)
        world.run_for(0.1)
        assert set(world._perf_memo) == {short.pid, victim.pid, survivor.pid}
        world.run_for(1.0)
        assert short.finished and not victim.finished
        assert set(world._perf_memo) == {victim.pid, survivor.pid}
        world.kill(victim.pid)
        assert set(world._perf_memo) == {survivor.pid}

    def test_at_most_three_entries(self) -> None:
        world = _intel_world()
        process = world.spawn(_ep(), nthreads=2)
        sizes = []
        for hw in (0, 2, 4, 6):
            process.set_affinity(frozenset({hw, hw + 1}))
            world.run_for(0.05)
            sizes.append(len(world._patterns))
        assert sizes == [1, 2, 3, 3]

    def test_obs_counters(self) -> None:
        OBS.reset()
        OBS.enable()
        try:
            world = _intel_world(CfsScheduler())
            world.spawn(_ep(total_work=0.5), nthreads=2)
            world.spawn(_ep(), nthreads=2)
            world.run_for(1.0)
            hits = OBS.counter("sim.pattern_cache", result="hit").value
            misses = OBS.counter("sim.pattern_cache", result="miss").value
            uncacheable = OBS.counter(
                "sim.pattern_cache", result="uncacheable"
            ).value
        finally:
            OBS.disable()
            OBS.reset()
        assert hits + misses + uncacheable == world.tick_index
        assert hits > 0 and misses > 0
        assert uncacheable >= 1  # the completion tick


# -- the busy-leap probe shares the step's evaluation (event engine) -------------


class _Counting(ApplicationModel):
    """A slot-pure model that logs the tick index of every ``perf()``."""

    def perf(self, slots, process):
        self.calls.append(self.world.tick_index)
        return super().perf(slots, process)


def _counting(world: World, name: str, total_work: float) -> _Counting:
    model = _Counting(name=name, total_work=total_work, serial_fraction=0.05)
    model.calls = []
    model.world = world
    return model


def _probe_results(run) -> dict[str, float]:
    """Run a callable under obs; return ``sim.busy_probe`` by result."""
    OBS.reset()
    OBS.enable()
    try:
        run()
        return {
            counter.labels["result"]: counter.value
            for counter in OBS.counters()
            if counter.name == "sim.busy_probe"
        }
    finally:
        OBS.disable()
        OBS.reset()


class TestBusyProbe:
    def test_each_tick_evaluated_once_under_powersave(self) -> None:
        """A probe that does not leap — here at the governor fixpoint
        check, also on the blip's completion tick, which no memory
        keeps — hands its evaluated tick to the step, which must not
        call ``perf()`` for it again."""
        platform = make_platform("intel")
        world = make_world(
            platform, CfsScheduler(),
            governor=make_governor("powersave", platform),
            engine="event", seed=0,
        )
        models = [
            _counting(world, "short", 0.3),
            _counting(world, "long", 40.0),
            _counting(world, "blip", 0.005),
        ]
        short = world.spawn(models[0], nthreads=2)
        world.spawn(models[1], nthreads=2)
        blips = []

        def spawn_blip(w) -> None:
            if w.tick_index == 100:
                blips.append(w.spawn(models[2]))

        world.on_event.append(spawn_blip)
        world.request_wakeup(100)
        results = _probe_results(lambda: world.run_for(2.0))
        assert short.finished and blips[0].finished
        assert models[2].calls == [100]  # done on its first tick
        assert results.get("governor", 0) > 0 and results.get("leap", 0) > 0
        for model in models:
            assert model.calls
            assert len(model.calls) == len(set(model.calls))

    def test_remembered_stretch_leaps_without_perf(self) -> None:
        platform = make_platform("intel")
        world = make_world(platform, CfsScheduler(), engine="event", seed=0)
        model = _counting(world, "steady", 1e4)
        world.spawn(model, nthreads=2)
        world.run_for(0.1)
        evaluated = len(model.calls)
        assert evaluated > 0

        def stretches() -> None:
            for _ in range(5):
                world.run_for(0.1)

        assert _probe_results(stretches) == {"leap": 5}
        assert len(model.calls) == evaluated
        assert world.tick_index == 60

    def test_stateful_model_same_perf_calls_on_both_engines(
        self, monkeypatch
    ) -> None:
        """The RM daemon's demand moves on the tick after it runs, so
        the probe vetoes every pattern that places it and hands the tick
        to the step: both engines call its ``perf()`` exactly as often."""
        calls: list[int] = []
        burn = RmDaemonModel.perf

        def counted(self, slots, process):
            calls.append(len(slots))
            return burn(self, slots, process)

        monkeypatch.setattr(RmDaemonModel, "perf", counted)

        def run(engine: str) -> tuple:
            platform = make_platform("intel")
            world = make_world(platform, CfsScheduler(), engine=engine, seed=1)
            daemon = RmDaemonModel()
            rm = world.spawn(daemon, nthreads=1, daemon=True)
            world.set_demand(rm, 0.0)
            world.spawn(_ep(), nthreads=2)

            def charge(w: World) -> None:
                if w.tick_index % 9 == 0:
                    w.set_demand(rm, daemon.charge(0.015))
                w.request_wakeup(w.tick_index + 9 - w.tick_index % 9)

            world.on_event.append(charge)
            world.request_wakeup(9)
            results = _probe_results(lambda: world.run_for(1.5))
            fingerprint = _fingerprint(world, [])
            n_calls = len(calls)
            calls.clear()
            return fingerprint, n_calls, results

        tick, tick_calls, _ = run("tick")
        event, event_calls, results = run("event")
        assert event == tick
        assert event_calls == tick_calls > 0
        assert results.get("stateful", 0) > 0 and results.get("leap", 0) > 0


# -- the RM daemon: a slot-pure model whose ticks step() burns --------------------


def _charged_world(engine: str, charge_s: float, every: int, governor=None):
    """A CFS world with an RM daemon that a listener charges ``charge_s``
    every ``every`` ticks, beside a steady two-thread process.  Returns
    the world and the daemon's pending time seen before each charge."""
    world = _intel_world(CfsScheduler(), governor=governor, engine=engine)
    daemon = RmDaemonModel(tick_hint_s=world.tick_s)
    rm = world.spawn(daemon, nthreads=1, daemon=True)
    world.set_demand(rm, 0.0)
    world.spawn(_ep(), nthreads=2)
    before_charge: list[float] = []

    def charge(w: World) -> None:
        if w.tick_index % every == 0:
            before_charge.append(daemon.pending_busy_s)
            w.set_demand(rm, daemon.charge(charge_s))
        w.request_wakeup(w.tick_index + every - w.tick_index % every)

    world.on_event.append(charge)
    world.request_wakeup(every)
    return world, before_charge


def _managed_run(engine: str) -> tuple:
    """Three seconds of a HARP-managed CFS world running ep.C and is.C:
    ``(fingerprint, allocation epochs, sim.busy_probe counts)``."""
    world, exit_order = _build_world(4, engine)
    manager = HarpManager(world, config=ManagerConfig(epoch_window_s=0.02))
    for app in ("ep.C", "is.C"):
        model = replace(resolve_model(app))
        model.total_work = 2.0
        world.spawn(model, nthreads=2, managed=True)
    results = _probe_results(lambda: world.run_for(3.0))
    epochs = manager.allocation_epochs
    manager.shutdown()
    return _fingerprint(world, exit_order), epochs, results


class TestRmDaemon:
    """The RM daemon reads its pending time only through its demand, so
    its ticks are served from the memories like any slot-pure model's;
    ``step()`` burns a tick of pending time after the ledger apply of
    every tick that places it, served or fresh."""

    def test_daemon_ticks_served(self, monkeypatch) -> None:
        served = _assert_oracle(monkeypatch, lambda: _managed_run("tick"))
        assert any(p.daemon for _, procs in served for p in procs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_served_tick_burns_like_a_fresh_one(
        self, monkeypatch, engine: str
    ) -> None:
        """Every charge is the same, so each burn tick after the first
        repeats one remembered pattern; each must leave no pending time
        for the next charge, exactly as the memories-off oracle's fresh
        evaluations do."""

        def scenario():
            world, before_charge = _charged_world(engine, 0.004, 5)
            world.run_for(1.0)
            return _fingerprint(world, []), before_charge

        served = _assert_oracle(monkeypatch, scenario)
        burn_ticks = [
            tick for tick, procs in served if any(p.daemon for p in procs)
        ]
        assert len(burn_ticks) >= 15
        (_, before_charge), _ = _run(monkeypatch, scenario)
        assert before_charge == [0.0] * 20

    @pytest.mark.parametrize("engine", ENGINES)
    def test_equal_slots_from_a_new_demand_call_perf(
        self, monkeypatch, engine: str
    ) -> None:
        """Pending times one ulp either side of 0.007 give demands 0.7
        and its float successor.  Beside a full-demand worker on the
        same hardware thread both round to one share, so the daemon's
        slot repeats while its activity must not: the ``perf()`` memory
        calls ``perf()`` again for the new demand."""
        calls: list[tuple] = []
        perf = RmDaemonModel.perf

        def logged(self, slots, process):
            calls.append((tuple(slots), self.pending_busy_s))
            return perf(self, slots, process)

        monkeypatch.setattr(RmDaemonModel, "perf", logged)

        def scenario():
            world = _intel_world(engine=engine)
            daemon = RmDaemonModel(tick_hint_s=world.tick_s)
            rm = world.spawn(daemon, nthreads=1, daemon=True,
                             affinity=frozenset({0}))
            world.set_demand(rm, 0.0)
            world.spawn(_ep(), nthreads=1, affinity=frozenset({0}))
            for pending in (0.006999999999999999, 0.007000000000000001):
                world.run_for(0.05)
                world.set_demand(rm, daemon.charge(pending))
                world.run_for(0.05)
            result = _fingerprint(world, []), list(calls)
            calls.clear()
            return result

        (fingerprint, logged_calls), _ = _run(monkeypatch, scenario)
        (oracle, _), _ = _run(monkeypatch, scenario, cache=False)
        assert fingerprint == oracle
        (first, p1), (second, p2) = logged_calls
        assert first == second and p1 != p2

    def test_event_engine_vetoes_a_placed_daemon(self) -> None:
        """A HARP manager charges the daemon; the busy probe vetoes each
        pattern that places it (``stateful``), and the event engine
        equals the tick engine."""

        tick, tick_epochs, _ = _managed_run("tick")
        event, event_epochs, results = _managed_run("event")
        assert (event, event_epochs) == (tick, tick_epochs)
        assert results.get("stateful", 0) > 0 and results.get("leap", 0) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_managed_cycle_of_three_patterns_served(
        self, monkeypatch, engine: str
    ) -> None:
        """Under powersave each charge cycle runs three patterns: the
        steady tick, the daemon's burn and the governor's transient
        after it.  All three stay remembered, so once the cycle has
        been seen every tick is served."""
        misses: list[int] = []
        evaluate = World._evaluate_tick

        def counted(self, placement, freqs):
            misses.append(self.tick_index)
            return evaluate(self, placement, freqs)

        monkeypatch.setattr(World, "_evaluate_tick", counted)

        def scenario():
            platform = make_platform("intel")
            governor = make_governor("powersave", platform)
            world, before_charge = _charged_world(
                engine, 0.004, 10, governor
            )
            world.run_for(1.0)
            return _fingerprint(world, []), before_charge

        _assert_oracle(monkeypatch, scenario)
        misses.clear()
        _run(monkeypatch, scenario)
        assert misses and max(misses) < 50

    @pytest.mark.parametrize("governor", [None, "powersave"])
    def test_managed_cycle_leaps_after_its_vetoes(
        self, monkeypatch, governor: str | None
    ) -> None:
        """A failed probe costs its tick's step nothing, so the next
        tick probes again: of each 5-tick charge cycle the event engine
        steps only the daemon's burn (``stateful``) and, under
        powersave, the governor's transient after it (plus tick 0,
        whose frequencies start off powersave's fixpoint); the rest of
        the cycle leaps."""

        def run(engine: str) -> dict:
            platform = make_platform("intel")
            world, _ = _charged_world(
                engine, 0.004, 5,
                governor and make_governor(governor, platform),
            )
            world.run_for(1.0)
            return _fingerprint(world, [])

        tick = run("tick")
        stepped = _record_steps(monkeypatch)
        assert run("event") == tick
        burns = list(range(5, 100, 5))
        if governor is None:
            assert stepped == burns
        else:
            assert stepped == [0] + [t for b in burns for t in (b, b + 1)]


# -- the dirty set of a fresh evaluation (both engines, pattern memory off) -----


def _throttled(
    world: World, name: str, demand: float, hw: int
) -> tuple[_Counting, SimProcess]:
    """A counting model spawned on hardware thread ``hw``, its demand
    published as ``demand``; the test publishes later changes."""
    model = _counting(world, name, 1e4)
    process = world.spawn(model, nthreads=1, affinity=frozenset({hw}))
    world.set_demand(process, demand)
    return model, process


class _Horizoned(_Counting):
    """A counting model that reports a work horizon while ``flagged``."""

    flagged = False

    def steady_work_horizon(self, process: SimProcess) -> float | None:
        return math.inf if self.flagged else None


class _CountingKpn(KpnApplicationModel):
    """A KPN model that logs the tick index of every ``perf()``."""

    def perf(self, slots, process):
        self.calls.append(self.world.tick_index)
        return super().perf(slots, process)


class _DroppingScheduler(PinnedScheduler):
    """Pinned placement that leaves thread 1 of ``pid`` unplaced once
    ``drop`` is set; it has no signature, so nothing is remembered."""

    pid = 0
    drop = False

    def placement_signature(self, world: World) -> None:
        return None

    def place(self, world: World) -> dict:
        placement = super().place(world)
        if self.drop:
            placement.pop(ThreadId(self.pid, 1), None)
        return placement


def _bystander(world: World) -> _Counting:
    """A counted steady process alone on the last E-core, which none of
    the dirty-set cases touches."""
    model = _counting(world, "bystander", 1e4)
    hw = _hw_of_type(world, "E")[-1]
    world.spawn(model, nthreads=1, affinity=frozenset({hw}))
    return model


def _dirty_calls(monkeypatch, scenario) -> tuple:
    """Run ``scenario()`` -> ``(result, counted perf() ticks, bystander
    perf() ticks)`` with the pattern memory off, so every evaluated tick
    meets the fragments; check the result ``==`` the oracle and that the
    bystander kept its fragment where the oracle called its ``perf()``
    on every evaluation.  Returns the result and the counted ticks."""
    with monkeypatch.context() as m:
        m.setattr(
            World, "_remembered_pattern", lambda self, placement, freqs: None
        )
        (on, calls, bystander), _ = _run(monkeypatch, scenario)
    (off, _, oracle_bystander), _ = _run(monkeypatch, scenario, cache=False)
    assert on == off
    assert len(oracle_bystander) > len(bystander)
    return on, calls


@pytest.mark.parametrize("engine", ENGINES)
class TestDirtySet:
    """A fresh evaluation rebuilds a process's slots only when it is
    dirty: one of its threads moved, a hardware thread it runs on
    changed its total demand, one of its cores changed its busy-sibling
    count or frequency, its own demand, thread list or knobs changed, or
    it reports a work horizon.  Each case changes one of these for the
    counted process mid-run, with the pattern memory off so every
    evaluated tick meets the fragments: its ``perf()`` must run on the
    tick of the change, and the run must equal the oracle."""

    def test_corunner_demand_flip_on_shared_hw_thread(
        self, monkeypatch, engine: str
    ) -> None:
        def scenario():
            world = _intel_world(engine=engine)
            bystander = _bystander(world)
            model = _counting(world, "counted", 1e4)
            world.spawn(model, nthreads=1, affinity=frozenset({0}))
            _, corunner = _throttled(world, "corunner", 1.0, 0)
            world.run_for(0.2)
            world.set_demand(corunner, 0.5)  # the counted share moves
            world.run_for(0.2)
            world.set_demand(corunner, 1.0)
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 20, 40]

    def test_smt_sibling_busy_then_idle(self, monkeypatch, engine: str) -> None:
        def scenario():
            world = _intel_world(engine=engine)
            bystander = _bystander(world)
            hw, sibling_hw = _hw_of_type(world, "P")[:2]
            model = _counting(world, "counted", 1e4)
            world.spawn(model, nthreads=1, affinity=frozenset({hw}))
            _, sibling = _throttled(world, "sibling", 0.0, sibling_hw)
            world.run_for(0.2)
            world.set_demand(sibling, 1.0)  # the counted core gets busier
            world.run_for(0.2)
            world.set_demand(sibling, 0.0)
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 20, 40]

    def test_powersave_moves_a_frequency(self, monkeypatch, engine: str) -> None:
        """Two sub-unit demands share one E-core thread: the co-runner's
        rise leaves the counted share as it is but raises the core's
        utilization, so the governor moves the frequency a tick later
        (as it did on tick 1, from the idle start)."""

        def scenario():
            platform = make_platform("intel")
            world = _intel_world(
                governor=make_governor("powersave", platform), engine=engine
            )
            bystander = _bystander(world)
            shared = _hw_of_type(world, "E")[0]
            model, _ = _throttled(world, "counted", 0.25, shared)
            _, corunner = _throttled(world, "corunner", 0.25, shared)
            world.run_for(0.2)
            world.set_demand(corunner, 0.5)
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 1, 21]

    def test_earlier_completion_shifts_the_cfs_fill(
        self, monkeypatch, engine: str
    ) -> None:
        def scenario():
            world = _intel_world(CfsScheduler(), engine=engine)
            bystander = _bystander(world)
            short = world.spawn(_ep(total_work=1.3), nthreads=2)
            model = _counting(world, "counted", 1e4)
            counted = world.spawn(model, nthreads=2)
            finish_ticks: list[int] = []
            short.on_finish.append(
                lambda p: finish_ticks.append(world.tick_index - 1)
            )
            world.run_for(0.1)
            before = dict(world._placement_cache)
            world.run_for(1.0)
            after = world._placement_cache
            moved = [
                tid for tid in before
                if tid.pid == counted.pid and after[tid] != before[tid]
            ]
            result = (_fingerprint(world, []), finish_ticks, moved)
            return result, model.calls, bystander.calls

        (_, (finish,), moved), calls = _dirty_calls(monkeypatch, scenario)
        assert moved  # the fill moved the counted threads
        assert calls == [0, finish + 1]

    def test_set_nthreads_regrow(self, monkeypatch, engine: str) -> None:
        """Same thread ids, same placement: only the thread list moves."""

        def scenario():
            world = _intel_world(CfsScheduler(), engine=engine)
            bystander = _bystander(world)
            model = _counting(world, "counted", 1e4)
            process = world.spawn(model, nthreads=4)
            world.run_for(0.1)
            process.set_nthreads(2)
            process.set_nthreads(4)
            world.run_for(0.1)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 10]

    def test_knob_change(self, monkeypatch, engine: str) -> None:
        """libharp's adapter moves a KPN app's replicas knob over the
        same six hardware threads."""

        def scenario():
            world = _intel_world(engine=engine)
            bystander = _bystander(world)
            model = _CountingKpn(
                name="two-stage",
                adaptivity=AdaptivityType.CUSTOM,
                total_work=1e4,
                serial_fraction=0.0,
                stages=[
                    KpnStage("source", weight=0.05),
                    KpnStage("a", weight=1.0, parallel=True, replicas=2),
                    KpnStage("b", weight=0.2, parallel=True, replicas=2),
                    KpnStage("sink", weight=0.05),
                ],
            )
            model.calls = []
            model.world = world
            process = world.spawn(
                model, nthreads=model.topology_size(), managed=True
            )
            adapter = SimProcessAdapter(process)
            hw = _hw_of_type(world, "P")[:3] + _hw_of_type(world, "E")[:3]
            adapter.apply_allocation(6, {REPLICAS_KNOB: {"a": 2, "b": 2}}, hw)
            world.run_for(0.2)
            adapter.apply_allocation(6, {REPLICAS_KNOB: {"a": 3, "b": 1}}, hw)
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 20]

    def test_own_demand_with_the_same_total(
        self, monkeypatch, engine: str
    ) -> None:
        """Two demands on one hardware thread swap: its total stays
        0.75, but the counted share moves with its own demand."""

        def scenario():
            world = _intel_world(engine=engine)
            bystander = _bystander(world)
            model, counted = _throttled(world, "counted", 0.25, 0)
            _, corunner = _throttled(world, "corunner", 0.5, 0)
            world.run_for(0.2)
            world.set_demand(counted, 0.5)
            world.set_demand(corunner, 0.25)
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 20]

    def test_work_horizon_for_a_while(self, monkeypatch, engine: str) -> None:
        """While the counted model reports a horizon, every evaluation
        calls its ``perf()`` and keeps no fragment; its co-runner's
        demand moves meanwhile, so the fragment from before is stale when
        the horizon goes away again."""

        def scenario():
            world = _intel_world(engine=engine)
            bystander = _bystander(world)
            model = _Horizoned(name="counted", total_work=1e4)
            model.calls = []
            model.world = world
            world.spawn(model, nthreads=1, affinity=frozenset({0}))
            _, corunner = _throttled(world, "corunner", 1.0, 0)
            world.run_for(0.2)
            model.flagged = True
            world.run_for(0.1)
            world.set_demand(corunner, 0.5)
            world.run_for(0.1)
            model.flagged = False
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        # The event engine leaps through the horizon stretch: a model
        # whose horizon is infinite bounds no leap.
        during = list(range(20, 40)) if engine == "tick" else [20, 30]
        assert _dirty_calls(monkeypatch, scenario)[1] == [0, *during, 40]

    def test_thread_leaves_the_placement(self, monkeypatch, engine: str) -> None:
        def scenario():
            scheduler = _DroppingScheduler()
            world = _intel_world(scheduler, engine=engine)
            bystander = _bystander(world)
            model = _counting(world, "counted", 1e4)
            hw = _hw_of_type(world, "P")
            process = world.spawn(
                model, nthreads=2, affinity=frozenset({hw[0], hw[2]})
            )
            scheduler.pid = process.pid
            world.run_for(0.2)
            scheduler.drop = True
            world.run_for(0.2)
            return _fingerprint(world, []), model.calls, bystander.calls

        assert _dirty_calls(monkeypatch, scenario)[1] == [0, 20]


@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_k_dirty_processes_build_k_fragments(monkeypatch, k: int) -> None:
    """A fresh evaluation builds exactly its dirty processes' fragments:
    k demand writes that keep every hardware thread's total demand make
    k processes dirty, and the other placed processes reuse theirs."""
    world = _intel_world()
    processes = [
        world.spawn(_ep(), nthreads=1, affinity=frozenset({hw}))
        for hw in _hw_of_type(world, "E")[:8]
    ]
    world.run_for(0.05)
    built: list[SimProcess] = []
    fragment = engine_module._Fragment

    def counted(*fields):
        built.append(fields[-2][0])  # the fragment's procs entry
        return fragment(*fields)

    monkeypatch.setattr(engine_module, "_Fragment", counted)
    for process in processes[:k]:
        world.set_demand(process, 1.0)
    placement = world._placement_for()
    world._evaluate_tick(placement, world.governor.select_all(world._core_util))
    assert built == processes[:k]
