"""Integration tests for the HARP resource manager."""

import pytest

from repro.apps import npb_model, tflite_model
from repro.core.manager import HarpManager, ManagerConfig, RmDaemonModel
from repro.core.operating_point import MaturityStage
from repro.core.resource_vector import ErvLayout
from repro.libharp.adaptivity import AdaptationMode
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler


def _world(platform, seed=0):
    return World(
        platform, PinnedScheduler(),
        governor=make_governor("powersave", platform), seed=seed,
    )


class TestRegistration:
    def test_managed_process_registers(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        proc = world.spawn(npb_model("ep.C"), managed=True)
        assert proc.pid in manager.sessions
        session = manager.sessions[proc.pid]
        assert session.table.app_name == "ep.C"

    def test_unmanaged_process_ignored(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        world.spawn(npb_model("ep.C"), managed=False)
        assert not manager.sessions

    def test_exit_removes_session_and_reallocates(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        a = world.spawn(npb_model("is.C"), managed=True)
        world.spawn(npb_model("lu.C"), managed=True)
        world.run_for(3.0)
        if not a.finished:
            world.run_until_all_finished()
        assert a.pid not in manager.sessions

    def test_offline_tables_mark_stable(self, intel, intel_layout):
        world = _world(intel)
        points = [
            {"erv": [0, 8, 0], "utility": 10.0, "power": 120.0,
             "measured": True, "samples": 1},
            {"erv": [0, 0, 16], "utility": 6.0, "power": 50.0,
             "measured": True, "samples": 1},
        ]
        config = ManagerConfig(explore=False)
        manager = HarpManager(world, config, offline_tables={"ep.C": points})
        proc = world.spawn(npb_model("ep.C"), managed=True)
        session = manager.sessions[proc.pid]
        assert session.table.stage is MaturityStage.STABLE
        assert len(session.table) == 2

    def test_table_persists_across_runs(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        proc = world.spawn(npb_model("ep.C"), managed=True)
        world.run_until_all_finished()
        measured = manager.table_store["ep.C"].measured_count()
        assert measured > 0
        proc2 = world.spawn(npb_model("ep.C"), managed=True)
        assert manager.sessions[proc2.pid].table is manager.table_store["ep.C"]


class TestAllocationFlow:
    def test_activation_applied_after_startup_delay(self, intel):
        world = _world(intel)
        config = ManagerConfig(startup_delay_s=0.2)
        HarpManager(world, config)
        proc = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.1)
        assert proc.affinity is None  # still deferred
        world.run_for(0.2)
        assert proc.affinity is not None

    def test_exploring_app_gets_allocation_and_adapts(self, intel):
        world = _world(intel)
        HarpManager(world, ManagerConfig(startup_delay_s=0.05))
        proc = world.spawn(npb_model("mg.C"), managed=True)
        world.run_for(0.5)
        assert proc.affinity
        assert proc.nthreads == len(proc.affinity) or proc.nthreads >= 1

    def test_two_apps_get_disjoint_allocations(self, intel):
        world = _world(intel)
        HarpManager(world, ManagerConfig(startup_delay_s=0.05))
        a = world.spawn(npb_model("ep.C"), managed=True)
        b = world.spawn(npb_model("mg.C"), managed=True)
        world.run_for(1.0)
        assert a.affinity and b.affinity
        assert not (a.affinity & b.affinity)

    def test_no_scaling_mode_keeps_thread_count(self, intel):
        world = _world(intel)
        config = ManagerConfig(
            adaptation=AdaptationMode.AFFINITY_ONLY, startup_delay_s=0.05
        )
        HarpManager(world, config)
        proc = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.5)
        assert proc.nthreads == intel.n_hw_threads
        assert proc.affinity is not None

    def test_ignore_mode_touches_nothing(self, intel):
        world = _world(intel)
        config = ManagerConfig(adaptation=AdaptationMode.IGNORE)
        HarpManager(world, config)
        proc = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.5)
        assert proc.affinity is None
        assert proc.nthreads == intel.n_hw_threads


class TestExplorationProgress:
    def test_measurements_accumulate(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig(startup_delay_s=0.05))
        world.spawn(npb_model("mg.C"), managed=True)
        world.run_for(3.0)
        table = manager.table_store["mg.C"]
        assert table.measured_count() >= 2

    def test_reaches_stable_on_odroid_space(self, odroid):
        # The Odroid's coarse space has only 24 configurations, so the
        # stable threshold adapts downward.
        world = _world(odroid)
        manager = HarpManager(world, ManagerConfig())
        assert manager.planner.stable_after == 24

    def test_stable_time_recorded(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        for _ in range(8):
            world.spawn(npb_model("mg.C"), managed=True)
            world.run_until_all_finished()
            if "mg.C" in manager.stable_at_s:
                break
        assert "mg.C" in manager.stable_at_s
        assert manager.table_store["mg.C"].stage is MaturityStage.STABLE

    def test_utility_polling_uses_app_metric(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig(startup_delay_s=0.05))
        proc = world.spawn(tflite_model("alexnet"), managed=True)
        world.run_for(1.0)
        table = manager.table_store["alexnet"]
        if table.measured_points():
            # Application-specific utility is work/s (small numbers), not
            # IPS (billions).
            assert max(p.utility for p in table.measured_points()) < 1e6


class TestRmDaemon:
    def test_daemon_spawned_when_overhead_modelled(self, intel):
        world = _world(intel)
        HarpManager(world, ManagerConfig())
        daemons = [p for p in world.processes.values() if p.daemon]
        assert len(daemons) == 1
        assert daemons[0].model.name == "harp-rm"

    def test_charge_accumulates_and_drains(self, intel):
        from repro.sim.engine import ThreadSlot

        world = _world(intel)
        model = RmDaemonModel(tick_hint_s=0.01)
        process = world.spawn(model, nthreads=1, daemon=True)
        world.set_demand(process, model.charge(0.0))
        assert process.demand == 0.0 and world.runnable_pairs() == []
        world.set_demand(process, model.charge(0.005))
        world.set_demand(process, model.charge(0.002))
        assert process.demand == pytest.approx(0.7)
        assert world.runnable_pairs() == [(process, process.threads[0])]
        slots = [ThreadSlot(0, 0, "P", 1.0, 1.0)]
        perf = model.perf(slots, process)
        assert perf.activities[0] == pytest.approx(0.7)
        # perf() is slot-pure: it drains nothing and repeats exactly.
        assert model.pending_busy_s == pytest.approx(0.007)
        assert model.perf(slots, process) == perf
        assert model.burns_backlog
        world.step()  # places the daemon, burns its tick, republishes
        assert model.pending_busy_s == 0.0
        assert process.demand == 0.0 and world.runnable_pairs() == []
        # More than a tick of work drains over several ticks.
        world.set_demand(process, model.charge(0.025))
        drained = []
        while process.demand > 0.0 and len(drained) < 10:
            drained.append(process.demand)
            world.step()
        assert drained == [1.0, 1.0, pytest.approx(0.5)]

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RmDaemonModel().charge(-1.0)


class TestEndToEnd:
    def test_single_app_completes_under_management(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        world.spawn(npb_model("is.C"), managed=True)
        makespan = world.run_until_all_finished()
        assert 0 < makespan < 60
        assert manager.allocation_epochs >= 1

    def test_multi_app_completes(self, intel):
        world = _world(intel)
        HarpManager(world, ManagerConfig())
        world.spawn(npb_model("is.C"), managed=True)
        world.spawn(npb_model("ep.C"), managed=True)
        makespan = world.run_until_all_finished()
        assert makespan > 0

    def test_offline_mode_uses_description_points(self, intel, intel_layout):
        world = _world(intel)
        points = [
            {"erv": [0, 8, 16], "utility": 10.0, "power": 200.0,
             "measured": True, "samples": 1},
            {"erv": [0, 0, 8], "utility": 3.0, "power": 40.0,
             "measured": True, "samples": 1},
        ]
        config = ManagerConfig(explore=False, startup_delay_s=0.05)
        manager = HarpManager(world, config, offline_tables={"ep.C": points})
        proc = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.3)
        session = manager.sessions[proc.pid]
        assert session.current_erv is not None
        wire = session.current_erv.to_wire()
        assert wire in ([0, 8, 16], [0, 0, 8])
