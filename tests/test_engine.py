"""Tests for the discrete-time execution engine."""

import pytest

from repro.apps import npb_model
from repro.apps.base import ApplicationModel, Balancing
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.pinned import PinnedScheduler


def _world(platform, seed=0, **kwargs):
    kwargs.setdefault("governor", make_governor("performance", platform))
    kwargs.setdefault("sensor_noise", 0.0)
    kwargs.setdefault("perf_noise", 0.0)
    return World(platform, CfsScheduler(), seed=seed, **kwargs)


def _compute_app(work=10.0, **kwargs):
    kwargs.setdefault("serial_fraction", 0.0)
    return ApplicationModel(name="synthetic", total_work=work, **kwargs)


class TestBasics:
    def test_time_advances_by_tick(self, intel):
        world = _world(intel)
        world.step()
        assert world.time_s == 0.01

    def test_run_for(self, intel):
        world = _world(intel)
        world.run_for(0.1)
        assert world.time_s == 0.1

    def test_time_is_derived_from_the_tick_index(self, intel):
        world = _world(intel)
        world.run_for(0.07)
        assert world.tick_index == 7
        assert world.time_s == 7 * world.tick_s
        with pytest.raises(AttributeError):
            world.time_s = 1.0

    def test_spawn_assigns_unique_pids(self, intel):
        world = _world(intel)
        a = world.spawn(_compute_app())
        b = world.spawn(_compute_app())
        assert a.pid != b.pid

    def test_default_nthreads_is_nproc(self, intel):
        world = _world(intel)
        proc = world.spawn(npb_model("ep.C"))
        assert proc.nthreads == intel.n_hw_threads

    def test_invalid_tick_rejected(self, intel):
        with pytest.raises(ValueError):
            World(intel, CfsScheduler(), tick_s=0.0)


class TestExecution:
    def test_single_thread_progress_matches_core_speed(self, intel):
        world = _world(intel)
        proc = world.spawn(_compute_app(work=100.0), nthreads=1,
                           affinity=frozenset({0}))
        world.run_for(1.0)
        # One P hardware thread alone: speed 1.0 work/s.
        assert proc.work_done == pytest.approx(1.0, rel=0.01)

    def test_e_core_slower(self, intel):
        world = _world(intel)
        e_hw = intel.cores_of_type("E")[0].hw_threads[0].thread_id
        proc = world.spawn(_compute_app(work=100.0), nthreads=1,
                           affinity=frozenset({e_hw}))
        world.run_for(1.0)
        assert proc.work_done == pytest.approx(0.55, rel=0.01)

    def test_completion_and_finish_time(self, intel):
        world = _world(intel)
        proc = world.spawn(_compute_app(work=1.0), nthreads=1,
                           affinity=frozenset({0}))
        makespan = world.run_until_all_finished()
        assert proc.finished
        assert makespan == pytest.approx(1.0, rel=0.02)
        assert proc.finish_time_s == pytest.approx(1.0, rel=0.02)

    def test_finish_callbacks_fire(self, intel):
        world = _world(intel)
        seen = []
        proc = world.spawn(_compute_app(work=0.5), nthreads=1)
        proc.on_finish.append(lambda p: seen.append(p.pid))
        world.on_process_exit.append(lambda p: seen.append(-p.pid))
        world.run_until_all_finished()
        assert seen == [proc.pid, -proc.pid]

    def test_two_threads_on_one_hw_thread_share(self, intel):
        world = _world(intel)
        proc = world.spawn(_compute_app(work=100.0), nthreads=2,
                           affinity=frozenset({0}))
        world.run_for(1.0)
        # Two threads time-share one P hardware thread; the oversubscription
        # penalty applies on top of the halved share.
        assert proc.work_done < 1.0

    def test_smt_siblings_slower_than_separate_cores(self, intel):
        world = _world(intel)
        # Same core, both hyperthreads.
        p1 = world.spawn(_compute_app(work=100.0), nthreads=2,
                         affinity=frozenset({0, 1}))
        world.run_for(1.0)
        smt_work = p1.work_done
        world2 = _world(intel)
        # Two different P cores.
        p2 = world2.spawn(_compute_app(work=100.0), nthreads=2,
                          affinity=frozenset({0, 2}))
        world2.run_for(1.0)
        assert smt_work == pytest.approx(2 * 0.62, rel=0.02)
        assert p2.work_done == pytest.approx(2.0, rel=0.02)

    def test_affinity_respected(self, intel):
        world = World(intel, PinnedScheduler(), seed=0)
        allowed = frozenset({16, 17})  # two E cores
        proc = world.spawn(_compute_app(work=100.0), nthreads=4, affinity=allowed)
        world.run_for(0.1)
        assert set(proc.cpu_time_by_type) == {"E"}

    def test_max_seconds_guard(self, intel):
        world = _world(intel)
        world.spawn(_compute_app(work=1e9), nthreads=1)
        with pytest.raises(RuntimeError):
            world.run_until_all_finished(max_seconds=0.05)


class TestEnergyAccounting:
    def test_idle_machine_draws_idle_power(self, intel):
        world = _world(intel)
        world.run_for(1.0)
        expected = 9.0 + 8 * 0.35 + 16 * 0.12
        assert world.total_energy_j() == pytest.approx(expected, rel=0.01)

    def test_busy_machine_draws_more(self, intel):
        world = _world(intel)
        world.spawn(_compute_app(work=1e6))
        world.run_for(0.5)
        assert world.total_energy_j() > 50.0

    def test_per_type_energy_sums_to_cores_total(self, intel):
        world = _world(intel)
        world.spawn(_compute_app(work=1e6))
        world.run_for(0.3)
        assert set(world.energy_by_type_j) == {"P", "E"}
        assert all(v > 0 for v in world.energy_by_type_j.values())

    def test_ground_truth_energy_attributed_to_single_app(self, intel):
        world = _world(intel)
        proc = world.spawn(_compute_app(work=1e6), nthreads=4,
                           affinity=frozenset({0, 2, 4, 6}))
        world.run_for(1.0)
        # Sole application: receives all dynamic energy of its cores.
        assert proc.energy_true_j > 0

    def test_busy_time_accounting(self, intel):
        world = _world(intel)
        proc = world.spawn(_compute_app(work=1e6), nthreads=1,
                           affinity=frozenset({0}))
        world.run_for(1.0)
        assert world.busy_time_by_type_s["P"] == pytest.approx(1.0, rel=0.01)
        assert proc.cpu_time_by_type["P"] == pytest.approx(1.0, rel=0.01)


class TestWorkloadSemantics:
    def test_memory_bound_app_does_not_scale(self, intel):
        model = _compute_app(work=1e6, mem_bw_cap=3.0)
        world = _world(intel)
        proc = world.spawn(model)
        world.run_for(1.0)
        assert proc.work_done == pytest.approx(3.0, rel=0.05)

    def test_static_balancing_gated_by_slowest(self, intel):
        model = ApplicationModel(
            name="static", total_work=1e6, serial_fraction=0.0,
            balancing=Balancing.STATIC,
        )
        world = _world(intel)
        # One P hardware thread + one E core: static partitioning runs at
        # 2 × E-speed.
        proc = world.spawn(model, nthreads=2, affinity=frozenset({0, 16}))
        world.run_for(1.0)
        assert proc.work_done == pytest.approx(2 * 0.55, rel=0.02)

    def test_dynamic_balancing_uses_both_fully(self, intel):
        world = _world(intel)
        proc = world.spawn(_compute_app(work=1e6), nthreads=2,
                           affinity=frozenset({0, 16}))
        world.run_for(1.0)
        assert proc.work_done == pytest.approx(1.55, rel=0.02)

    def test_spin_waiting_inflates_ips_not_utility(self, intel):
        base = ApplicationModel(
            name="nospin", total_work=1e6, serial_fraction=0.0,
            balancing=Balancing.STATIC, ips_per_work=1e9,
        )
        spin = ApplicationModel(
            name="spin", total_work=1e6, serial_fraction=0.0,
            balancing=Balancing.STATIC, ips_per_work=1e9,
            spin_ips_rate=2e9,
        )
        for model in (base, spin):
            world = _world(intel)
            proc = world.spawn(model, nthreads=2, affinity=frozenset({0, 16}))
            world.run_for(1.0)
            if model is base:
                base_work, base_instr = proc.work_done, world.perf.read_instructions(proc.pid)
            else:
                spin_work, spin_instr = proc.work_done, world.perf.read_instructions(proc.pid)
        assert spin_work == pytest.approx(base_work, rel=0.01)
        assert spin_instr > base_instr * 1.2

    def test_contention_collapse(self, intel):
        model = _compute_app(
            work=1e6, contention_threshold=4, contention_exponent=1.0,
        )
        world = _world(intel)
        proc = world.spawn(model, nthreads=32)
        world.run_for(1.0)
        uncontended = _compute_app(work=1e6)
        world2 = _world(intel)
        proc2 = world2.spawn(uncontended, nthreads=32)
        world2.run_for(1.0)
        assert proc.work_done < 0.3 * proc2.work_done

    def test_daemon_does_not_block_completion(self, intel):
        from repro.core.manager import RmDaemonModel

        world = _world(intel)
        world.spawn(RmDaemonModel(tick_hint_s=world.tick_s), nthreads=1, daemon=True)
        world.spawn(_compute_app(work=0.5), nthreads=1)
        makespan = world.run_until_all_finished()
        assert makespan < 1.0
