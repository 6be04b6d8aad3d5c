"""Tests for the scheduler baselines (CFS, EAS, ITD, pinned)."""

import pytest

from repro.apps import npb_model
from repro.apps.base import ApplicationModel
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.event import EventWorld
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.eas import EasScheduler
from repro.sim.schedulers.itd import ItdScheduler
from repro.sim.schedulers.pinned import PinnedScheduler


def _app(name="synthetic", **kwargs):
    kwargs.setdefault("total_work", 1e6)
    kwargs.setdefault("serial_fraction", 0.0)
    return ApplicationModel(name=name, **kwargs)


def _world(platform, scheduler, seed=0):
    return World(
        platform, scheduler,
        governor=make_governor("performance", platform),
        seed=seed, sensor_noise=0.0, perf_noise=0.0,
    )


@pytest.mark.parametrize("world_cls", [World, EventWorld])
@pytest.mark.parametrize("scheduler_cls", [CfsScheduler, ItdScheduler])
def test_affinity_write_moves_remembered_placement(
    intel, scheduler_cls, world_cls
):
    """The signature is remembered per runnable-pairs list; an affinity
    write must still reach the next placement on both engines."""
    world = world_cls(
        intel, scheduler_cls(), governor=make_governor("performance", intel),
        seed=0, sensor_noise=0.0, perf_noise=0.0,
    )
    process = world.spawn(_app(), nthreads=2)
    world.spawn(_app("other"), nthreads=2)
    world.run_for(0.05)
    sched = world.scheduler
    assert sched.placement_signature(world) is sched.placement_signature(world)
    e_hw = [t.thread_id for c in intel.cores_of_type("E") for t in c.hw_threads]
    assert not set(world._placement_for().values()) & set(e_hw)
    process.set_affinity(frozenset(e_hw[:2]))
    world.run_for(0.05)
    placement = world._placement_for()
    assert {placement[t.tid] for t in process.threads} <= set(e_hw[:2])
    assert process.cpu_time_by_type.keys() == {"P", "E"}


class TestCfs:
    def test_prefers_idle_p_cores_first(self, intel):
        world = _world(intel, CfsScheduler())
        world.spawn(_app(), nthreads=4)
        placement = world.scheduler.place(world)
        p_hw_ids = {
            t.thread_id for c in intel.cores_of_type("P") for t in c.hw_threads
        }
        assert set(placement.values()) <= p_hw_ids

    def test_spreads_across_cores_before_smt(self, intel):
        world = _world(intel, CfsScheduler())
        world.spawn(_app(), nthreads=8)
        placement = world.scheduler.place(world)
        core_of = {t.thread_id: t.core_id for t in intel.hw_threads}
        used_cores = [core_of[hw] for hw in placement.values()]
        assert len(set(used_cores)) == 8  # one thread per core

    def test_full_load_uses_every_hw_thread(self, intel):
        world = _world(intel, CfsScheduler())
        world.spawn(_app(), nthreads=32)
        placement = world.scheduler.place(world)
        assert len(set(placement.values())) == 32

    def test_oversubscription_balances_load(self, intel):
        world = _world(intel, CfsScheduler())
        world.spawn(_app(), nthreads=64)
        placement = world.scheduler.place(world)
        load = {}
        for hw in placement.values():
            load[hw] = load.get(hw, 0) + 1
        assert max(load.values()) == 2 and min(load.values()) == 2

    def test_respects_affinity(self, intel):
        world = _world(intel, CfsScheduler())
        world.spawn(_app(), nthreads=4, affinity=frozenset({16, 17, 18, 19}))
        placement = world.scheduler.place(world)
        assert set(placement.values()) <= {16, 17, 18, 19}

    def test_deterministic(self, intel):
        world = _world(intel, CfsScheduler())
        world.spawn(_app(), nthreads=10)
        a = world.scheduler.place(world)
        b = world.scheduler.place(world)
        assert a == b


class TestEas:
    def test_new_tasks_start_on_little(self, odroid):
        world = _world(odroid, EasScheduler())
        world.spawn(_app(), nthreads=2)
        placement = world.scheduler.place(world)
        little_hw = {
            t.thread_id
            for c in odroid.cores_of_type("LITTLE")
            for t in c.hw_threads
        }
        # Zero-utilization tasks are cheapest on LITTLE cores.
        assert set(placement.values()) <= little_hw

    def test_busy_tasks_migrate_to_big(self, odroid):
        world = _world(odroid, EasScheduler())
        proc = world.spawn(_app(), nthreads=2)
        world.run_for(0.5)  # PELT ramps up under full load
        placement = world.scheduler.place(world)
        big_hw = {
            t.thread_id for c in odroid.cores_of_type("big") for t in c.hw_threads
        }
        assert set(placement.values()) & big_hw

    def test_full_suite_runs_to_completion(self, odroid):
        world = _world(odroid, EasScheduler())
        world.spawn(npb_model("is.A"))
        makespan = world.run_until_all_finished()
        assert makespan > 0


class TestItd:
    def test_compute_threads_prefer_p_cores(self, intel):
        world = _world(intel, ItdScheduler())
        world.spawn(_app(), nthreads=8)  # compute-bound → class 0
        placement = world.scheduler.place(world)
        p_hw = {
            t.thread_id for c in intel.cores_of_type("P") for t in c.hw_threads
        }
        assert set(placement.values()) <= p_hw

    def test_memory_threads_prefer_e_cores(self, intel):
        world = _world(intel, ItdScheduler())
        world.spawn(_app(mem_bw_cap=3.0), nthreads=8)  # class 1
        placement = world.scheduler.place(world)
        e_hw = {
            t.thread_id for c in intel.cores_of_type("E") for t in c.hw_threads
        }
        assert set(placement.values()) <= e_hw

    def test_saturated_machine_stacks_by_class(self, intel):
        world = _world(intel, ItdScheduler())
        world.spawn(_app("compute"), nthreads=32)
        world.spawn(_app("memory", mem_bw_cap=3.0), nthreads=32)
        placement = world.scheduler.place(world)
        e_hw = {
            t.thread_id for c in intel.cores_of_type("E") for t in c.hw_threads
        }
        mem_tids = [tid for tid in placement if tid.pid == 2]
        on_e = sum(1 for tid in mem_tids if placement[tid] in e_hw)
        # The memory-bound app's second-wave threads pile onto E-cores.
        assert on_e > len(mem_tids) * 0.6

    def test_idle_slots_used_before_stacking(self, intel):
        world = _world(intel, ItdScheduler())
        world.spawn(_app(), nthreads=32)
        placement = world.scheduler.place(world)
        assert len(set(placement.values())) == 32


class TestPinned:
    def test_is_affinity_respecting_cfs(self, intel):
        world = _world(intel, PinnedScheduler())
        world.spawn(_app(), nthreads=3, affinity=frozenset({20, 21, 22}))
        world.spawn(_app("other"), nthreads=2, affinity=frozenset({0, 1}))
        placement = world.scheduler.place(world)
        by_pid = {}
        for tid, hw in placement.items():
            by_pid.setdefault(tid.pid, set()).add(hw)
        assert by_pid[1] <= {20, 21, 22}
        assert by_pid[2] <= {0, 1}

    def test_unpinned_process_uses_whole_machine(self, intel):
        world = _world(intel, PinnedScheduler())
        world.spawn(_app(), nthreads=32)
        placement = world.scheduler.place(world)
        assert len(set(placement.values())) == 32
