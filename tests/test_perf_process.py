"""Tests for the perf substrate and simulated processes."""

import pytest

from repro.apps import npb_model
from repro.apps.base import ApplicationModel
from repro.sim.engine import World
from repro.sim.perf import IntervalReader, PerfCounters
from repro.sim.process import SimProcess, SimThread, ThreadId
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.eas import EasScheduler, _catch_up, _pelt_decay


def _perf_world(intel):
    """A noise-free world running one single-threaded app alone on a P
    hardware thread: 1 work unit/s, so 1e9 instructions/s."""
    world = World(
        intel, CfsScheduler(), seed=0, sensor_noise=0.0, perf_noise=0.0
    )
    model = ApplicationModel(
        name="synthetic", total_work=100.0, serial_fraction=0.0
    )
    return world, world.spawn(model, nthreads=1, affinity=frozenset({0}))


class _NegativeIps(ApplicationModel):
    """Reports a negative instruction rate."""

    def perf(self, slots, process):
        return super().perf(slots, process)._replace(ips=-1.0)


class TestPerfCounters:
    def test_accumulate_and_read(self, intel):
        world, proc = _perf_world(intel)
        world.run_for(0.5)
        assert world.perf.read_instructions(proc.pid) == proc.instructions
        assert proc.instructions == pytest.approx(5e8, rel=0.01)
        assert proc.cpu_time_by_type == {"P": pytest.approx(0.5)}

    def test_unknown_pid_zero(self):
        perf = PerfCounters()
        assert perf.read_instructions(9) == 0.0

    def test_negative_rejected(self, intel):
        world = World(intel, CfsScheduler(), seed=0)
        world.spawn(_NegativeIps(name="negative"), nthreads=1)
        with pytest.raises(ValueError, match="negative instruction rate"):
            world.step()

    def test_noisy_rate_close(self):
        perf = PerfCounters(noise_std=0.02, seed=0)
        rates = [perf.noisy_rate(1e9) for _ in range(200)]
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(1e9, rel=0.01)

    def test_interval_reader_first_sample_none(self, intel):
        world, proc = _perf_world(intel)
        reader = IntervalReader(world.perf)
        assert reader.sample_ips(proc.pid, 0.0) is None

    def test_interval_reader_derives_rate(self, intel):
        world, proc = _perf_world(intel)
        reader = IntervalReader(world.perf)
        reader.sample_ips(proc.pid, world.time_s)
        world.run_for(0.05)
        rate = reader.sample_ips(proc.pid, world.time_s)
        assert rate == pytest.approx(proc.instructions / 0.05)
        assert rate == pytest.approx(1e9, rel=0.01)

    def test_interval_reader_zero_interval(self, intel):
        world, proc = _perf_world(intel)
        reader = IntervalReader(world.perf)
        world.run_for(0.05)
        reader.sample_ips(proc.pid, world.time_s)
        assert reader.sample_ips(proc.pid, world.time_s) is None


class _Clock:
    """The two world attributes EAS's PELT reads: tick length and clock."""

    def __init__(self, tick_s: float) -> None:
        self.tick_s = tick_s
        self.tick_index = 0


class TestSimThread:
    """PELT, kept by EAS: ``account`` folds in ticks a thread ran, and a
    lazy read (``_catch_up``, run by ``place()``) decays the rest."""

    def test_pelt_rises_under_load(self):
        eas, world = EasScheduler(), _Clock(0.01)
        thread = SimThread(tid=ThreadId(1, 0))
        for _ in range(10):
            eas.account(world, [(thread, 1.0)], 1)
            world.tick_index += 1
        # From 0, t busy seconds bring the average to 1 - 2^(-t / 32 ms).
        assert thread.utilization == pytest.approx(1 - 0.5 ** (0.1 / 0.032))
        assert thread.utilization > 0.85
        assert thread.pelt_tick == 10

    def test_pelt_decays_when_idle(self):
        thread = SimThread(tid=ThreadId(1, 0), utilization=1.0)
        _catch_up(thread, 100, _pelt_decay(0.01))
        assert thread.utilization < 0.15
        assert thread.pelt_tick == 100

    def test_pelt_halflife(self):
        thread = SimThread(tid=ThreadId(1, 0), utilization=1.0)
        _catch_up(thread, 1, _pelt_decay(0.032))
        assert thread.utilization == pytest.approx(0.5)

    def test_account_of_k_ticks_equals_k_single_ticks(self):
        eas = EasScheduler()
        batched, stepped = _Clock(0.01), _Clock(0.01)
        one = SimThread(tid=ThreadId(1, 0), utilization=0.3, pelt_tick=0)
        many = SimThread(tid=ThreadId(1, 0), utilization=0.3, pelt_tick=0)
        batched.tick_index = stepped.tick_index = 5  # after 5 idle ticks
        eas.account(batched, [(one, 0.7)], 37)
        for _ in range(37):
            eas.account(stepped, [(many, 0.7)], 1)
            stepped.tick_index += 1
        assert (one.utilization, one.pelt_tick) == (
            many.utilization, many.pelt_tick,
        )
        assert one.pelt_tick == 42


class TestSimProcess:
    def test_thread_sync_on_resize(self):
        proc = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=4)
        assert len(proc.threads) == 4
        proc.set_nthreads(2)
        assert len(proc.threads) == 2
        proc.set_nthreads(6)
        assert len(proc.threads) == 6
        assert [t.tid.tidx for t in proc.threads] == list(range(6))

    def test_invalid_nthreads(self):
        proc = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=4)
        with pytest.raises(ValueError):
            proc.set_nthreads(0)
        with pytest.raises(ValueError):
            SimProcess(pid=1, model=npb_model("ep.C"), nthreads=0)

    def test_empty_affinity_rejected(self):
        proc = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=1)
        with pytest.raises(ValueError):
            proc.set_affinity(frozenset())

    def test_progress_fraction(self):
        model = npb_model("ep.C")
        proc = SimProcess(pid=1, model=model, nthreads=1)
        proc.work_done = model.total_work / 2
        assert proc.progress_fraction() == pytest.approx(0.5)
        assert proc.remaining_work() == pytest.approx(model.total_work / 2)

    def test_elapsed(self):
        proc = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=1,
                          start_time_s=2.0)
        assert proc.elapsed_s(5.0) == 3.0
        proc.finished = True
        proc.finish_time_s = 4.0
        assert proc.elapsed_s(100.0) == 2.0

    def test_active_threads_empty_after_finish(self):
        proc = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=4)
        proc.finished = True
        assert proc.active_threads == []
