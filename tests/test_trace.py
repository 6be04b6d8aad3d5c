"""Tests for the tracing/telemetry module."""

import json
from dataclasses import replace

import pytest

from repro.analysis.trace import WorldTracer
from repro.apps import npb_model
from repro.apps.base import ApplicationModel
from repro.core.manager import HarpManager, ManagerConfig
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.event import make_world
from repro.sim.schedulers.cfs import CfsScheduler


def _world(intel):
    return World(
        intel, CfsScheduler(),
        governor=make_governor("performance", intel),
        seed=0, sensor_noise=0.0, perf_noise=0.0,
    )


class TestWorldTracer:
    def test_samples_at_interval(self, intel):
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.1)
        world.spawn(ApplicationModel(name="x", total_work=100.0), nthreads=2)
        world.run_for(1.0)
        assert 9 <= len(tracer.samples) <= 11

    def test_records_start_and_exit_events(self, intel):
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.05)
        world.spawn(ApplicationModel(name="short", total_work=0.5), nthreads=4)
        world.run_until_all_finished()
        kinds = [e for _, e in tracer.events]
        assert any(k.startswith("start") for k in kinds)
        assert any(k.startswith("exit") for k in kinds)

    def test_progress_monotone_in_trace(self, intel):
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.05)
        proc = world.spawn(npb_model("is.C"))
        world.run_for(1.0)
        progress = [s.progress[proc.pid] for s in tracer.samples
                    if proc.pid in s.progress]
        assert progress == sorted(progress)

    def test_daemons_excluded(self, intel):
        from repro.core.manager import RmDaemonModel

        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.05)
        world.spawn(RmDaemonModel(tick_hint_s=world.tick_s), nthreads=1,
                    daemon=True)
        world.run_for(0.3)
        assert all(not s.running for s in tracer.samples)

    def test_to_dict_and_save(self, intel, tmp_path):
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.1)
        world.spawn(ApplicationModel(name="x", total_work=1.0), nthreads=2)
        world.run_until_all_finished()
        path = tmp_path / "trace.json"
        tracer.save(path)
        data = json.loads(path.read_text())
        assert data["interval_s"] == 0.1
        assert data["samples"]
        first_apps = data["samples"][0]["apps"]
        assert any(v["name"] == "x" for v in first_apps.values())

    def test_timeline_render(self, intel):
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.05)
        world.spawn(ApplicationModel(name="alpha", total_work=0.8), nthreads=2)
        world.run_until_all_finished()
        text = tracer.timeline(width=20)
        assert "alpha" in text
        assert "#" in text

    def test_empty_trace(self, intel):
        # Both accessors are benign on an empty trace: no exceptions.
        world = _world(intel)
        tracer = WorldTracer(world)
        assert tracer.timeline() == "(empty trace)"
        assert tracer.average_power_w() == 0.0

    def test_timeline_matches_naive_nearest_scan(self, intel):
        # The bisect-based column lookup must agree with the O(n·width)
        # min() scan it replaced.
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.05)
        world.spawn(ApplicationModel(name="a", total_work=0.6), nthreads=2)
        world.run_for(0.4)
        world.spawn(ApplicationModel(name="b", total_work=0.6), nthreads=2)
        world.run_until_all_finished()
        width = 37
        end = tracer.samples[-1].time_s or 1e-9
        times = [s.time_s for s in tracer.samples]
        for col in range(width):
            t = end * (col + 0.5) / width
            fast = tracer._nearest_sample(times, t)
            naive = min(tracer.samples, key=lambda s: abs(s.time_s - t))
            assert abs(fast.time_s - t) == abs(naive.time_s - t)

    def test_average_power_positive(self, intel):
        world = _world(intel)
        tracer = WorldTracer(world, interval_s=0.05)
        world.spawn(ApplicationModel(name="x", total_work=100.0))
        world.run_for(0.5)
        assert tracer.average_power_w() > 20.0

    def test_invalid_interval(self, intel):
        with pytest.raises(ValueError):
            WorldTracer(_world(intel), interval_s=0.0)

    def test_tick_and_event_engines_trace_identically(self, intel):
        # A seeded managed run with an idle gap the event engine leaps
        # over: the tracer's wakeups put it on the same sample ticks, and
        # it samples before the manager acts, on both engines.
        traces = []
        for engine in ("tick", "event"):
            world = make_world(intel, CfsScheduler(), engine=engine, seed=3)
            tracer = WorldTracer(world, interval_s=0.07)
            manager = HarpManager(world, ManagerConfig(startup_delay_s=0.05))
            for name, work in (("is.C", 40.0), ("ep.C", 60.0)):
                model = replace(npb_model(name))
                model.total_work = work
                world.spawn(model, nthreads=2, managed=True)
            world.run_until_all_finished()
            world.run_for(2.0)
            world.spawn(ApplicationModel(name="late", total_work=1.0), nthreads=2)
            world.run_until_all_finished()
            manager.shutdown()
            traces.append(tracer.to_dict())
        assert traces[0]["samples"]
        assert traces[0] == traces[1]
