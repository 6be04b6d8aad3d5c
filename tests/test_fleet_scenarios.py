"""Fleet scenario engine: specs, trace generation, replay, and sweeps.

The scenario stack promises (a) traces are pure functions of
(spec, seed), (b) replay is engine-portable — ``run_trace`` produces the
same fleet under the tick and event engines — and (c) the parallel sweep
driver is scheduling-independent: ``jobs=2`` equals ``jobs=1`` modulo
wall-clock.  These tests pin all three, plus the CLI surface.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.scenario import (
    PROFILES,
    ScenarioSpec,
    TraceDriver,
    generate_trace,
    make_session_model,
    run_sweep,
    run_trace,
)
from repro.analysis.scenarios import make_platform
from repro.scenario.generator import SessionPlan
from repro.sim import CfsScheduler, make_world


def _small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t-small",
        duration_s=8.0,
        arrival="mmpp",
        rate_per_s=0.8,
        burst_rate_per_s=6.0,
        calm_dwell_s=3.0,
        burst_dwell_s=1.0,
        app_mix={"ep.C": 2.0, "is.C": 1.0},
        nthreads_choices=[1, 2],
        work_scale_mean=0.02,
        work_sigma=0.8,
        think_fraction=0.6,
        think_mean_s=1.0,
        burst_mean_s=0.3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpec:
    def test_json_round_trip(self) -> None:
        spec = _small_spec(max_live=128, diurnal_amplitude=0.5)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "warp_factor": 9})

    @pytest.mark.parametrize(
        "bad",
        [
            {"duration_s": 0.0},
            {"arrival": "bursty"},
            {"work_tail": "weibull"},
            {"think_fraction": 1.0},
            {"diurnal_amplitude": 1.5},
            {"app_mix": {}},
        ],
    )
    def test_validation(self, bad: dict) -> None:
        with pytest.raises(ValueError):
            ScenarioSpec(**bad)

    def test_named_profiles_are_valid_and_round_trip(self) -> None:
        assert {"idle-heavy", "bursty-1k", "steady-64", "diurnal-day"} <= set(
            PROFILES
        )
        for name, spec in PROFILES.items():
            assert spec.name == name
            assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestGenerator:
    def test_trace_is_deterministic(self) -> None:
        spec = _small_spec()
        assert generate_trace(spec, seed=7) == generate_trace(spec, seed=7)

    def test_trace_depends_on_seed_and_spec(self) -> None:
        spec = _small_spec()
        assert generate_trace(spec, seed=0) != generate_trace(spec, seed=1)
        bumped = replace(spec, rate_per_s=spec.rate_per_s * 2)
        assert generate_trace(spec, seed=0) != generate_trace(bumped, seed=0)

    def test_plans_are_well_formed(self) -> None:
        spec = _small_spec(duration_s=30.0)
        trace = generate_trace(spec, seed=3)
        assert trace
        for plan in trace:
            assert 0.0 <= plan.arrival_s < spec.duration_s
            assert plan.app in spec.app_mix
            assert plan.nthreads in spec.nthreads_choices
            assert plan.work_scale > 0.0
            assert plan.phases  # think_fraction > 0 → interactive
            assert all(b > 0 and t > 0 for b, t in plan.phases)

    def test_batch_sessions_have_no_phases(self) -> None:
        spec = _small_spec(think_fraction=0.0, work_tail="fixed")
        trace = generate_trace(spec, seed=3)
        assert trace
        assert all(not plan.phases for plan in trace)
        assert all(plan.work_scale == spec.work_scale_mean for plan in trace)

    def test_diurnal_thinning_reduces_arrivals(self) -> None:
        spec = _small_spec(
            arrival="poisson", rate_per_s=5.0, duration_s=120.0,
            diurnal_period_s=120.0,
        )
        full = generate_trace(spec, seed=5)
        thinned = generate_trace(
            replace(spec, diurnal_amplitude=0.9), seed=5
        )
        assert 0 < len(thinned) < len(full)


class TestSessionModel:
    @staticmethod
    def _demands(plan: SessionPlan, ticks: int) -> list[tuple[float, bool]]:
        """(published demand, runnable) of one session after each tick."""
        world = make_world(make_platform("intel"), CfsScheduler(), seed=0)
        TraceDriver(world, [plan])
        world.step()  # the arrival is admitted at the end of tick 0
        process = world.processes[1]
        seen = []
        for _ in range(ticks):
            world.step()
            seen.append(
                (process.demand, any(p is process for p, _ in world.runnable_pairs()))
            )
        return seen

    def test_interactive_gating(self) -> None:
        # Burst 3 ticks, think 2: TraceDriver publishes 1.0 and 0.0 at
        # each flip, and a thinking session is off the runnable set.
        plan = SessionPlan(0.0, "ep.C", 2, 50.0, phases=[(0.03, 0.02)])
        awake, asleep = (1.0, True), (0.0, False)
        assert self._demands(plan, 10) == [
            awake, awake, asleep, asleep, awake,
            awake, awake, asleep, asleep, awake,
        ]

    def test_batch_session_keeps_full_demand(self) -> None:
        plan = SessionPlan(0.0, "ep.C", 2, 50.0)
        assert self._demands(plan, 10) == [(1.0, True)] * 10

    def test_work_scaling(self) -> None:
        from repro.analysis.scenarios import resolve_model

        base = resolve_model("ep.C")
        model = make_session_model("ep.C", 0.25)
        assert model.total_work == pytest.approx(base.total_work * 0.25)
        # And the base registry instance is untouched.
        assert resolve_model("ep.C").total_work == base.total_work

    def test_session_model_keeps_base_type(self) -> None:
        from repro.analysis.scenarios import resolve_model
        from repro.apps.kpn import KpnApplicationModel

        model = make_session_model("lms", 1.0)
        assert type(model) is type(resolve_model("lms"))
        assert isinstance(model, KpnApplicationModel)


class TestRunTrace:
    def test_engine_parity(self) -> None:
        spec = _small_spec()
        tick = run_trace(spec, seed=2, engine="tick")
        event = run_trace(spec, seed=2, engine="event")
        for result in (tick, event):
            result.pop("wall_s")
            result.pop("engine")
        assert tick == event
        assert tick["spawned"] > 0

    def test_harp_policy_runs_managed(self) -> None:
        spec = _small_spec(policy="harp", scheduler="pinned")
        result = run_trace(spec, seed=1, engine="event")
        assert result["policy"] == "harp"
        assert result["allocation_epochs"] > 0
        assert result["spawned"] > 0

    def test_unknown_scheduler_and_policy(self) -> None:
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_trace(_small_spec(scheduler="fifo"), engine="tick")
        with pytest.raises(ValueError, match="unknown policy"):
            run_trace(_small_spec(policy="oracle"), engine="tick")

    def test_max_live_admission_cap(self) -> None:
        spec = _small_spec(
            arrival="poisson", rate_per_s=8.0, duration_s=10.0,
            think_fraction=0.9, think_mean_s=20.0, max_live=3,
        )
        result = run_trace(spec, seed=0, engine="event")
        assert result["rejected"] > 0
        assert result["peak_live"] <= 3
        assert result["spawned"] + result["rejected"] == result["arrivals"]

    def test_summary_consistency(self) -> None:
        result = run_trace(_small_spec(), seed=4, engine="event")
        assert result["completed"] + result["live_at_end"] == result["spawned"]
        assert result["peak_live"] >= result["live_at_end"]
        assert result["energy_j"] > 0


class TestDriver:
    def test_records_match_completions(self) -> None:
        from repro.analysis.scenarios import make_platform
        from repro.sim import CfsScheduler, make_world

        spec = _small_spec()
        world = make_world(
            make_platform("intel"), CfsScheduler(), engine="event", seed=0
        )
        driver = TraceDriver(world, generate_trace(spec, seed=0))
        world.run_for(spec.duration_s)
        assert len(driver.records) == driver.completed
        for rec in driver.records:
            assert rec["finish_s"] >= rec["start_s"] >= 0.0
            assert rec["cpu_s"] > 0.0
        assert driver.live_count() == driver.spawned - driver.completed


class TestSweep:
    def test_parallel_equals_sequential(self, tmp_path) -> None:
        specs = [_small_spec(), _small_spec(name="t-batch", think_fraction=0.0)]
        seq = run_sweep(specs, seeds=[0, 1], engine="event", jobs=1)
        par_path = tmp_path / "runs.jsonl"
        par = run_sweep(
            specs, seeds=[0, 1], engine="event", jobs=2,
            out_path=str(par_path),
        )

        def strip(runs: list[dict]) -> list[dict]:
            return [
                {k: v for k, v in r.items() if k != "wall_s"} for r in runs
            ]

        assert strip(seq["runs"]) == strip(par["runs"])
        lines = [
            json.loads(line)
            for line in par_path.read_text().splitlines()
        ]
        # JSONL is rewritten in deterministic (spec, seed) order.
        assert [(r["spec"], r["seed"]) for r in lines] == [
            ("t-batch", 0), ("t-batch", 1), ("t-small", 0), ("t-small", 1),
        ]
        assert strip(lines) == strip(par["runs"])

    def test_summary_shape(self) -> None:
        out = run_sweep([_small_spec()], seeds=[0, 1], engine="tick", jobs=1)
        row = out["summary"]["t-small"]
        assert row["runs"] == 2
        assert row["fleet_seconds"] == pytest.approx(16.0)
        assert row["wall_s_total"] >= row["wall_s_max"] > 0


class TestCliSweep:
    def test_sweep_smoke(self, tmp_path, capsys) -> None:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_small_spec().to_json())
        out_path = tmp_path / "runs.jsonl"
        summary_path = tmp_path / "summary.json"
        rc = main(
            [
                "sweep", "--spec", str(spec_path), "--seeds", "0",
                "--engine", "event", "--jobs", "1",
                "--out", str(out_path),
                "--summary-json", str(summary_path),
            ]
        )
        assert rc == 0
        assert "t-small" in capsys.readouterr().out
        assert len(out_path.read_text().splitlines()) == 1
        assert "t-small" in json.loads(summary_path.read_text())

    def test_profile_with_duration_override(self, tmp_path) -> None:
        out_path = tmp_path / "runs.jsonl"
        rc = main(
            [
                "sweep", "--profile", "steady-64", "--seeds", "0",
                "--duration", "5.0", "--jobs", "1",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        run = json.loads(out_path.read_text().splitlines()[0])
        assert run["duration_s"] == 5.0

    def test_unknown_profile_fails(self, capsys) -> None:
        assert main(["sweep", "--profile", "nope"]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_no_specs_fails(self, capsys) -> None:
        assert main(["sweep"]) == 2
        assert "nothing to sweep" in capsys.readouterr().err
