"""Event-engine benchmark: tick vs event wall-clock on fleet scenarios.

Four named profiles from :data:`repro.scenario.PROFILES` exercise the
regimes the event engine was built for:

* **idle-heavy** — sparse Poisson arrivals, the machine mostly idle; the
  event engine leaps the idle stretches and should win ≥ 20× (full
  profile) / ≥ 5× (smoke, shorter horizon so the fixed per-run costs
  weigh more).
* **steady-64** — a dense, always-busy fleet.  Since the busy-stretch
  fast-forward, stable stretches between scheduler/model state changes
  are integrated analytically, so the event engine must win ≥ 5× here
  too (full) / ≥ 2× (smoke).  Run over ≥ 3 seeds; the gate applies to
  the *minimum* speedup, the median is reported alongside.
* **bursty-1k** — MMPP arrivals with heavy-tailed, mostly-thinking
  interactive sessions sustaining ≥ 1k concurrently live apps for a
  simulated fleet-hour.  Run through the sweep driver over ≥ 3 seeds
  (the recorded artifact the ROADMAP's fleet-scale claim is gated on);
  every seed must finish in under 5 minutes.
* **steady-10k** — ~10k peak-live thinking sessions over a simulated
  hour.  At this density phase flips land roughly every tick, so the
  run is *event-bound*: the gate is a recorded wall-clock budget, not a
  speedup (the tick engine is far too slow to race here).

Each engine's wall time is the minimum of :data:`RATIO_REPEATS`
interleaved runs: one run of the 20 s smoke profile lasts 0.1–0.2 s, and
the ratio of two single runs swung by a quarter between runs of one tree.
Every tick-vs-event run pair also cross-checks bit parity on the
profile's summary (energy, ticks, completions) — a benchmark that drifts
is a bug, not a speedup.

Writes ``BENCH_eventsim.json`` at the repo root (full profile) or
``benchmarks/results/BENCH_eventsim_smoke.json`` (``--smoke`` /
``HARP_BENCH_SMOKE=1``), so CI never overwrites the committed numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_eventsim.py [--smoke]
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow running as a plain script
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.scenario import PROFILES, run_sweep, run_trace

RESULT_PATH = _REPO_ROOT / "BENCH_eventsim.json"
SMOKE_RESULT_PATH = (
    _REPO_ROOT / "benchmarks" / "results" / "BENCH_eventsim_smoke.json"
)

#: Fleet-hour wall-clock budget per seed for the full bursty-1k run.
FLEET_HOUR_BUDGET_S = 300.0

#: Wall-clock budget for the full steady-10k run (one simulated hour,
#: ~10k peak-live sessions, event engine).  Recorded headroom over the
#: ~11 minutes measured on the reference runner — at this density a
#: phase flip lands nearly every tick, so the run is event-bound and
#: the budget, not a speedup, is the contract.
STEADY_10K_BUDGET_S = 900.0

#: Full-profile speedup gates: min speedup across seeds must clear these.
IDLE_HEAVY_GATE = 20.0
STEADY_64_GATE = 5.0

#: Smoke gates (short horizons, fixed costs weigh more).
IDLE_HEAVY_SMOKE_GATE = 5.0
STEADY_64_SMOKE_GATE = 2.0

#: Interleaved event/tick run pairs per measured ratio; each engine's
#: wall time is its fastest run.
RATIO_REPEATS = 5


def _strip_wall(result: dict) -> dict:
    return {
        k: v for k, v in result.items() if k not in ("wall_s", "engine")
    }


def bench_engine_ratio(profile: str, duration_s: float, seed: int = 0) -> dict:
    """Run one profile under both engines; verify parity, report speedup.

    The engines run :data:`RATIO_REPEATS` times each, interleaved, and
    each engine's wall time is its minimum; every pair is checked for
    parity.
    """
    spec = replace(PROFILES[profile], duration_s=duration_s)
    event_walls: list[float] = []
    tick_walls: list[float] = []
    for _ in range(RATIO_REPEATS):
        event = run_trace(spec, seed=seed, engine="event")
        tick = run_trace(spec, seed=seed, engine="tick")
        if _strip_wall(event) != _strip_wall(tick):
            raise AssertionError(
                f"{profile}: tick/event summaries diverged — parity bug"
            )
        event_walls.append(event["wall_s"])
        tick_walls.append(tick["wall_s"])
    return {
        "profile": profile,
        "duration_s": duration_s,
        "seed": seed,
        "ticks": event["ticks"],
        "spawned": event["spawned"],
        "completed": event["completed"],
        "peak_live": event["peak_live"],
        "energy_j": event["energy_j"],
        "repeats": RATIO_REPEATS,
        "tick_wall_s": min(tick_walls),
        "event_wall_s": min(event_walls),
        "speedup": min(tick_walls) / min(event_walls),
    }


def bench_engine_ratio_seeds(
    profile: str, duration_s: float, seeds: list[int]
) -> dict:
    """Tick-vs-event ratio over several seeds; min and median speedups.

    The regression gate applies to the *minimum* — one slow seed is a
    regression, not noise to average away — while the median is the
    headline number.
    """
    runs = [bench_engine_ratio(profile, duration_s, seed=s) for s in seeds]
    speedups = [r["speedup"] for r in runs]
    return {
        "profile": profile,
        "duration_s": duration_s,
        "seeds": seeds,
        "speedups": speedups,
        "speedup_min": min(speedups),
        "speedup_median": statistics.median(speedups),
        "tick_wall_s_median": statistics.median(r["tick_wall_s"] for r in runs),
        "event_wall_s_median": statistics.median(
            r["event_wall_s"] for r in runs
        ),
        "runs": runs,
    }


def bench_fleet_hour(duration_s: float, seeds: list[int]) -> dict:
    """The recorded fleet-scale artifact: bursty-1k via the sweep driver.

    Workers are capped at the machine's core count: the per-seed
    wall-clock budget gate measures the engine, and oversubscribing a
    small runner (3 sweep processes on 1 core) would triple every
    run's apparent wall time with pure scheduler contention.
    """
    spec = replace(PROFILES["bursty-1k"], duration_s=duration_s)
    jobs = min(len(seeds), os.cpu_count() or 1)
    out = run_sweep([spec], seeds=seeds, engine="event", jobs=jobs)
    runs = out["runs"]
    walls = [r["wall_s"] for r in runs]
    return {
        "profile": "bursty-1k",
        "duration_s": duration_s,
        "seeds": seeds,
        "engine": "event",
        "wall_s_min": min(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_max": max(walls),
        "peak_live_min": min(r["peak_live"] for r in runs),
        "spawned": sum(r["spawned"] for r in runs),
        "completed": sum(r["completed"] for r in runs),
        "mean_energy_j": sum(r["energy_j"] for r in runs) / len(runs),
    }


def bench_steady_10k(duration_s: float, seed: int = 0) -> dict:
    """The dense ceiling: ~10k peak-live sessions, event engine only.

    No tick-engine race (it would take tens of minutes); the contract is
    the recorded wall-clock budget plus the 10k-peak-live shape check.
    """
    spec = replace(PROFILES["steady-10k"], duration_s=duration_s)
    result = run_trace(spec, seed=seed, engine="event")
    return {
        "profile": "steady-10k",
        "duration_s": duration_s,
        "seed": seed,
        "engine": "event",
        "wall_s": result["wall_s"],
        "budget_s": STEADY_10K_BUDGET_S,
        "ticks": result["ticks"],
        "spawned": result["spawned"],
        "completed": result["completed"],
        "peak_live": result["peak_live"],
        "energy_j": result["energy_j"],
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        idle = bench_engine_ratio("idle-heavy", duration_s=120.0)
        steady = bench_engine_ratio_seeds("steady-64", 20.0, seeds=[0])
        fleet = bench_fleet_hour(duration_s=120.0, seeds=[0])
        steady_10k = None
    else:
        idle = bench_engine_ratio("idle-heavy", duration_s=600.0)
        steady = bench_engine_ratio_seeds("steady-64", 120.0, seeds=[0, 1, 2])
        fleet = bench_fleet_hour(duration_s=3600.0, seeds=[0, 1, 2])
        steady_10k = bench_steady_10k(duration_s=3600.0)
    report = {
        "bench": "eventsim",
        "smoke": smoke,
        "idle_heavy": idle,
        "steady_64": steady,
        "fleet_hour": fleet,
    }
    if steady_10k is not None:
        report["steady_10k"] = steady_10k
    path = SMOKE_RESULT_PATH if smoke else RESULT_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nresults written to {path}")

    # CI regression gates.
    idle_floor = IDLE_HEAVY_SMOKE_GATE if smoke else IDLE_HEAVY_GATE
    assert idle["speedup"] >= idle_floor, (
        f"idle-heavy event speedup {idle['speedup']:.1f}x below the "
        f"{idle_floor:.0f}x gate"
    )
    steady_floor = STEADY_64_SMOKE_GATE if smoke else STEADY_64_GATE
    assert steady["speedup_min"] >= steady_floor, (
        f"steady-64 min event speedup {steady['speedup_min']:.1f}x below "
        f"the {steady_floor:.0f}x gate — busy-stretch fast-forward regressed"
    )
    if not smoke:
        assert fleet["wall_s_max"] <= FLEET_HOUR_BUDGET_S, (
            f"fleet-hour took {fleet['wall_s_max']:.0f}s, over the "
            f"{FLEET_HOUR_BUDGET_S:.0f}s budget"
        )
        assert fleet["peak_live_min"] >= 1000, (
            f"fleet-hour peaked at {fleet['peak_live_min']} live sessions, "
            "below the 1k-concurrent target"
        )
        assert steady_10k["peak_live"] >= 10_000, (
            f"steady-10k peaked at {steady_10k['peak_live']} live sessions, "
            "below the 10k-concurrent target"
        )
        assert steady_10k["wall_s"] <= STEADY_10K_BUDGET_S, (
            f"steady-10k took {steady_10k['wall_s']:.0f}s, over the "
            f"{STEADY_10K_BUDGET_S:.0f}s budget"
        )
    return report


def test_eventsim_smoke():
    """Pytest entry point: scaled-down run, regression gate only."""
    run(smoke=True)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv or os.environ.get("HARP_BENCH_SMOKE") == "1"
    run(smoke=smoke)
