"""Hot-path performance benchmark: the allocator solver and the sim tick.

Times the two paths the ROADMAP's "as fast as the hardware allows" goal
depends on:

* **Allocator** — an 8-application × 64-operating-point MMKP solve
  (subgradient selection + greedy repair + placement) on the batched
  tensor path, against the recorded time of the retired scalar loops,
  plus the memoized-epoch fast path.
* **Simulation** — a multi-application 1000-tick world under CFS on the
  engine's one power path (array-shaped power/energy integration with
  placement reuse), against the recorded time of the retired scalar
  per-core integration.  The same world on the event engine must give
  ``==`` per-type energy.

Writes ``BENCH_hotpaths.json`` at the repo root (the perf trajectory
artifact) and prints a summary.  ``--smoke`` (or ``HARP_BENCH_SMOKE=1``)
runs a down-scaled profile and writes the JSON next to the results of the
other benchmarks instead, so CI never overwrites the committed numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py [--smoke]
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow running as a plain script
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.apps import npb_model
from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.topology import raptor_lake_i9_13900k
from repro.sim.engine import World
from repro.sim.event import make_world
from repro.sim.schedulers.cfs import CfsScheduler

RESULT_PATH = _REPO_ROOT / "BENCH_hotpaths.json"
SMOKE_RESULT_PATH = _REPO_ROOT / "benchmarks" / "results" / "BENCH_hotpaths_smoke.json"

SIM_APPS = ["ep.C", "mg.C", "ft.C", "cg.C", "is.C", "lu.C"]

#: Seconds the retired scalar per-core power integration took for the
#: 1000-tick simulation profile (``reference_s`` in BENCH_hotpaths.json
#: when that path still existed).  The full run gates its speedup on it.
SCALAR_REFERENCE_S = 6.18
SCALAR_REFERENCE_TICKS = 1000

#: Milliseconds per solve the retired scalar selection/repair loops took
#: on the full 8-app × 64-point allocator profile, without Pareto pruning
#: (the last ``reference_ms`` in BENCH_hotpaths.json when that path still
#: existed).  The full run gates its speedup on it.
SCALAR_REFERENCE_MS = 48.52
SCALAR_REFERENCE_PROFILE = (8, 64)


def _random_requests(
    layout: ErvLayout, rng: np.random.Generator, n_apps: int, n_points: int
) -> list[AllocationRequest]:
    """One solver instance: contended, hysteresis-bearing, mixed sizes."""
    requests = []
    for pid in range(n_apps):
        points = []
        for _ in range(n_points):
            p1 = int(rng.integers(0, 5))
            p2 = int(rng.integers(0, 5))
            e = int(rng.integers(0, 9))
            if p1 + p2 + e == 0:
                e = 1
            points.append(
                OperatingPoint(
                    erv=ExtendedResourceVector(layout, (p1, p2, e)),
                    utility=float(rng.uniform(0.5, 20.0)),
                    power=float(rng.uniform(1.0, 150.0)),
                    measured=True,
                    samples=1,
                )
            )
        requests.append(
            AllocationRequest(
                pid=pid,
                points=points,
                max_utility=20.0,
                preferred_erv=points[int(rng.integers(0, n_points))].erv,
            )
        )
    return requests


def bench_allocator(n_apps: int = 8, n_points: int = 64, n_instances: int = 20) -> dict:
    platform = raptor_lake_i9_13900k()
    layout = ErvLayout(platform)
    rng = np.random.default_rng(42)
    instances = [
        _random_requests(layout, rng, n_apps, n_points)
        for _ in range(n_instances)
    ]
    # cache_size=0: time the solver itself, not the memoization layer.
    alloc = LagrangianAllocator(platform, layout, cache_size=0)
    alloc.allocate(instances[0])  # warm-up
    start = time.perf_counter()
    for requests in instances:
        alloc.allocate(requests)
    solve_s = (time.perf_counter() - start) / n_instances

    # Memoized epochs: identical inputs skip the solver entirely.
    cached = LagrangianAllocator(platform, layout)
    cached.allocate(instances[0])
    start = time.perf_counter()
    for _ in range(n_instances):
        cached.allocate(instances[0])
    cached_s = (time.perf_counter() - start) / n_instances
    assert cached.stats.cache_hits == n_instances

    # The recorded scalar time only describes the full profile.
    reference_ms = (
        SCALAR_REFERENCE_MS
        if (n_apps, n_points) == SCALAR_REFERENCE_PROFILE
        else None
    )
    solve_ms, cached_ms = solve_s * 1e3, cached_s * 1e3
    return {
        "n_apps": n_apps,
        "n_points": n_points,
        "n_instances": n_instances,
        "reference_ms": reference_ms,
        "vectorized_ms": solve_ms,
        "cached_epoch_ms": cached_ms,
        "speedup": reference_ms / solve_ms if reference_ms else None,
        "cached_speedup": reference_ms / cached_ms if reference_ms else None,
    }


def _build_world(engine: str) -> World:
    world = make_world(
        raptor_lake_i9_13900k(), CfsScheduler(), engine=engine, seed=0
    )
    for name in SIM_APPS:
        world.spawn(npb_model(name))
    return world


def bench_sim(ticks: int = 1000) -> dict:
    _build_world("tick").step()  # warm-up (numpy dispatch, caches)
    world = _build_world("tick")
    start = time.perf_counter()
    for _ in range(ticks):
        world.step()
    elapsed = time.perf_counter() - start
    event = _build_world("event")
    event.run_for(ticks * event.tick_s)
    reference_s = SCALAR_REFERENCE_S * ticks / SCALAR_REFERENCE_TICKS
    return {
        "ticks": ticks,
        "apps": SIM_APPS,
        "reference_s": reference_s,
        "measured_s": elapsed,
        "speedup": reference_s / elapsed,
        "event_ticks": event.tick_index,
        "energy_by_type_j": dict(world.energy_by_type_j),
        "event_energy_by_type_j": dict(event.energy_by_type_j),
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        allocator = bench_allocator(n_apps=4, n_points=16, n_instances=3)
        sim = bench_sim(ticks=100)
    else:
        allocator = bench_allocator()
        sim = bench_sim()
    report = {
        "bench": "hotpaths",
        "smoke": smoke,
        "allocator": allocator,
        "sim": sim,
    }
    path = SMOKE_RESULT_PATH if smoke else RESULT_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nresults written to {path}")
    if not smoke:
        assert allocator["speedup"] >= 5.0, (
            f"allocator speedup {allocator['speedup']:.1f}x below the 5x target"
        )
        assert sim["speedup"] >= 3.0, (
            f"sim speedup {sim['speedup']:.1f}x below the 3x target"
        )
    assert sim["event_ticks"] == sim["ticks"], "event engine ran a different horizon"
    assert sim["event_energy_by_type_j"] == sim["energy_by_type_j"], (
        "tick and event engines diverged on per-type energy"
    )
    return report


def test_hotpaths_smoke():
    """Pytest entry point: scaled-down run, correctness assertions only."""
    run(smoke=True)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv or os.environ.get("HARP_BENCH_SMOKE") == "1"
    run(smoke=smoke)
