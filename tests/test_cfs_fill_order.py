"""CFS's fill-order placement equals the per-thread greedy it replaced.

``CfsScheduler.place`` copies the leading run of unrestricted threads
from a remembered per-platform fill order and runs the greedy step only
from the first affinity mask on.  Each seeded world here is placed by the
production scheduler and by :class:`cfs_oracle.PerThreadCfsScheduler`;
the placements must be ``==`` and list their threads in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from cfs_oracle import PerThreadCfsScheduler
from repro.apps.base import ApplicationModel
from repro.platform.topology import odroid_xu3e, raptor_lake_i9_13900k
from repro.sim.engine import World
from repro.sim.schedulers.cfs import CfsScheduler

PLATFORMS = {"intel": raptor_lake_i9_13900k, "odroid": odroid_xu3e}

#: How the affinity masks of a world's processes (in pid order) are laid
#: out: none at all, all of them, a maskless prefix, a masked prefix.
LAYOUTS = ("none", "restricted", "none_then_restricted", "restricted_then_none")

SEEDS = range(25)


def _app() -> ApplicationModel:
    return ApplicationModel(name="synthetic", total_work=1e6, serial_fraction=0.0)


def _mask(rng: np.random.Generator, hw_ids: list[int]) -> frozenset[int]:
    size = int(rng.integers(1, len(hw_ids) + 1))
    return frozenset(rng.choice(hw_ids, size=size, replace=False).tolist())


def _masks(rng: np.random.Generator, layout: str, hw_ids: list[int]) -> list:
    """Per-process affinity masks, in spawn order, for ``layout``."""
    if layout in ("none", "restricted"):
        n_procs = int(rng.integers(1, 9))
        n_free = n_procs if layout == "none" else 0
        masked_first = False
    else:
        n_procs = int(rng.integers(2, 9))
        n_free = int(rng.integers(1, n_procs))
        masked_first = layout == "restricted_then_none"
    masks = [_mask(rng, hw_ids) for _ in range(n_procs - n_free)]
    free = [None] * n_free
    return masks + free if masked_first else free + masks


def _world(platform, layout: str, seed: int) -> World:
    rng = np.random.default_rng(seed)
    world = World(
        platform, CfsScheduler(), seed=seed, sensor_noise=0.0, perf_noise=0.0
    )
    hw_ids = [t.thread_id for t in platform.hw_threads]
    for mask in _masks(rng, layout, hw_ids):
        world.spawn(_app(), nthreads=int(rng.integers(1, 13)), affinity=mask)
    return world


def _assert_same(scheduler: CfsScheduler, world: World) -> None:
    expected = PerThreadCfsScheduler().place(world)
    placement = scheduler.place(world)
    assert placement == expected
    assert list(placement.items()) == list(expected.items())


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_place_matches_per_thread_greedy(platform_name: str, layout: str) -> None:
    platform = PLATFORMS[platform_name]()
    # One scheduler over every seed: its fill order grows and is reused
    # as the thread counts rise and fall.  A fresh one places each world
    # from an empty memo.
    reused = CfsScheduler()
    for seed in SEEDS:
        world = _world(platform, layout, seed)
        _assert_same(reused, world)
        _assert_same(CfsScheduler(), world)


def test_mask_outside_the_platform_places_nothing() -> None:
    platform = odroid_xu3e()
    world = World(platform, CfsScheduler(), seed=0)
    world.spawn(_app(), nthreads=3)
    world.spawn(_app(), nthreads=2, affinity=frozenset({10_000}))
    world.spawn(_app(), nthreads=4)
    _assert_same(CfsScheduler(), world)


def test_one_scheduler_across_platforms_and_thread_counts() -> None:
    intel = raptor_lake_i9_13900k()
    odroid = odroid_xu3e()
    scheduler = CfsScheduler()
    # Unrestricted thread counts that grow and shrink on each platform,
    # switching platforms between placements, then masked worlds too.
    steps = [
        (intel, 40), (odroid, 6), (intel, 10), (odroid, 20), (intel, 70),
        (intel, 3), (odroid, 2), (odroid, 9),
    ]
    for platform, nthreads in steps:
        world = World(platform, CfsScheduler(), seed=0)
        world.spawn(_app(), nthreads=nthreads)
        _assert_same(scheduler, world)
    for seed, (platform, layout) in enumerate(
        [(odroid, "none_then_restricted"), (intel, "restricted_then_none"),
         (odroid, "none"), (intel, "none_then_restricted")]
    ):
        _assert_same(scheduler, _world(platform, layout, seed))
