"""Hot-path equivalence and behavior tests.

The batched allocator must be interchangeable with the scalar test
oracle in ``alloc_oracle.py`` (same selections, same placement), and
the engine's array-shaped power kernel must match a scalar per-core sum.  These tests
pin that equivalence with seeded random instances (mandatory points,
hysteresis, reserved cores included) and exercise the hot-path plumbing
— ERV caching, the layout projection, the repair-step budget, solve
memoization and its invalidation, and the engine's placement cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from alloc_oracle import ScalarOracleAllocator
from repro.apps import npb_model
from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.power import CorePowerModel
from repro.platform.topology import odroid_xu3e, raptor_lake_i9_13900k
from repro.sim.engine import World
from repro.sim.process import ENERGY_TRUE_J
from repro.sim.schedulers.cfs import CfsScheduler

N_INSTANCES = 200


def _random_instance(
    layout: ErvLayout, rng: np.random.Generator
) -> tuple[list[AllocationRequest], dict[str, int] | None]:
    """A randomized solver input mixing the paper's request shapes.

    Roughly a quarter of the applications are mandatory (exploration
    pseudo-requests pinned to their first point), most non-mandatory ones
    carry a preferred ERV (hysteresis), and a third of the instances
    withhold reserved background cores.
    """
    n_apps = int(rng.integers(2, 7))
    requests = []
    for pid in range(n_apps):
        n_points = int(rng.integers(4, 17))
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
        mandatory = rng.random() < 0.25
        preferred = None
        if not mandatory and rng.random() < 0.7:
            preferred = points[int(rng.integers(0, n_points))].erv
        requests.append(
            AllocationRequest(
                pid=pid,
                points=points,
                max_utility=20.0,
                mandatory=mandatory,
                preferred_erv=preferred,
            )
        )
    reserved = None
    if rng.random() < 1 / 3:
        reserved = {"P": int(rng.integers(0, 3)), "E": int(rng.integers(0, 5))}
    return requests, reserved


def test_vectorized_matches_reference_on_random_instances(intel, intel_layout):
    """Seeded sweep: the batched solver agrees with the scalar oracle.

    Selections are compared point-for-point (ties are measure-zero with
    continuous random characteristics, so unique argmins transfer), and
    total cost, feasibility, co-allocation flags, and concrete placement
    must all match.
    """
    rng = np.random.default_rng(1234)
    ref = ScalarOracleAllocator(intel, intel_layout, cache_size=0)
    vec = LagrangianAllocator(intel, intel_layout, cache_size=0)
    for _ in range(N_INSTANCES):
        requests, reserved = _random_instance(intel_layout, rng)
        res_ref = ref.allocate(requests, reserved=reserved)
        res_vec = vec.allocate(requests, reserved=reserved)
        assert res_ref.feasible == res_vec.feasible
        assert set(res_ref.selections) == set(res_vec.selections)
        total_ref = total_vec = 0.0
        for req in requests:
            s_ref = res_ref.selections[req.pid]
            s_vec = res_vec.selections[req.pid]
            assert s_ref.point is s_vec.point
            assert s_ref.co_allocated == s_vec.co_allocated
            assert s_ref.hw_threads == s_vec.hw_threads
            total_ref += s_ref.point.cost(req.max_utility)
            total_vec += s_vec.point.cost(req.max_utility)
        assert total_ref == total_vec
    # The sweep must actually have exercised the hot paths.
    assert ref.stats.solves == vec.stats.solves == N_INSTANCES
    assert vec.stats.points_pruned > 0
    assert vec.stats.repair_calls > 0


def test_tie_breaks_match_the_oracle(intel, intel_layout):
    """Apps drawing from one small menu of points tie constantly.

    The continuous sweep above almost never ties, so it cannot see how
    ties are broken; here the batched repair must pick the lowest
    (app, point) among equal-penalty swaps, exactly like the oracle.
    """
    menu = [
        (counts, utility, power)
        for counts in ((4, 0, 0), (2, 0, 2), (0, 0, 8), (1, 1, 4))
        for utility, power in ((10.0, 40.0), (20.0, 90.0))
    ]
    rng = np.random.default_rng(99)
    ref = ScalarOracleAllocator(intel, intel_layout, cache_size=0)
    vec = LagrangianAllocator(intel, intel_layout, cache_size=0)
    for _ in range(50):
        requests = [
            AllocationRequest(
                pid=pid,
                points=[
                    OperatingPoint(
                        erv=ExtendedResourceVector(intel_layout, menu[k][0]),
                        utility=menu[k][1],
                        power=menu[k][2],
                    )
                    for k in rng.choice(len(menu), 4, replace=False)
                ],
                max_utility=20.0,
            )
            for pid in range(int(rng.integers(3, 9)))
        ]
        res_ref = ref.allocate(requests)
        res_vec = vec.allocate(requests)
        for req in requests:
            s_ref = res_ref.selections[req.pid]
            s_vec = res_vec.selections[req.pid]
            assert s_ref.point is s_vec.point
            assert s_ref.hw_threads == s_vec.hw_threads
    assert vec.stats.repair_steps > 0


def test_erv_derived_quantities_are_cached_and_safe(intel_layout):
    erv = ExtendedResourceVector(intel_layout, (1, 2, 4))
    first = erv.core_vector()
    assert first == [3, 4]
    assert erv.total_cores() == 7
    # Mutating the returned list must not corrupt the cache.
    first.append(99)
    assert erv.core_vector() == [3, 4]
    assert erv._core_vector == (3, 4)
    assert erv._total_cores == 7


def test_type_projection_matches_core_vector(odroid, odroid_layout):
    proj = odroid_layout.type_projection()
    assert proj is odroid_layout.type_projection()  # cached
    for erv in odroid_layout.enumerate_all(include_empty=True)[:200]:
        produced = np.asarray(erv.counts, dtype=float) @ proj
        assert produced.tolist() == [float(c) for c in erv.core_vector()]


def test_repair_bound_scales_with_problem_size(intel, intel_layout):
    alloc = LagrangianAllocator(intel, intel_layout)
    big = ExtendedResourceVector(intel_layout, (4, 0, 0))
    requests = [
        AllocationRequest(
            pid=pid,
            points=[OperatingPoint(erv=big, utility=5.0, power=10.0)],
            max_utility=10.0,
        )
        for pid in range(3)
    ]
    problem = alloc._build_problem(requests, None, 2)
    assert alloc._repair_bound(problem) == 3 * problem.C.shape[1]


def test_repair_give_up_is_counted_and_falls_back_to_coallocation(
    intel, intel_layout
):
    """Every point oversubscribes the machine: repair must give up
    observably and the placement must co-allocate rather than fail."""
    alloc = LagrangianAllocator(intel, intel_layout, cache_size=0)
    whole_machine = ExtendedResourceVector(intel_layout, (8, 0, 16))
    requests = [
        AllocationRequest(
            pid=pid,
            points=[OperatingPoint(erv=whole_machine, utility=5.0, power=10.0)],
            max_utility=10.0,
        )
        for pid in range(2)
    ]
    result = alloc.allocate(requests)
    assert not result.feasible
    assert any(s.co_allocated for s in result.selections.values())
    assert alloc.stats.repair_give_ups >= 1


def _small_requests(layout: ErvLayout) -> list[AllocationRequest]:
    points = [
        OperatingPoint(
            erv=ExtendedResourceVector(layout, (2, 0, 0)),
            utility=8.0,
            power=20.0,
        ),
        OperatingPoint(
            erv=ExtendedResourceVector(layout, (0, 0, 4)),
            utility=6.0,
            power=9.0,
        ),
    ]
    return [AllocationRequest(pid=1, points=points, max_utility=10.0)]


def test_memoization_hits_and_returns_unaliased_results(intel, intel_layout):
    alloc = LagrangianAllocator(intel, intel_layout)
    requests = _small_requests(intel_layout)
    first = alloc.allocate(requests)
    second = alloc.allocate(requests)
    assert alloc.stats.solves == 1
    assert alloc.stats.cache_hits == 1
    sel1, sel2 = first.selections[1], second.selections[1]
    assert sel1 is not sel2  # fresh Selection objects per hit
    assert sel1.point is sel2.point
    assert sel1.hw_threads == sel2.hw_threads
    # Mutating one result must not leak into later cache hits.
    sel2.co_allocated = True
    third = alloc.allocate(requests)
    assert third.selections[1].co_allocated is False


def test_memoization_invalidated_by_in_place_mutation(intel, intel_layout):
    """The fingerprint is by value: EMA updates or table edits that mutate
    a request's points in place must force a fresh solve."""
    alloc = LagrangianAllocator(intel, intel_layout)
    requests = _small_requests(intel_layout)
    alloc.allocate(requests)
    requests[0].points[1].power = 200.0  # in-place characteristic update
    alloc.allocate(requests)
    assert alloc.stats.solves == 2
    requests[0].points.append(
        OperatingPoint(
            erv=ExtendedResourceVector(intel_layout, (1, 0, 0)),
            utility=2.0,
            power=3.0,
        )
    )
    alloc.allocate(requests)
    assert alloc.stats.solves == 3
    # Unchanged inputs keep hitting.
    alloc.allocate(requests)
    assert alloc.stats.solves == 3 and alloc.stats.cache_hits == 1


def _sim_world() -> World:
    world = World(raptor_lake_i9_13900k(), CfsScheduler(), seed=0)
    for name in ("ep.C", "cg.C", "is.C"):
        world.spawn(npb_model(name))
    return world


def _scalar_power_oracle(world, busy_fraction, app_busy_on_core, freqs):
    """One tick of package power, per-type energy and ground-truth energy
    attribution, summed core by core with :class:`CorePowerModel`."""
    dt = world.tick_s
    platform = world.platform
    superlinear = 0.92 + 0.16 * sum(busy_fraction.values()) / platform.n_hw_threads
    package = platform.uncore_power_w
    energy = {ct.name: 0.0 for ct in platform.core_types}
    true_j: dict[int, float] = {}
    for core in platform.cores:
        ct = core.core_type
        fractions = [
            min(1.0, busy_fraction.get(t.thread_id, 0.0)) for t in core.hw_threads
        ]
        power = CorePowerModel(ct).power_fractional(fractions, freqs[core.core_id])
        mix = app_busy_on_core.get(core.core_id, {})
        weights = {
            pid: used * world.processes[pid].model.power_intensity
            for pid, used in mix.items()
        }
        intensity = sum(weights.values()) / sum(mix.values()) if mix else 1.0
        power = ct.idle_power_w + (power - ct.idle_power_w) * intensity * superlinear
        package += power
        energy[ct.name] += power * dt
        dynamic = power - ct.idle_power_w
        if dynamic > 0:
            for pid, weight in weights.items():
                true_j[pid] = true_j.get(pid, 0.0) + (
                    dynamic * dt * weight / sum(weights.values())
                )
    return package, energy, true_j


@pytest.mark.parametrize(
    "make_platform",
    [raptor_lake_i9_13900k, odroid_xu3e],
    ids=["intel", "odroid"],
)
def test_power_tick_matches_scalar_oracle(make_platform):
    """The engine's one power kernel against an independent per-core sum.

    Seeded random ticks: per-hw-thread busy fractions (SMT siblings
    included, a few above 1 to exercise the clamp), per-core frequencies
    across each core type's DVFS range, and per-core mixes of apps with
    different power intensities.
    """
    world = World(make_platform(), CfsScheduler(), seed=0)
    pids = []
    for name, intensity in (("ep.C", 0.7), ("cg.C", 1.0), ("is.C", 1.4)):
        model = npb_model(name)
        model.power_intensity = intensity
        pids.append(world.spawn(model).pid)
    rng = np.random.default_rng(7)
    platform = world.platform
    # Ledger index → what it accumulates: busy seconds per type first,
    # then energy per type, then each process's ground-truth energy.
    n_types = len(platform.core_types)
    energy_at = {
        n_types + i: ct.name for i, ct in enumerate(platform.core_types)
    }
    true_at = {world.processes[pid]._base + ENERGY_TRUE_J: pid for pid in pids}
    for _ in range(50):
        busy_fraction: dict[int, float] = {}
        app_busy_on_core: dict[int, dict[int, float]] = {}
        for core in platform.cores:
            for hw in core.hw_threads:
                if rng.random() < 0.3:
                    continue  # idle hw thread
                frac = float(rng.uniform(0.0, 1.05))
                busy_fraction[hw.thread_id] = frac
                split = float(rng.uniform(0.0, 1.0))
                owners = rng.choice(pids, size=2, replace=False).tolist()
                mix = app_busy_on_core.setdefault(core.core_id, {})
                for pid, part in zip(owners, (split, 1.0 - split)):
                    mix[pid] = mix.get(pid, 0.0) + frac * part
        freqs = {
            c.core_id: float(
                rng.uniform(c.core_type.min_freq_mhz, c.core_type.max_freq_mhz)
            )
            for c in platform.cores
        }
        idx: list[int] = []
        inc: list[float] = []
        # The kernel's inputs: clamped busy fractions in grouped order,
        # their sum, and one mix term (and intensity) per core.
        busy = np.zeros(len(world._hw_grouped))
        for hw_id, frac in busy_fraction.items():
            busy[world._hw_pos[hw_id]] = frac if frac < 1.0 else 1.0
        mixes = [
            world._mix_term(
                core_id, [world.processes[pid] for pid in mix],
                list(mix.values()),
            )
            for core_id, mix in app_busy_on_core.items()
        ]
        intensity = np.ones(len(world._core_ids))
        for term in mixes:
            intensity[term[0]] = term[4]
        package, _ = world._power_tick(
            busy, sum(busy_fraction.values()), intensity, mixes, freqs,
            idx, inc,
        )
        acc_energy: dict[str, float] = {}
        acc_true: dict[int, float] = {}
        for i, add in zip(idx, inc):
            if i in energy_at:
                name = energy_at[i]
                acc_energy[name] = acc_energy.get(name, 0.0) + add
            elif i in true_at:
                pid = true_at[i]
                acc_true[pid] = acc_true.get(pid, 0.0) + add
            else:
                assert i < n_types  # busy seconds per core type
        want_package, want_energy, want_true = _scalar_power_oracle(
            world, busy_fraction, app_busy_on_core, freqs
        )
        assert package == pytest.approx(want_package, rel=1e-12)
        assert acc_energy == pytest.approx(want_energy, rel=1e-12)
        assert acc_true == pytest.approx(want_true, rel=1e-12)
        assert acc_true  # the tick attributed dynamic energy


def test_engine_placement_cache_recomputes_on_affinity_change():
    world = _sim_world()
    world.step()
    world.step()
    sig_before = world._placement_sig
    assert sig_before is not None  # CFS placements are cacheable
    pid = next(iter(world.processes))
    world.processes[pid].set_affinity(frozenset({0, 1}))
    world.step()
    assert world._placement_sig != sig_before
