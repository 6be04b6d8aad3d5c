"""The RM's per-epoch array paths equal the per-point reference with ``==``.

``tests/epoch_oracle.py`` keeps the per-point Python that the
``ErvIndex``-based code replaced.  Random seeded tables on the Intel
(764 ERVs) and Odroid (24 ERVs) layouts pin each array path to it, and
whole Fig. 6 runs on both engines pin the per-epoch selections and the
energy.
"""

import numpy as np
import pytest

from epoch_oracle import (
    PerPointManager,
    PerPointPlanner,
    PerPointRowsAllocator,
    allocatable_points,
    exploration_candidates,
    measured_points,
    request_rows,
)
from repro.analysis.scenarios import make_platform, resolve_model
from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.core.exploration import ExplorationPlanner
from repro.core.manager import HarpManager, ManagerConfig
from repro.core.operating_point import (
    MaturityStage,
    OperatingPoint,
    OperatingPointTable,
)
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.event import EventWorld
from repro.sim.schedulers.pinned import PinnedScheduler

LAYOUTS = ["intel_layout", "odroid_layout"]
SEEDS = range(6)


def _outside_ervs(layout):
    """ERVs with no row in the enumerated space: empty and over capacity."""
    over = [0] * len(layout)
    over[0] = layout.platform.capacity_vector()[0] + 1
    return [layout.zero(), ExtendedResourceVector(layout, tuple(over))]


def _random_table(layout, seed, name="app"):
    """A table mixing measured, predicted, zero-utility and odd points."""
    rng = np.random.default_rng(seed)
    space = layout.enumerate_all()
    order = rng.permutation(len(space))[: max(8, len(space) * 2 // 3)]
    ervs = [space[i] for i in order] + _outside_ervs(layout)
    table = OperatingPointTable(name, layout)
    for erv in ervs:
        kind = rng.integers(4)
        if kind == 0:
            table.record_measurement(
                erv, float(rng.uniform(0, 50)), float(rng.uniform(1, 90))
            )
        elif kind == 1:
            table.get_or_create(erv).set_predicted(
                float(rng.uniform(0, 50)), float(rng.uniform(1, 90))
            )
        elif kind == 2:
            table.get_or_create(erv)  # unmeasured, zero utility
        else:
            table.record_measurement(erv, 0.0, float(rng.uniform(1, 90)))
    return table


def _random_capacity(layout, rng):
    return [
        int(rng.integers(0, cap + 1))
        for cap in layout.platform.capacity_vector()
    ]


def _manager(platform):
    return HarpManager(World(platform, PinnedScheduler()), ManagerConfig())


@pytest.mark.parametrize("layout_name", LAYOUTS)
class TestErvIndex:
    def test_rows_match_counts_and_core_vectors(self, layout_name, request):
        layout = request.getfixturevalue(layout_name)
        index = layout.index()
        assert len(index) == layout.space_size() == len(layout.enumerate_all())
        ervs = list(index.ervs) + _outside_ervs(layout)
        rows = index.rows(ervs)
        for erv, row in zip(ervs, rows):
            assert tuple(index.counts[row]) == erv.counts
            assert list(index.cores[row]) == erv.core_vector()
        # Equal ERVs from another layout object share the rows.
        twin = ErvLayout(layout.platform)
        assert list(index.rows(twin.enumerate_all())) == list(range(len(index)))
        assert list(index.rows(_outside_ervs(twin))) == list(rows[len(index):])


@pytest.mark.parametrize("layout_name", LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS)
class TestEpochArrays:
    def test_exploration_candidates(self, layout_name, seed, request):
        layout = request.getfixturevalue(layout_name)
        manager = _manager(layout.platform)
        rng = np.random.default_rng(seed)
        space = layout.enumerate_all()
        for _ in range(5):
            cap = _random_capacity(layout, rng)
            want = exploration_candidates(space, cap)
            assert manager._exploration_candidates(cap) == want
            # _advance_exploration's keep-current test is this membership.
            members = set(want)
            for erv in space + _outside_ervs(layout):
                fits = not erv.is_empty() and erv.fits(cap)
                assert fits == (erv in members)

    def test_allocatable_points(self, layout_name, seed, request):
        layout = request.getfixturevalue(layout_name)
        manager = _manager(layout.platform)
        table = _random_table(layout, seed)
        rng = np.random.default_rng(seed + 100)
        for cap in [layout.platform.capacity_vector()] + [
            _random_capacity(layout, rng) for _ in range(4)
        ]:
            got = manager._allocatable_points(table, cap)
            want = allocatable_points(table, cap)
            assert [id(p) for p in got] == [id(p) for p in want]

    def test_predictions(self, layout_name, seed, request):
        layout = request.getfixturevalue(layout_name)
        rng = np.random.default_rng(seed)
        space = layout.enumerate_all()
        half = sorted(rng.permutation(len(space))[: len(space) // 2])
        candidates = [space[i] for i in half]
        array_table = _random_table(layout, seed)
        point_table = _random_table(layout, seed)
        written = ExplorationPlanner(layout).predict_missing(
            array_table, candidates
        )
        assert written == PerPointPlanner(layout).predict_missing(
            point_table, candidates
        )
        assert written > 0
        assert [
            (p.erv, p.utility, p.power, p.measured) for p in array_table
        ] == [(p.erv, p.utility, p.power, p.measured) for p in point_table]

    def test_next_point_and_furthest_point(self, layout_name, seed, request):
        layout = request.getfixturevalue(layout_name)
        rng = np.random.default_rng(seed)
        space = layout.enumerate_all()
        planner, reference = ExplorationPlanner(layout), PerPointPlanner(layout)
        table = OperatingPointTable("app", layout)
        visited_stages = set()
        for _ in range(len(space) if len(space) < 30 else 30):
            candidates = [
                space[i]
                for i in rng.permutation(len(space))[: max(3, len(space) // 3)]
            ]
            want = reference.next_point(table, candidates)
            assert planner.next_point(table, candidates) == want
            visited_stages.add(table.stage)
            measured = {p.erv for p in measured_points(table)}
            unmeasured = [c for c in candidates if c not in measured]
            if unmeasured and measured:
                rows = layout.index().rows(unmeasured)
                assert planner._furthest_point(
                    planner._measured_rows(table), unmeasured, rows
                ) == reference.furthest_point(measured, unmeasured)
            erv = want or candidates[0]
            table.record_measurement(
                erv, float(rng.uniform(1, 50)), float(rng.uniform(1, 90))
            )
        assert MaturityStage.INITIAL in visited_stages
        assert MaturityStage.REFINEMENT in visited_stages

    def test_request_keys_rows_and_pruning(self, layout_name, seed, request):
        layout = request.getfixturevalue(layout_name)
        allocator = LagrangianAllocator(layout.platform, layout)
        reference = PerPointRowsAllocator._request_key
        rng = np.random.default_rng(seed)
        table = _random_table(layout, seed)
        points = allocatable_points(table, layout.platform.capacity_vector())
        requests = []
        for variant in range(6):
            some = sorted(rng.permutation(len(points))[: len(points) * 3 // 4])
            picked = [points[i] for i in some]
            preferred = (
                picked[int(rng.integers(len(picked)))].erv if variant % 2 else None
            )
            requests.append(AllocationRequest(
                pid=seed, points=picked, max_utility=table.max_utility(),
                preferred_erv=preferred, mandatory=variant == 4,
            ))
        # Copies of the first request by value: equal, then one point's
        # utility or power nudged, which must change the key.
        for du, dp in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
            copies = [
                OperatingPoint(erv=p.erv, utility=p.utility, power=p.power)
                for p in requests[0].points
            ]
            copies[-1] = OperatingPoint(
                erv=copies[-1].erv,
                utility=copies[-1].utility + du,
                power=copies[-1].power + dp,
            )
            requests.append(AllocationRequest(
                pid=seed, points=copies, max_utility=requests[0].max_utility,
            ))
        keys = [allocator._request_key(req) for req in requests]
        ref_keys = [reference(req) for req in requests]
        for i in range(len(requests)):
            for j in range(len(requests)):
                assert (keys[i] == keys[j]) == (ref_keys[i] == ref_keys[j])
        assert keys[0] == keys[-3] != keys[-2] and keys[0] != keys[-1]
        for req, key in zip(requests, keys):
            got = allocator._request_rows(req, key)
            want = request_rows(req, layout)
            for a, b in zip(got, want):
                assert a.shape == b.shape and (a == b).all()


def test_pruning_keeps_ties_within_a_core_vector(intel_layout):
    """ERVs with one core vector and equal values tie: none dominates.

    (Intel only: on the Odroid every core vector has a single ERV.)
    """
    layout = intel_layout
    rng = np.random.default_rng(7)
    cores = {}
    points = []
    for erv in layout.enumerate_all():
        u, p = cores.setdefault(
            tuple(erv.core_vector()),
            (float(rng.uniform(1, 50)), float(rng.uniform(1, 90))),
        )
        points.append(OperatingPoint(erv=erv, utility=u, power=p))
    req = AllocationRequest(pid=1, points=points, max_utility=50.0)
    allocator = LagrangianAllocator(layout.platform, layout)
    got = allocator._request_rows(req, allocator._request_key(req))
    want = request_rows(req, layout)
    assert len(want[2]) > len(np.unique(want[1], axis=0))  # ties survive
    for a, b in zip(got, want):
        assert a.shape == b.shape and (a == b).all()


class TestMeasuredCache:
    """``measured_points()``/``measured_count()`` match a full scan after
    every way a point can become (or stop being) measured."""

    @staticmethod
    def _check(table):
        scan = measured_points(table)
        assert [id(p) for p in table.measured_points()] == [id(p) for p in scan]
        assert table.measured_count() == len(scan)

    def test_every_mutation_path(self, intel_layout):
        a, b, c, d = intel_layout.enumerate_all()[:4]
        table = OperatingPointTable("app", intel_layout)
        self._check(table)
        table.record_measurement(a, 1.0, 2.0)
        self._check(table)
        created = table.get_or_create(b)
        self._check(table)
        # A point the table holds, measured behind the table's back.
        created.record_sample(3.0, 4.0)
        self._check(table)
        # add() merging into an existing ERV, measured and unmeasured.
        table.add(OperatingPoint(erv=c, utility=5.0, power=6.0))
        self._check(table)
        table.add(OperatingPoint(erv=c, utility=5.0, power=6.0, measured=True))
        self._check(table)
        table.add(OperatingPoint(erv=a, utility=1.0, power=2.0, measured=False))
        self._check(table)
        table.add(OperatingPoint(erv=d, utility=7.0, power=8.0, measured=True))
        self._check(table)
        # Wire and point-list round trips build the cache from scratch.
        self._check(OperatingPointTable.from_wire(intel_layout, table.to_wire()))
        copy = OperatingPointTable.from_points("copy", intel_layout, table.points)
        self._check(copy)
        # A point shared by two tables updates both caches.
        shared = table.get_or_create(intel_layout.enumerate_all()[5])
        copy.add(shared)
        shared.record_sample(1.0, 1.0)
        self._check(table)
        self._check(copy)


# -- whole runs: the Fig. 6 four-app node under HARP on both engines --------------

APPS = ("ep.C", "mg.C", "ft.C", "cg.C")


def _node_run(manager_cls, world_cls):
    """Warm-up rounds until every table is STABLE, then one more round.

    Returns the per-epoch selections (with each table's measured count)
    and the energy of every round.
    """
    platform = make_platform("intel")
    world = world_cls(
        platform, PinnedScheduler(),
        governor=make_governor("powersave", platform), seed=0,
    )
    manager = manager_cls(world, ManagerConfig(), seed=0)
    epochs = []
    solve = manager.reallocate

    def recorded():
        result = solve()
        if result is not None:
            epochs.append((
                world.tick_index,
                sorted(
                    (pid, sel.point.erv.counts, sel.point.utility,
                     sel.point.power, sorted(sel.hw_threads), sel.co_allocated)
                    for pid, sel in result.selections.items()
                ),
                sorted(
                    (s.pid, len(measured_points(s.table)), s.table.measured_count())
                    for s in manager.sessions.values()
                ),
            ))
        return result

    manager.reallocate = recorded
    energies = []
    for _ in range(12):
        start = world.total_energy_j()
        for name in APPS:
            model = resolve_model(name)
            model.total_work *= 0.25
            world.spawn(model, managed=True)
        world.run_until_all_finished()
        energies.append(world.total_energy_j() - start)
        if all(
            manager.table_store[name].stage is MaturityStage.STABLE
            for name in APPS
        ) and len(energies) >= 2:
            break
    return epochs, energies, dict(world.energy_by_type_j)


@pytest.mark.parametrize("world_cls", [World, EventWorld], ids=["tick", "event"])
def test_node_runs_match_per_point_reference(world_cls):
    got = _node_run(HarpManager, world_cls)
    want = _node_run(PerPointManager, world_cls)
    epochs, energies, by_type = got
    assert any(
        count >= 25 for _, _, counts in epochs for _, count, _ in counts
    ), "no table reached the stable stage"
    for _, _, counts in epochs:
        assert all(scan == cached for _, scan, cached in counts)
    assert epochs == want[0]
    assert energies == want[1]
    assert by_type == want[2]
